"""HTTP plumbing shared by the embedding and generation clients.

The actual wire call is a pluggable ``transport`` callable
``(url, payload, headers, timeout) -> (status_code, body_text)`` so tests can
run fully offline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

Transport = Callable[[str, dict, Mapping[str, str], float], tuple[int, str]]

API_KEY_ENV = "KGTE_API_KEY"

# statuses worth retrying; everything else 4xx/5xx is a hard API error
TRANSIENT_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def delay(self, attempt: int) -> float:
        return self.backoff_base * self.backoff_factor**attempt


class TransportError(RuntimeError):
    """Transient transport failures persisted through every retry."""


class APIError(RuntimeError):
    """The endpoint answered with a non-success status or an unusable body."""

    def __init__(self, message: str, status: int | None = None, body_excerpt: str = ""):
        super().__init__(message)
        self.status = status
        self.body_excerpt = body_excerpt


def _requests_transport(url: str, payload: dict, headers: Mapping[str, str], timeout: float):
    import requests

    response = requests.post(url, json=payload, headers=dict(headers), timeout=timeout)
    return response.status_code, response.text


def post_json(
    url: str,
    payload: dict,
    *,
    headers: Mapping[str, str] | None = None,
    timeout: float = 60.0,
    policy: RetryPolicy | None = None,
    transport: Transport | None = None,
    sleeper: Callable[[float], None] = time.sleep,
) -> dict:
    """POST a JSON payload and return the JSON object the endpoint answers,
    retrying transient failures with exponential backoff.

    Network errors (``OSError``, which includes ``ConnectionError``,
    ``TimeoutError`` and every ``requests`` exception) and the statuses in
    ``TRANSIENT_STATUSES`` are retried up to ``policy.max_retries`` times.
    Other non-2xx statuses, and a 2xx body that is not a JSON object, raise
    ``APIError`` at once; any other exception from the transport propagates.
    """
    policy = policy or RetryPolicy()
    transport = transport or _requests_transport
    headers = headers or {}
    last_failure: str = "no attempt made"
    for attempt in range(policy.max_retries + 1):
        try:
            status, body = transport(url, payload, headers, timeout)
        except OSError as exc:
            last_failure = f"transport failure: {exc}"
        else:
            if 200 <= status < 300:
                try:
                    doc = json.loads(body)
                except json.JSONDecodeError as exc:
                    raise APIError(
                        f"endpoint returned invalid JSON: {exc}", status=status,
                        body_excerpt=body[:300],
                    ) from exc
                if not isinstance(doc, dict):
                    raise APIError(
                        f"endpoint returned a JSON {type(doc).__name__}, not an object",
                        status=status,
                        body_excerpt=body[:300],
                    )
                return doc
            if status not in TRANSIENT_STATUSES:
                raise APIError(
                    f"request to {url} failed with status {status}",
                    status=status,
                    body_excerpt=body[:300],
                )
            last_failure = f"status {status}"
        if attempt < policy.max_retries:
            sleeper(policy.delay(attempt))
    raise TransportError(
        f"request to {url} failed after {policy.max_retries + 1} attempts ({last_failure})"
    )


class HTTPClient:
    """What the generation and embedding clients share: the bearer credential,
    the request headers, the bound on requests in flight and the retry wiring.

    ``api_key=None`` reads ``KGTE_API_KEY`` from the environment; an empty
    string sends no ``Authorization`` header.
    """

    def __init__(
        self,
        *,
        api_key: str | None,
        timeout: float,
        policy: RetryPolicy,
        in_flight: int,
        transport: Transport | None,
        sleeper: Callable[[float], None],
    ):
        if in_flight < 1:
            raise ValueError("in_flight must be >= 1")
        if api_key is None:
            api_key = os.environ.get(API_KEY_ENV)
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self.timeout = timeout
        self.policy = policy
        self.transport = transport
        self.sleeper = sleeper
        self._semaphore = threading.BoundedSemaphore(in_flight)

    def post(self, url: str, payload: dict) -> dict:
        with self._semaphore:
            return post_json(
                url,
                payload,
                headers=self.headers,
                timeout=self.timeout,
                policy=self.policy,
                transport=self.transport,
                sleeper=self.sleeper,
            )
