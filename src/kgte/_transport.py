"""HTTP plumbing shared by the LLM client and the external embedding provider.

The actual wire call is a pluggable ``transport`` callable
``(url, payload, headers, timeout) -> (status_code, body_text)`` so tests can
run fully offline. ``HTTPClient`` is the one frozen record of the settings;
``post_json`` sends with it. Neither holds per-request state, so the caller
alone bounds concurrency.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Mapping

from .corpus import check_int, check_real

Transport = Callable[[str, dict, Mapping[str, str], float], tuple[int, str]]

API_KEY_ENV = "KGTE_API_KEY"

# statuses worth retrying; everything else 4xx/5xx is a hard API error
TRANSIENT_STATUSES = frozenset({429, 500, 502, 503, 504})


def bearer_headers(api_key: str | None) -> dict[str, str]:
    """JSON request headers with the bearer credential: ``None`` reads
    ``KGTE_API_KEY``; an empty string sends no ``Authorization`` header."""
    if api_key is None:
        api_key = os.environ.get(API_KEY_ENV)
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


@dataclass(frozen=True)
class HTTPClient:
    """The HTTP settings of the LLM client and the external embedding
    provider; frozen, so the run's pool shares one client across threads.
    ``encode_texts`` embeds with the defaults."""

    headers: Mapping[str, str]
    transport: Transport | None
    sleeper: Callable[[float], None]
    timeout: float = 30.0
    max_retries: int = 2
    backoff_base: float = 0.25

    def __post_init__(self) -> None:
        check_int("max_retries", self.max_retries, 0)
        check_real("backoff_base", self.backoff_base, 0)

    def delay(self, attempt: int) -> float:
        return self.backoff_base * 2**attempt


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


def post_json(client: HTTPClient, url: str, payload: dict) -> dict:
    """POST a JSON payload with ``client``'s headers, timeout, transport and
    sleeper, and return the JSON object the endpoint answers, retrying
    transient failures with exponential backoff (``client.delay``).

    Network errors (``OSError``: ``ConnectionError``, ``TimeoutError``, the
    ``requests`` ones) and the statuses in ``TRANSIENT_STATUSES`` are retried
    up to ``client.max_retries`` times, except an ``OSError`` that is also a
    ``ValueError``: a malformed URL (``requests``' ``MissingSchema``,
    ``InvalidSchema``, ``InvalidURL``) propagates at once, as does any other
    exception from the transport. Other non-2xx statuses, and a 2xx body that
    is not a JSON object, raise ``APIError`` at once.
    """
    transport = client.transport or _requests_transport
    last_failure: str = "no attempt made"
    for attempt in range(client.max_retries + 1):
        try:
            status, body = transport(url, payload, client.headers, client.timeout)
        except OSError as exc:
            if isinstance(exc, ValueError):
                raise
            last_failure = f"transport failure: {exc}"
        else:
            if 200 <= status < 300:
                try:
                    doc = json.loads(body)
                except json.JSONDecodeError as exc:
                    raise APIError(f"endpoint returned invalid JSON: {exc}", status, body[:300]) from exc
                if not isinstance(doc, dict):
                    raise APIError(f"endpoint returned a JSON {type(doc).__name__}, not an object", status, body[:300])
                return doc
            if status not in TRANSIENT_STATUSES:
                raise APIError(f"request to {url} failed with status {status}", status, body[:300])
            last_failure = f"status {status}"
        if attempt < client.max_retries:
            client.sleeper(client.delay(attempt))
    raise TransportError(f"request to {url} failed after {client.max_retries + 1} attempts ({last_failure})")
