"""The "(subject, predicate, object)" line format in both directions:
``triplet_to_string`` writes a triplet's line, ``parse_triplets`` reads raw
generator output. The parser is total: anything that is not a bare tuple on
its own line is counted as malformed, never raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Triplet, check_int

# leading enumeration markers models like to emit: "1. ", "- ", "* "
_MARKER_RE = re.compile(r"^(?:\d+\.|[-*])\s*")


@dataclass(frozen=True)
class ParseOutcome:
    triplets: tuple[Triplet, ...]
    malformed_lines: int
    truncated_to_max: bool


def triplet_to_string(triplet: Triplet) -> str:
    """The line of a triplet, for embedding, prompts and pure extractors; a
    field with a top-level comma or an unbalanced parenthesis does not survive parsing."""
    return f"({triplet.subject}, {triplet.predicate}, {triplet.object})"


def _split_tuple_line(line: str) -> tuple[str, str, str] | None:
    """Split "( f1 , f2 , f3 )" on its two top-level commas, or None.

    Commas nested inside inner parentheses do not count; a line with any
    other comma arity is rejected (fields containing commas are unsupported).
    """
    if len(line) < 2 or not line.startswith("(") or not line.endswith(")"):
        return None
    depth = 0
    cuts = []
    for position, char in enumerate(line):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                return None
        elif char == "," and depth == 1:
            cuts.append(position)
    if depth != 0 or len(cuts) != 2:
        return None
    first, second = cuts
    return (line[1:first], line[first + 1 : second], line[second + 1 : -1])


def parse_triplets(raw: str, max_triplets: int) -> ParseOutcome:
    """Scan ``raw`` line by line for triplet tuples.

    Leading enumeration markers are stripped; fields are normalized;
    duplicates and lines with empty fields are dropped; at most
    ``max_triplets`` triplets are kept (first occurrences win). Blank lines
    are ignored; every other unusable line increments ``malformed_lines``.
    """
    check_int("max_triplets", max_triplets, 1)
    collected: dict[Triplet, None] = {}
    malformed = 0
    for line in raw.splitlines():
        line = _MARKER_RE.sub("", line.strip())
        if not line:
            continue
        fields = _split_tuple_line(line)
        if fields is None:
            malformed += 1
            continue
        try:
            triplet = Triplet(*fields)
        except ValueError:  # a field empty after normalization
            malformed += 1
            continue
        collected.setdefault(triplet)
    triplets = list(collected)
    truncated = len(triplets) > max_triplets
    return ParseOutcome(
        triplets=tuple(triplets[:max_triplets]),
        malformed_lines=malformed,
        truncated_to_max=truncated,
    )
