from __future__ import annotations

import random
import re
import string

import pytest

from kgte import Triplet, parse_triplets, triplet_to_string


class TestGrammar:
    def test_plain_tuples_normalized(self):
        raw = "(Alan_Bean, nationality, United_States)\n(Alan_Bean, occupation, astronaut)"
        outcome = parse_triplets(raw, max_triplets=7)
        assert outcome.triplets == (
            Triplet("alan bean", "nationality", "united states"),
            Triplet("alan bean", "occupation", "astronaut"),
        )
        assert outcome.malformed_lines == 0
        assert not outcome.truncated_to_max

    def test_prefixed_prose_line_rejected(self):
        outcome = parse_triplets("I think the answer is: (a, b, c)", max_triplets=3)
        assert outcome.triplets == ()
        assert outcome.malformed_lines == 1

    def test_duplicates_dropped(self):
        outcome = parse_triplets("(a, b, c)\n(a, b, c)", max_triplets=3)
        assert outcome.triplets == (Triplet("a", "b", "c"),)
        assert outcome.malformed_lines == 0

    @pytest.mark.parametrize("marker", ["1. ", "2.", "- ", "* ", "12. "])
    def test_enumeration_markers_stripped(self, marker):
        outcome = parse_triplets(f"{marker}(a, b, c)", max_triplets=3)
        assert outcome.triplets == (Triplet("a", "b", "c"),)

    def test_truncation_to_max(self):
        raw = "\n".join(f"(s{i}, r, o{i})" for i in range(6))
        outcome = parse_triplets(raw, max_triplets=4)
        assert len(outcome.triplets) == 4
        assert outcome.truncated_to_max
        assert outcome.triplets[0] == Triplet("s0", "r", "o0")

    def test_wrong_comma_arity_rejected(self):
        outcome = parse_triplets("(a, b)\n(a, b, c, d)\n(a, b, c)", max_triplets=5)
        assert outcome.triplets == (Triplet("a", "b", "c"),)
        assert outcome.malformed_lines == 2

    def test_nested_parens_kept_in_field(self):
        outcome = parse_triplets("(tom (the cat), chases, jerry)", max_triplets=2)
        assert outcome.triplets == (Triplet("tom (the cat)", "chases", "jerry"),)

    def test_unbalanced_parens_rejected(self):
        outcome = parse_triplets("(a, b, c))\n((a, b, c)", max_triplets=2)
        assert outcome.triplets == ()
        assert outcome.malformed_lines == 2

    def test_empty_field_rejected(self):
        outcome = parse_triplets("(a, , c)\n( , b, c)", max_triplets=2)
        assert outcome.triplets == ()
        assert outcome.malformed_lines == 2

    def test_blank_lines_ignored(self):
        outcome = parse_triplets("\n\n(a, b, c)\n\n", max_triplets=2)
        assert outcome.triplets == (Triplet("a", "b", "c"),)
        assert outcome.malformed_lines == 0

    def test_trailing_text_after_tuple_rejected(self):
        outcome = parse_triplets("(a, b, c). That is all.", max_triplets=2)
        assert outcome.triplets == ()
        assert outcome.malformed_lines == 1

    def test_order_preserves_first_occurrence(self):
        raw = "(b, r, c)\n(a, r, c)\n(b, r, c)"
        outcome = parse_triplets(raw, max_triplets=5)
        assert outcome.triplets == (Triplet("b", "r", "c"), Triplet("a", "r", "c"))

    def test_max_triplets_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_triplets("(a, b, c)", max_triplets=0)

    @pytest.mark.parametrize("max_triplets", [True, 2.5, "2"])
    def test_max_triplets_must_be_an_int(self, max_triplets):
        with pytest.raises(ValueError, match=f"^{re.escape(f'max_triplets must be an int, got {max_triplets!r}')}$"):
            parse_triplets("(a, b, c)\n(d, e, f)", max_triplets)


def test_parsed_triplets_share_surface_objects():
    outcome = parse_triplets("(Alan_Bean, occupation, Test pilot)\n(alan  bean, birth place, Wheeler)", 5)
    first, second = outcome.triplets
    assert first.subject is second.subject
    assert first.predicate is Triplet("a", "Occupation", "b").predicate
    assert not hasattr(first, "__dict__")


def _random_normalized_field(rng: random.Random) -> str:
    words = [
        "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 3))
    ]
    return " ".join(words)


class TestRoundTripAndTotality:
    def test_round_trip_random_triplets(self):
        rng = random.Random(13)
        for _ in range(2000):
            t = Triplet(*(_random_normalized_field(rng) for _ in range(3)))
            outcome = parse_triplets(triplet_to_string(t), max_triplets=3)
            assert outcome.triplets == (t,)
            assert outcome.malformed_lines == 0

    def test_parser_total_on_arbitrary_bytes(self):
        rng = random.Random(14)
        for _ in range(2000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120)))
            raw = blob.decode("latin-1")
            outcome = parse_triplets(raw, max_triplets=3)
            assert outcome.malformed_lines >= 0

    def test_parser_total_on_unicode_soup(self):
        rng = random.Random(15)
        pool = "（）()[]{},.;:\n\t абвгд 中文 ,,,()(()"
        for _ in range(500):
            raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 60)))
            parse_triplets(raw, max_triplets=2)
