from __future__ import annotations

import difflib

import pytest

from kgte import (
    PromptBudgetError,
    PromptTemplate,
    RetrievedContext,
    Triplet,
    render,
)
from kgte.prompting import MODES, PROMPT_KINDS, STATIC_EXAMPLES
from kgte.retriever import CONTEXT_MODES


def triplet_context(n, n_kb=None):
    items = tuple(
        (Triplet(f"subj{i}", f"rel{i}", f"obj{i}"), 1.0 - i * 0.05) for i in range(n)
    )
    return RetrievedContext(mode="triplets", items=items, n_kb_requested=n_kb or max(n, 1))


class TestCatalog:
    def test_every_kind_in_every_shot_mode(self):
        templates = [PromptTemplate(k, m) for k in PROMPT_KINDS for m in MODES]
        assert len(templates) == len(PROMPT_KINDS) * len(MODES)
        combos = {(t.kind, t.mode) for t in templates}
        assert combos == {(k, s) for k in PROMPT_KINDS for s in MODES}

    def test_placeholder_invariants(self):
        for template in (PromptTemplate(k, m) for k in PROMPT_KINDS for m in MODES):
            assert template.body.count("{text}") == 1
            assert template.body.count("{max_triplets}") == 1
            assert template.body.count("{context}") == (template.mode in CONTEXT_MODES)

    def test_static_two_shot_examples_are_fixed(self):
        template = PromptTemplate("base", "static2")
        assert len(STATIC_EXAMPLES) == 2
        for example in STATIC_EXAMPLES:
            assert example.text in template.body
        # rendered with different sentences, the example blocks do not change
        a = render(template, "first sentence", 7).rendered
        b = render(template, "second sentence", 7).rendered
        for example in STATIC_EXAMPLES:
            assert example.text in a and example.text in b

    def test_chain_of_thought_enforces_steps(self):
        template = PromptTemplate("chain_of_thought", "zero")
        assert "Step 1" in template.body
        assert "Step 2" in template.body
        assert "Step 3" in template.body

    def test_documented_defines_the_parts(self):
        body = PromptTemplate("documented", "zero").body.lower()
        for term in ("subject", "object", "predicate", "triplet"):
            assert term in body

    @pytest.mark.parametrize(
        "kind,mode,message",
        [
            ("base", "three-shot", "unknown mode 'three-shot'"),
            ("terse", "zero", "unknown prompt kind 'terse'"),
            ("terse", "three-shot", "unknown prompt kind 'terse'"),
        ],
    )
    def test_unknown_kind_or_mode_rejected(self, kind, mode, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PromptTemplate(kind, mode)


class TestRender:
    def test_zero_shot_substitution(self):
        instance = render(PromptTemplate("base", "zero"), "X marks the spot.", 7)
        assert "X marks the spot." in instance.rendered
        assert "7" in instance.rendered
        assert "Context Triplets:" not in instance.rendered
        assert instance.context_items_included == 0
        assert not instance.truncated

    def test_no_residual_placeholders(self):
        for template in (PromptTemplate(k, m) for k in PROMPT_KINDS for m in MODES):
            context = triplet_context(2) if template.mode == "triplets" else None
            instance = render(template, "a sentence", 3, context)
            for placeholder in ("{text}", "{max_triplets}", "{context}"):
                assert placeholder not in instance.rendered

    def test_context_triplets_rendered_one_per_line(self):
        template = PromptTemplate("base", "triplets")
        instance = render(template, "sentence", 5, triplet_context(3))
        assert "Context Triplets:\n(subj0, rel0, obj0)\n(subj1, rel1, obj1)\n(subj2, rel2, obj2)" in instance.rendered
        assert instance.context_items_included == 3

    def test_empty_context_matches_zero_shot_task_text(self):
        zero = render(PromptTemplate("base", "zero"), "same sentence", 5).rendered
        with_empty = render(
            PromptTemplate("base", "triplets"), "same sentence", 5, triplet_context(0, n_kb=5)
        ).rendered
        # the only differences are the empty context section lines
        diff = [
            line
            for line in difflib.ndiff(zero.splitlines(), with_empty.splitlines())
            if line.startswith(("+", "-"))
        ]
        assert all(line.lstrip("+- ") in ("Context Triplets:", "") for line in diff)

    def test_budget_truncates_lowest_ranked(self):
        template = PromptTemplate("base", "triplets")
        full = render(template, "sentence", 5, triplet_context(5))
        assert not full.truncated
        # a budget that only fits three context items keeps the top three
        squeezed = render(
            template,
            "sentence",
            5,
            triplet_context(5),
            budget=len(full.rendered) - 2 * len("(subjX, relX, objX)\n") + 1,
        )
        assert squeezed.truncated
        assert squeezed.context_items_included == 3
        assert "(subj2, rel2, obj2)" in squeezed.rendered
        assert "(subj3, rel3, obj3)" not in squeezed.rendered

    def test_budget_too_small_raises(self):
        with pytest.raises(PromptBudgetError):
            render(PromptTemplate("base", "zero"), "sentence", 5, budget=10)

    @pytest.mark.parametrize(
        "max_triplets,budget,needle",
        [
            (-1, None, "^max_triplets must be >= 1, got -1$"),
            (0, None, "^max_triplets must be >= 1, got 0$"),
            (True, None, "^max_triplets must be an int, got True$"),
            (2.5, None, "^max_triplets must be an int, got 2.5$"),
            (5, True, "^budget must be an int, got True$"),
            (5, 0, "^budget must be >= 1, got 0$"),
            (5, 400.0, "^budget must be an int, got 400.0$"),
        ],
    )
    def test_max_triplets_and_budget_must_be_positive_ints(self, max_triplets, budget, needle):
        for mode in ("zero", "triplets"):
            with pytest.raises(ValueError, match=needle):
                render(PromptTemplate("base", mode), "x y z", max_triplets, triplet_context(2), budget)

    def test_five_examples_squeezed_to_three(self):
        template = PromptTemplate("base", "examples")
        examples = tuple(
            (
                STATIC_EXAMPLES[0].__class__(
                    f"example sentence number {i}", (Triplet(f"s{i}", f"r{i}", f"o{i}"),)
                ),
                1.0 - i * 0.1,
            )
            for i in range(5)
        )
        context = RetrievedContext(mode="examples", items=examples, n_kb_requested=5)
        full = render(template, "sentence", 5, context)
        block = "Sentence: example sentence number 4\nTriplets:\n(s4, r4, o4)"
        assert block in full.rendered
        squeezed = render(
            template, "sentence", 5, context,
            budget=len(full.rendered) - 2 * (len(block) + 2) + 1,
        )
        assert squeezed.truncated
        assert squeezed.context_items_included == 3
        assert "example sentence number 2" in squeezed.rendered
        assert "example sentence number 3" not in squeezed.rendered

    def test_examples_rendered_as_sentence_triplet_blocks(self):
        template = PromptTemplate("base", "examples")
        example = STATIC_EXAMPLES[1]
        context = RetrievedContext(mode="examples", items=((example, 0.9),), n_kb_requested=1)
        instance = render(template, "sentence", 5, context)
        assert f"Sentence: {example.text}" in instance.rendered
        assert "(marie curie, birth place, warsaw)" in instance.rendered

    @pytest.mark.parametrize("n_items", [0, 2])
    def test_context_mode_must_match_shot_mode(self, n_items):
        with pytest.raises(TypeError, match="mode 'examples'"):
            render(PromptTemplate("base", "examples"), "sentence", 5, triplet_context(n_items))
        examples = RetrievedContext(mode="examples", items=((STATIC_EXAMPLES[0], 0.9),)[:n_items], n_kb_requested=2)
        with pytest.raises(TypeError, match="mode 'triplets'"):
            render(PromptTemplate("base", "triplets"), "sentence", 5, examples)

    def test_deterministic(self):
        template = PromptTemplate("documented", "triplets")
        context = triplet_context(4)
        a = render(template, "sentence", 9, context, budget=5000)
        b = render(template, "sentence", 9, context, budget=5000)
        assert a == b

    def test_only_text_differs_between_zero_shot_renders(self):
        template = PromptTemplate("base", "zero")
        a = render(template, "first input", 7).rendered
        b = render(template, "second input", 7).rendered
        assert a.replace("first input", "second input") == b

    def test_context_items_are_rank_prefix(self):
        template = PromptTemplate("base", "triplets")
        context = triplet_context(5)
        for budget in range(80, 2000, 40):
            try:
                instance = render(template, "sentence", 5, context, budget=budget)
            except PromptBudgetError:
                continue
            included = instance.context_items_included
            for i in range(included):
                assert f"(subj{i}, rel{i}, obj{i})" in instance.rendered
            for i in range(included, 5):
                assert f"(subj{i}, rel{i}, obj{i})" not in instance.rendered
