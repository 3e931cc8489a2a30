"""Prompt templates and rendering.

Three prompt kinds (base, chain-of-thought, documented) crossed with four
modes: ``zero`` (no context), ``static2`` (two fixed examples), ``triplets``
(context triplets retrieved from the KB) and ``examples`` ((sentence,
triplets) examples retrieved from the KB). ``MODES`` is the one list of them:
experiment specs, ``spec.json`` and the CLI use the same names.
``PromptTemplate(kind, mode)`` derives its body from the pair: ``{text}`` and
``{max_triplets}`` placeholders, plus one ``{context}`` placeholder in the two
retrieval modes. The wording here is canonical for this artifact; the
structural elements are the contract: a task explanation, the "(subject,
predicate, object)" line format, the maximum-triplet instruction, and the
section headers below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .corpus import AnnotatedSentence, Triplet, check_int
from .parsing import triplet_to_string
from .retriever import CONTEXT_MODES, RetrievedContext

PROMPT_KINDS = ("base", "chain_of_thought", "documented")
MODES = ("zero", "static2", *CONTEXT_MODES)


class PromptBudgetError(ValueError):
    """The character budget cannot fit even the zero-context prompt."""


@dataclass(frozen=True)
class PromptTemplate:
    kind: str
    mode: str

    def __post_init__(self) -> None:
        if self.kind not in PROMPT_KINDS:
            raise ValueError(f"unknown prompt kind {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @functools.cached_property
    def body(self) -> str:
        """The task text, the mode's context section, then the sentence section."""
        parts = [_TASK_TEXT[self.kind]]
        if self.mode == "static2":
            parts.append("\n" + "\n\n".join(map(format_example_block, STATIC_EXAMPLES)) + "\n")
        elif self.mode == "triplets":
            parts.append("\nContext Triplets:\n{context}\n")
        elif self.mode == "examples":
            parts.append("\n{context}\n")
        parts.append("\nSentence: {text}\nTriplets:\n")
        return "".join(parts)


@dataclass(frozen=True)
class PromptInstance:
    rendered: str
    context_items_included: int
    truncated: bool


_TASK_TEXT = {
    "base": (
        "Extract the knowledge triplets expressed in the sentence below.\n"
        "Write each triplet on its own line in the form (subject, predicate, object).\n"
        "Extract at most {max_triplets} triplets and output nothing except the triplet lines.\n"
    ),
    "chain_of_thought": (
        "Extract the knowledge triplets expressed in the sentence below by working step by step.\n"
        "Step 1: list the entities mentioned in the sentence.\n"
        "Step 2: for every pair of related entities, name the relation from one to the other.\n"
        "Step 3: after a line reading 'Triplets:', write the final triplets, one per line,\n"
        "in the form (subject, predicate, object), at most {max_triplets} of them.\n"
    ),
    "documented": (
        "Extract the knowledge triplets expressed in the sentence below.\n"
        "A triplet has the form (subject, predicate, object).\n"
        "The subject is the entity the statement is about.\n"
        "The object is the entity the subject is connected to.\n"
        "The predicate names the relation holding from the subject to the object.\n"
        "Write each triplet on its own line and extract at most {max_triplets} triplets.\n"
    ),
}

# fixed examples for the static2 mode; never retrieved, never changed
STATIC_EXAMPLES: tuple[AnnotatedSentence, ...] = (
    AnnotatedSentence(
        text="Rome is the capital of Italy.",
        gold=(Triplet("rome", "capital of", "italy"),),
    ),
    AnnotatedSentence(
        text="Marie Curie was born in Warsaw and won the Nobel Prize in Physics.",
        gold=(
            Triplet("marie curie", "birth place", "warsaw"),
            Triplet("marie curie", "award", "nobel prize in physics"),
        ),
    ),
)


def format_example_block(example: AnnotatedSentence) -> str:
    lines = [f"Sentence: {example.text}", "Triplets:"]
    lines.extend(triplet_to_string(t) for t in example.gold)
    return "\n".join(lines)


def _context_payloads(template: PromptTemplate, context: RetrievedContext | None) -> list:
    if context is None or template.mode not in CONTEXT_MODES:
        return []
    if context.mode != template.mode:
        raise TypeError(f"a {template.mode} template needs a context of mode {template.mode!r}, got {context.mode!r}")
    return [payload for payload, _ in context.items]


def render(
    template: PromptTemplate,
    sentence: str,
    max_triplets: int,
    context: RetrievedContext | None = None,
    budget: int | None = None,
) -> PromptInstance:
    """Substitute placeholders and fit the result into ``budget`` characters.

    A template of a retrieval mode takes a ``RetrievedContext`` of the
    template's mode; the other modes ignore ``context``.
    Context items are included highest-ranked first; if the render exceeds
    the budget, the lowest-ranked items are dropped until it fits. A budget
    too small for the zero-context render raises ``PromptBudgetError``.
    ``max_triplets`` and a non-``None`` ``budget`` must be ints of at least 1.
    """
    check_int("max_triplets", max_triplets, 1)
    if budget is not None:
        check_int("budget", budget, 1)
    items = _context_payloads(template, context)
    for included in range(len(items), -1, -1):
        kept = items[:included]
        if template.mode == "triplets":
            section = "\n".join(triplet_to_string(t) for t in kept)
        else:
            section = "\n\n".join(format_example_block(ex) for ex in kept)
        rendered = template.body.format(text=sentence, max_triplets=max_triplets, context=section)
        if budget is None or len(rendered) <= budget:
            return PromptInstance(rendered, context_items_included=included, truncated=included < len(items))
    raise PromptBudgetError(
        f"budget of {budget} characters cannot fit the zero-context prompt"
    )
