"""Prompt catalog and rendering.

Three prompt kinds (base, chain-of-thought, documented) crossed with four
shot modes (zero, static two-shot, context triplets, retrieved examples).
Templates carry ``{text}`` and ``{max_triplets}`` placeholders, plus
``{context_triplets}`` or ``{examples}`` depending on the shot mode. The
wording here is canonical for this artifact; the structural elements are the
contract: a task explanation, the "(subject, predicate, object)" line format,
the maximum-triplet instruction, and the section headers below.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import AnnotatedSentence, Triplet
from .encoder import triplet_to_string
from .retriever import RetrievedContext

PROMPT_KINDS = ("base", "chain_of_thought", "documented")
SHOT_MODES = ("zero", "static_two_shot", "context_triplets", "examples")


class PromptBudgetError(ValueError):
    """The character budget cannot fit even the zero-context prompt."""


@dataclass(frozen=True)
class PromptTemplate:
    kind: str
    shot_mode: str
    body: str

    def __post_init__(self) -> None:
        if self.kind not in PROMPT_KINDS:
            raise ValueError(f"unknown prompt kind {self.kind!r}")
        if self.shot_mode not in SHOT_MODES:
            raise ValueError(f"unknown shot mode {self.shot_mode!r}")
        for placeholder in ("{text}", "{max_triplets}"):
            if self.body.count(placeholder) != 1:
                raise ValueError(f"template body must contain {placeholder} exactly once")
        wants_context = self.shot_mode == "context_triplets"
        if (self.body.count("{context_triplets}") == 1) != wants_context:
            raise ValueError("{context_triplets} placeholder does not match shot mode")
        wants_examples = self.shot_mode == "examples"
        if (self.body.count("{examples}") == 1) != wants_examples:
            raise ValueError("{examples} placeholder does not match shot mode")


@dataclass(frozen=True)
class PromptInstance:
    rendered: str
    kind: str
    shot_mode: str
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

# fixed examples for the static two-shot mode; never retrieved, never changed
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


def _static_examples_section() -> str:
    return "\n\n".join(format_example_block(ex) for ex in STATIC_EXAMPLES)


def _build_body(kind: str, shot_mode: str) -> str:
    parts = [_TASK_TEXT[kind]]
    if shot_mode == "static_two_shot":
        parts.append("\n" + _static_examples_section() + "\n")
    elif shot_mode == "context_triplets":
        parts.append("\nContext Triplets:\n{context_triplets}\n")
    elif shot_mode == "examples":
        parts.append("\n{examples}\n")
    parts.append("\nSentence: {text}\nTriplets:\n")
    return "".join(parts)


def catalog() -> list[PromptTemplate]:
    """All built-in templates: every prompt kind in every shot mode."""
    return [
        PromptTemplate(kind=kind, shot_mode=shot, body=_build_body(kind, shot))
        for kind in PROMPT_KINDS
        for shot in SHOT_MODES
    ]


def get_template(kind: str, shot_mode: str) -> PromptTemplate:
    if kind not in PROMPT_KINDS:
        raise ValueError(f"unknown prompt kind {kind!r}")
    if shot_mode not in SHOT_MODES:
        raise ValueError(f"unknown shot mode {shot_mode!r}")
    return PromptTemplate(kind=kind, shot_mode=shot_mode, body=_build_body(kind, shot_mode))


def export_catalog(directory: str | Path) -> list[Path]:
    """Write every template body to a plain-text file for auditing."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for template in catalog():
        path = directory / f"{template.kind}__{template.shot_mode}.txt"
        path.write_text(template.body, encoding="utf-8")
        paths.append(path)
    return paths


# the context mode each context-taking shot mode renders
_SHOT_CONTEXT_MODES = {"context_triplets": "triplets", "examples": "examples"}


def _context_payloads(template: PromptTemplate, context: RetrievedContext | None) -> list:
    wanted = _SHOT_CONTEXT_MODES.get(template.shot_mode)
    if context is None or wanted is None:
        return []
    if context.mode != wanted:
        raise TypeError(f"a {template.shot_mode} template needs a context of mode {wanted!r}, got {context.mode!r}")
    return [payload for payload, _ in context.items]


def render(
    template: PromptTemplate,
    sentence: str,
    max_triplets: int,
    context: RetrievedContext | None = None,
    budget: int | None = None,
) -> PromptInstance:
    """Substitute placeholders and fit the result into ``budget`` characters.

    A context-triplets template takes a triplets ``RetrievedContext`` and an
    examples template an examples one; other shot modes ignore ``context``.
    Context items are included highest-ranked first; if the render exceeds
    the budget, the lowest-ranked items are dropped until it fits. A budget
    too small for the zero-context render raises ``PromptBudgetError``.
    """
    items = _context_payloads(template, context)
    for included in range(len(items), -1, -1):
        kept = items[:included]
        if template.shot_mode == "context_triplets":
            section = "\n".join(triplet_to_string(t) for t in kept)
        else:
            section = "\n\n".join(format_example_block(ex) for ex in kept)
        rendered = template.body.format(
            text=sentence,
            max_triplets=max_triplets,
            context_triplets=section,
            examples=section,
        )
        if budget is None or len(rendered) <= budget:
            return PromptInstance(
                rendered=rendered,
                kind=template.kind,
                shot_mode=template.shot_mode,
                context_items_included=included,
                truncated=included < len(items),
            )
    raise PromptBudgetError(
        f"budget of {budget} characters cannot fit the zero-context prompt"
    )
