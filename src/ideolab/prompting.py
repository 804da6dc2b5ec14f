"""Prompt assembly: instruction text, demonstration blocks, query block.

Rendering is a pure function of its inputs; identical inputs produce
identical bytes. Instruction wording is frozen by golden tests, so any
change to the constants below is a deliberate, test-visible act.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .corpus import ContentItem, Ideology

LEAD_SENTENCES = (
    "Classify the following news article titles as ideologically liberal, "
    "neutral, or conservative. Titles with no ideological content are "
    "classified as neutral."
)
SOURCE_SENTENCE = "The news source is also specified for additional context."
DESCRIPTION_SENTENCE = "The news description is also specified for additional context."
FINAL_ANSWER_SENTENCE = "Only respond with the final answer."
COT_FINAL_SENTENCE = (
    "Think through the task step-by-step and explain your reasoning, then give "
    'the final answer on a new line beginning with "Answer:".'
)

ANSWER_MARKER = "Answer:"


class PromptError(ValueError):
    """Raised when a prompt cannot be rendered from the given inputs."""


@dataclass(frozen=True)
class FieldConfig:
    """Which of title/source/description are rendered into prompts."""

    include_title: bool = True
    include_source: bool = False
    include_description: bool = False

    def __post_init__(self) -> None:
        if not (self.include_title or self.include_source or self.include_description):
            raise ValueError("at least one field must be included")

    def key(self) -> str:
        """Canonical short name, e.g. "title-source"; used in cache keys."""
        included = (self.include_title, self.include_source, self.include_description)
        return "-".join(name for name, on in zip(("title", "source", "desc"), included) if on)

    @classmethod
    def from_key(cls, key: str) -> "FieldConfig":
        parts = set(key.split("-"))
        unknown = parts - {"title", "source", "desc"}
        if unknown:
            raise ValueError(f"unknown field name(s) in fields {key!r}: {sorted(unknown)}")
        return cls("title" in parts, "source" in parts, "desc" in parts)


FIELD_GRID = ("title", "title-source", "title-desc", "title-source-desc")


def instruction_for(config: FieldConfig, cot: bool = False) -> str:
    """The instruction paragraph for a field configuration.

    Metadata sentences are inserted between the lead and the final
    sentence, source first. CoT swaps the final sentence for a
    step-by-step directive that ends with the "Answer:" marker rule.
    """
    sentences = [LEAD_SENTENCES]
    if config.include_source:
        sentences.append(SOURCE_SENTENCE)
    if config.include_description:
        sentences.append(DESCRIPTION_SENTENCE)
    sentences.append(COT_FINAL_SENTENCE if cot else FINAL_ANSWER_SENTENCE)
    return " ".join(sentences)


def render_fields_text(item: ContentItem, config: FieldConfig) -> str:
    """Plain text of the configured field values, for embedding.

    Uses the raw values joined by newlines (no "Title:" labels); the
    fields embedded always match the fields prompted.
    """
    return "\n".join(value for _, value in render_block(item, config, with_label=False).fields)


@dataclass(frozen=True)
class PromptBlock:
    """One demonstration or the query: its ``(name, value)`` fields in
    Title/Source/Description order and its gold label (None for the query)."""

    fields: tuple[tuple[str, str], ...]
    label: Optional[Ideology] = None

    @property
    def body(self) -> str:
        """The field lines, e.g. "Title: ...\nSource: ..."."""
        return "\n".join(f"{name}: {value}" for name, value in self.fields)

    @property
    def answer(self) -> str:
        """The gold label line, e.g. "Ideology: Liberal"; empty for the query."""
        return "" if self.label is None else f"Ideology: {self.label.display}"

    @property
    def text(self) -> str:
        """The block in a flat prompt: the field lines, then a demonstration's label line."""
        return f"{self.body}\n{self.answer}" if self.label is not None else self.body


def render_block(item: ContentItem, config: FieldConfig, with_label: bool) -> PromptBlock:
    """One demonstration (``with_label``) or query block.

    Fields come in the fixed order Title/Source/Description; a missing
    field is left out rather than given a blank value. An item with none of
    the configured fields, or a demonstration without a gold label, is refused.
    """
    configured = (
        ("Title", config.include_title, item.title),
        ("Source", config.include_source, item.source),
        ("Description", config.include_description, item.description),
    )
    fields = tuple((name, value) for name, included, value in configured if included and value)
    if not fields:
        raise PromptError(f"item {item.id!r} has none of the configured fields")
    if with_label and item.label is None:
        raise PromptError(f"demonstration item {item.id!r} has no gold label")
    return PromptBlock(fields, item.label if with_label else None)


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully rendered prompt, held as blocks (the query's has no label); every text form is derived."""

    instruction: str
    demos: tuple[PromptBlock, ...]
    query: PromptBlock
    cot: bool = False

    @property
    def demo_blocks(self) -> tuple[str, ...]:
        return tuple(demo.text for demo in self.demos)

    @property
    def query_block(self) -> str:
        return self.query.text

    @cached_property
    def text(self) -> str:
        """Single flat prompt: instruction then blocks, blank-line separated;
        cached, since the budget check and the flat message both read it."""
        return "\n\n".join((self.instruction, *self.demo_blocks, self.query_block))

    def as_messages(self, chat_turns: bool = False) -> list[dict]:
        """Chat-completion messages.

        Default is one flat user message holding :attr:`text`. ``chat_turns``
        instead sends the instruction as the system message, then per
        demonstration its field lines as a user turn and its label line
        ("Ideology: Liberal") as the assistant's reply, then the query's
        field lines as the last user turn.
        """
        if not chat_turns:
            return [{"role": "user", "content": self.text}]
        messages = [{"role": "system", "content": self.instruction}]
        for demo in self.demos:
            messages.append({"role": "user", "content": demo.body})
            messages.append({"role": "assistant", "content": demo.answer})
        messages.append({"role": "user", "content": self.query.body})
        return messages


def render(
    item: ContentItem,
    demos,
    demo_items: Mapping[str, ContentItem],
    config: FieldConfig,
    cot: bool = False,
) -> RenderedPrompt:
    """Render the prompt for one query with its selected demonstrations.

    ``demos`` is a DemonstrationSet; demonstrations render in admission
    order (best rank first).
    """
    missing = [member.item_id for member in demos.members if member.item_id not in demo_items]
    if missing:
        raise PromptError(f"demonstration id {missing[0]!r} not resolvable")
    return RenderedPrompt(
        instruction=instruction_for(config, cot),
        demos=tuple(render_block(demo_items[member.item_id], config, with_label=True) for member in demos.members),
        query=render_block(item, config, with_label=False),
        cot=cot,
    )
