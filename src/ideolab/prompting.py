"""Prompt assembly: instruction text, demonstration blocks, query block.

Rendering is a pure function of its inputs; identical inputs produce
identical bytes. Instruction wording is frozen by golden tests, so any
change to the constants below is a deliberate, test-visible act.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .corpus import ContentItem

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
        parts = []
        if self.include_title:
            parts.append("title")
        if self.include_source:
            parts.append("source")
        if self.include_description:
            parts.append("desc")
        return "-".join(parts)

    @classmethod
    def from_key(cls, key: str) -> "FieldConfig":
        parts = set(key.split("-"))
        known = {"title", "source", "desc"}
        unknown = parts - known
        if unknown:
            raise ValueError(f"unknown field name(s) in {key!r}: {sorted(unknown)}")
        return cls(
            include_title="title" in parts,
            include_source="source" in parts,
            include_description="desc" in parts,
        )


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


def _field_values(item: ContentItem, config: FieldConfig) -> list[tuple[str, str]]:
    """(name, value) of each configured, non-empty field, in the fixed
    order Title/Source/Description."""
    fields = (
        ("Title", config.include_title, item.title),
        ("Source", config.include_source, item.source),
        ("Description", config.include_description, item.description),
    )
    return [(name, value) for name, included, value in fields if included and value]


def render_fields_text(item: ContentItem, config: FieldConfig) -> str:
    """Plain text of the configured field values, for embedding.

    Uses the raw values joined by newlines (no "Title:" labels); the
    fields embedded always match the fields prompted.
    """
    values = [value for _, value in _field_values(item, config)]
    if not values:
        raise PromptError(f"item {item.id!r} has none of the configured fields")
    return "\n".join(values)


def render_block(item: ContentItem, config: FieldConfig, with_label: bool) -> str:
    """One demonstration or query block.

    Fields render in the order of :func:`_field_values`; a missing field
    omits its line entirely rather than rendering a blank value.
    """
    lines = [f"{name}: {value}" for name, value in _field_values(item, config)]
    if with_label:
        if item.label is None:
            raise PromptError(f"demonstration item {item.id!r} has no gold label")
        lines.append(f"Ideology: {item.label.display}")
    return "\n".join(lines)


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully rendered prompt; the query block never carries a gold label."""

    instruction: str
    demo_blocks: tuple[str, ...]
    query_block: str
    cot: bool = False

    @property
    def text(self) -> str:
        """Single flat prompt: instruction then blocks, blank-line separated."""
        return "\n\n".join((self.instruction, *self.demo_blocks, self.query_block))

    def as_messages(self, chat_turns: bool = False) -> list[dict]:
        """Chat-completion messages.

        Default is one flat user message. ``chat_turns`` instead emits a
        system instruction and one user/assistant exchange per
        demonstration, with the label line as the assistant's reply.
        """
        if not chat_turns:
            return [{"role": "user", "content": self.text}]
        messages = [{"role": "system", "content": self.instruction}]
        for block in self.demo_blocks:
            body, _, label_line = block.rpartition("\n")
            if not body:  # block is the label line alone
                body, label_line = label_line, ""
            messages.append({"role": "user", "content": body})
            if label_line:
                messages.append({"role": "assistant", "content": label_line})
        messages.append({"role": "user", "content": self.query_block})
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
    blocks = []
    for member in demos.members:
        try:
            demo = demo_items[member.item_id]
        except KeyError:
            raise PromptError(f"demonstration id {member.item_id!r} not resolvable") from None
        blocks.append(render_block(demo, config, with_label=True))
    query_block = render_block(item, config, with_label=False)
    if not query_block:
        raise PromptError(f"query {item.id!r} has none of the configured fields")
    return RenderedPrompt(
        instruction=instruction_for(config, cot),
        demo_blocks=tuple(blocks),
        query_block=query_block,
        cot=cot,
    )
