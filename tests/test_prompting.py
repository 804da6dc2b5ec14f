import json

import pytest

from ideolab.corpus import ContentItem, Ideology
from ideolab.prompting import (
    FieldConfig,
    PromptError,
    instruction_for,
    render,
    render_block,
    render_fields_text,
)
from ideolab.selection import Demonstration, DemonstrationSet

from conftest import DATA_DIR

TITLE_ONLY = (
    "Classify the following news article titles as ideologically liberal, "
    "neutral, or conservative. Titles with no ideological content are "
    "classified as neutral. Only respond with the final answer."
)


def demo_fixtures():
    items = {
        "d1": ContentItem(
            id="d1",
            title="Senate passes sweeping climate package",
            source="Greenfield Tribune",
            description="Lawmakers voted along party lines late Friday.",
            label=Ideology.LIBERAL,
        ),
        "d2": ContentItem(
            id="d2",
            title="Tax cuts fuel record small business growth",
            source="Liberty Standard",
            description="Owners credit the new policy for hiring plans.",
            label=Ideology.CONSERVATIVE,
        ),
        "d3": ContentItem(
            id="d3",
            title="City council approves new bus routes",
            source="Metro Daily",
            label=Ideology.NEUTRAL,
        ),
    }
    demos = DemonstrationSet(
        query_id="q1",
        members=[
            Demonstration("d1", Ideology.LIBERAL, 1),
            Demonstration("d2", Ideology.CONSERVATIVE, 2),
            Demonstration("d3", Ideology.NEUTRAL, 3),
        ],
        k_requested=3,
    )
    query = ContentItem(
        id="q1",
        title="Governor signs budget after late-night session",
        source="Capitol Wire",
        description="The spending plan passed both chambers.",
        label=Ideology.NEUTRAL,
    )
    return items, demos, query


class TestFieldConfig:
    def test_keys_round_trip(self):
        for key in ("title", "title-source", "title-desc", "title-source-desc"):
            assert FieldConfig.from_key(key).key() == key

    def test_at_least_one_field(self):
        with pytest.raises(ValueError):
            FieldConfig(False, False, False)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            FieldConfig.from_key("title-thumbnail")


class TestInstruction:
    def test_title_only_verbatim(self):
        assert instruction_for(FieldConfig()) == TITLE_ONLY

    def test_source_sentence_inserted(self):
        text = instruction_for(FieldConfig(include_source=True))
        assert "The news source is also specified for additional context." in text
        assert text.endswith("Only respond with the final answer.")

    def test_description_sentence_inserted(self):
        text = instruction_for(FieldConfig(include_description=True))
        assert "The news description is also specified for additional context." in text

    def test_both_sentences_source_first(self):
        text = instruction_for(FieldConfig(include_source=True, include_description=True))
        src = text.index("The news source is also specified")
        desc = text.index("The news description is also specified")
        assert src < desc

    def test_cot_swaps_final_sentence(self):
        text = instruction_for(FieldConfig(), cot=True)
        assert "Only respond with the final answer." not in text
        assert "step-by-step" in text
        assert "Answer:" in text


class TestRender:
    def test_zero_shot_shape(self):
        items, _, query = demo_fixtures()
        empty = DemonstrationSet(query_id="q1", members=[], k_requested=0)
        prompt = render(query, empty, items, FieldConfig())
        assert prompt.demo_blocks == ()
        assert prompt.text == TITLE_ONLY + "\n\nTitle: " + query.title

    def test_block_labels(self):
        items, demos, query = demo_fixtures()
        prompt = render(query, demos, items, FieldConfig())
        assert len(prompt.demo_blocks) == 3
        assert prompt.demo_blocks[0].endswith("Ideology: Liberal")
        assert prompt.demo_blocks[1].endswith("Ideology: Conservative")
        assert prompt.demo_blocks[2].endswith("Ideology: Neutral")

    def test_golden_title_source_k3(self):
        items, demos, query = demo_fixtures()
        prompt = render(query, demos, items, FieldConfig(include_source=True))
        golden = (DATA_DIR / "golden_prompt_title_source_k3.txt").read_text(encoding="utf-8")
        assert prompt.text + "\n" == golden

    def test_golden_chat_turns_title_source_k3(self):
        items, demos, query = demo_fixtures()
        prompt = render(query, demos, items, FieldConfig(include_source=True))
        golden = (DATA_DIR / "golden_messages_title_source_k3.json").read_text(encoding="utf-8")
        assert prompt.as_messages(chat_turns=True) == json.loads(golden)

    def test_gold_label_never_in_query_block(self):
        items, demos, query = demo_fixtures()
        for key in ("title", "title-source", "title-source-desc"):
            prompt = render(query, demos, items, FieldConfig.from_key(key))
            assert "Ideology" not in prompt.query_block
            assert prompt.query_block.count("\n") <= 2

    def test_missing_demo_field_omits_line(self):
        items, demos, query = demo_fixtures()
        # d3 has no description; its block must omit the line, not blank it
        prompt = render(query, demos, items, FieldConfig(include_description=True))
        assert "Description: Lawmakers voted" in prompt.demo_blocks[0]
        assert "Description:" not in prompt.demo_blocks[2]

    def test_query_missing_all_fields_errors(self):
        items, demos, _ = demo_fixtures()
        bare = ContentItem(id="q2", title="Some title", label=Ideology.NEUTRAL)
        with pytest.raises(PromptError):
            render(bare, demos, items, FieldConfig(include_title=False, include_source=True))

    def test_demo_missing_all_fields_errors(self):
        items, demos, query = demo_fixtures()
        # d3 has no description, so it would render as its label line alone
        with pytest.raises(PromptError, match="'d3' has none of the configured fields"):
            render(query, demos, items, FieldConfig(include_title=False, include_description=True))

    def test_unresolvable_demo_id(self):
        items, demos, query = demo_fixtures()
        del items["d2"]
        with pytest.raises(PromptError, match="d2"):
            render(query, demos, items, FieldConfig())

    def test_demo_without_label_errors(self):
        items, demos, query = demo_fixtures()
        items["d1"].label = None
        with pytest.raises(PromptError, match="gold label"):
            render(query, demos, items, FieldConfig())

    def test_deterministic_bytes(self):
        items, demos, query = demo_fixtures()
        config = FieldConfig(include_source=True, include_description=True)
        assert render(query, demos, items, config).text == render(query, demos, items, config).text

    def test_demo_count_matches_members(self):
        items, demos, query = demo_fixtures()
        for take in range(4):
            sub = DemonstrationSet(query_id="q1", members=demos.members[:take], k_requested=take)
            prompt = render(query, sub, items, FieldConfig())
            assert len(prompt.demo_blocks) == take
            assert prompt.text.count("Ideology: ") == take

    def test_chat_turns_structure(self):
        items, demos, query = demo_fixtures()
        prompt = render(query, demos, items, FieldConfig(include_source=True))
        messages = prompt.as_messages(chat_turns=True)
        assert messages[0]["role"] == "system"
        assert messages[1]["role"] == "user"
        assert messages[2] == {"role": "assistant", "content": "Ideology: Liberal"}
        assert messages[-1]["role"] == "user"
        assert "Ideology" not in messages[-1]["content"]

    def test_flat_messages(self):
        items, demos, query = demo_fixtures()
        prompt = render(query, demos, items, FieldConfig())
        assert prompt.as_messages() == [{"role": "user", "content": prompt.text}]


class TestFieldsText:
    def test_configured_fields_joined(self):
        items, _, query = demo_fixtures()
        text = render_fields_text(query, FieldConfig(include_source=True))
        assert text == f"{query.title}\n{query.source}"

    def test_no_fields_errors(self):
        bare = ContentItem(id="x", title="t")
        with pytest.raises(PromptError):
            render_fields_text(bare, FieldConfig(include_title=False, include_description=True))


def test_render_block_source_only_demo():
    item = ContentItem(id="d", title="t", source="Wire", label=Ideology.NEUTRAL)
    block = render_block(item, FieldConfig(include_title=False, include_source=True), with_label=True)
    assert block.text == "Source: Wire\nIdeology: Neutral"
