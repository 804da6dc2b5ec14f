import json
import math

import pytest
from hypothesis import given, strategies as st

from ideolab.corpus import (
    ContentItem,
    DatasetError,
    Ideology,
    LabelMapping,
    SourceIdeologyMap,
    _write_jsonl,
    filter_subset,
    load_dataset,
    map_label,
    misleading_slice,
    normalize_source,
    write_dataset,
)

YT = LabelMapping.for_scheme("youtube_slant")
AF = LabelMapping.for_scheme("adfontes")


class TestMapLabel:
    def test_youtube_liberal(self):
        assert map_label(-0.5, YT) is Ideology.LIBERAL

    def test_youtube_midpoint_neutral(self):
        assert map_label(0.0, YT) is Ideology.NEUTRAL

    def test_adfontes_conservative(self):
        assert map_label(20.0, AF) is Ideology.CONSERVATIVE

    def test_cutoffs_inclusive_toward_extremes(self):
        assert map_label(-0.33, YT) is Ideology.LIBERAL
        assert map_label(0.33, YT) is Ideology.CONSERVATIVE
        assert map_label(-13.999, AF) is Ideology.NEUTRAL
        assert map_label(-14.0, AF) is Ideology.LIBERAL
        assert map_label(14.0, AF) is Ideology.CONSERVATIVE

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                map_label(bad, YT)

    def test_direct_scheme_rejected(self):
        with pytest.raises(ValueError):
            map_label(0.0, LabelMapping.for_scheme("direct"))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown label scheme: 'nope'"):
            LabelMapping.for_scheme("nope")

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert map_label(lo, AF) <= map_label(hi, AF)


class TestIdeology:
    def test_total_order(self):
        assert Ideology.LIBERAL < Ideology.NEUTRAL < Ideology.CONSERVATIVE

    def test_string_round_trip(self):
        for label in Ideology:
            assert Ideology.from_string(label.wire) is label
            assert Ideology.from_string(label.display) is label

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            Ideology.from_string("centrist")

    @pytest.mark.parametrize("value", [5, None, ["liberal"]])
    def test_label_that_is_not_a_string(self, value):
        with pytest.raises(ValueError, match="unknown ideology label"):
            Ideology.from_string(value)


class TestLoadDataset:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        return path

    def test_score_mapped_to_label(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"a","title":"t","score":-0.5}'])
        items = load_dataset(path, YT)
        assert len(items) == 1
        assert items[0].label is Ideology.LIBERAL
        assert items[0].raw_score == -0.5

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path, YT) == []

    def test_duplicate_id_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"id":"a","title":"t","score":0.0}', '{"id":"a","title":"u","score":0.1}'],
        )
        with pytest.raises(DatasetError, match="line 2.*duplicate id"):
            load_dataset(path, YT)

    def test_malformed_json_names_line(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"a","title":"t","score":0.0}', "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path, YT)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_at_any_newline(self, tmp_path, newline):
        path = tmp_path / "data.jsonl"
        rows = ['{"id":"a","title":"t","score":0.0}', '{"id":"b","title":"u","score":0.1}', "{not json"]
        path.write_bytes(newline.join(rows).encode("utf-8"))
        with pytest.raises(DatasetError, match=f"^{path}: line 3: malformed JSON"):
            load_dataset(path, YT)

    def test_missing_title(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"a","score":0.0}'])
        with pytest.raises(DatasetError, match="title"):
            load_dataset(path, YT)

    def test_neither_label_nor_score(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"a","title":"t"}'])
        with pytest.raises(DatasetError, match="neither label nor score"):
            load_dataset(path, YT)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ('{"id":"b","score":0.1}', "missing title for id 'b'"),
            ('{"id":"b","title":"u","label":5}', "label must be a string or null, got 5"),
            ('{"id":"b","title":"u","score":"0.1"}', 'score must be a number or null, got "0.1"'),
            ('{"id":"b","title":"u","score":true}', "score must be a number or null, got true"),
            ('{"id":"b","title":"u","score":0.1,"source":5}', "source must be a string or null, got 5"),
            ('{"id":"b","title":"u","score":0.1,"description":["d"]}', 'description must be a string or null, got ["d"]'),
            ('{"id":"b","title":"u","score":0.1,"flags":[]}', "flags must be an object or null, got []"),
            (
                '{"id":"b","title":"u","score":0.1,"flags":{"political":"yes"}}',
                'flags.political must be a boolean or null, got "yes"',
            ),
            (
                '{"id":"b","title":"u","score":0.1,"flags":{"news_channel":3}}',
                "flags.news_channel must be a boolean or null, got 3",
            ),
            ('{"id":"a","title":"u","score":0.1}', "duplicate id 'a' (first seen at line 1)"),
            ('{"id":"b","title":"caf\udce9","score":0.1}', "not UTF-8 at byte 22 (invalid continuation byte)"),
        ],
        ids=[
            "title", "label", "score", "score_bool", "source", "description", "flags", "political", "news_channel",
            "duplicate", "not_utf8",
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, bad, message):
        path = self.write(tmp_path, ['{"id":"a","title":"t","score":0.0}', bad])
        with pytest.raises(DatasetError) as info:
            load_dataset(path, YT)
        assert str(info.value) == f"{path}: line 2: {message}"

    def test_explicit_label_wins_over_score(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"a","title":"t","label":"conservative","score":-0.9}'])
        items = load_dataset(path, YT)
        assert items[0].label is Ideology.CONSERVATIVE

    def test_flags_parsed(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"id":"a","title":"t","label":"neutral","flags":{"political":true,"news_channel":false}}'],
        )
        item = load_dataset(path, LabelMapping.for_scheme("direct"))[0]
        assert item.political is True
        assert item.news_channel is False

    def test_order_preserved_and_round_trip(self, tmp_path):
        items = [
            ContentItem(id=f"i{n}", title=f"title {n}", label=Ideology(n % 3), raw_score=None)
            for n in range(7)
        ]
        out = tmp_path / "rt.jsonl"
        write_dataset(items, out)
        loaded = load_dataset(out, LabelMapping.for_scheme("direct"))
        assert [it.id for it in loaded] == [it.id for it in items]
        assert [it.label for it in loaded] == [it.label for it in items]


class TestFilterSubset:
    def items(self):
        return [
            ContentItem(id="a", title="t", label=Ideology.NEUTRAL, political=True, news_channel=True),
            ContentItem(id="b", title="t", label=Ideology.NEUTRAL, political=True, news_channel=False),
            ContentItem(id="c", title="t", label=Ideology.NEUTRAL, political=False, news_channel=True),
            ContentItem(id="d", title="t", label=Ideology.NEUTRAL),
        ]

    def test_no_criteria_is_identity(self):
        items = self.items()
        result = filter_subset(items)
        assert result.items == items
        assert result.skipped == 0

    def test_political_news_slice(self):
        result = filter_subset(self.items(), political=True, news_channel=True)
        assert [it.id for it in result.items] == ["a"]
        assert result.skipped == 1  # item d lacks both flags

    def test_all_missing_flags(self):
        items = [ContentItem(id=str(n), title="t") for n in range(5)]
        result = filter_subset(items, political=True)
        assert result.items == []
        assert result.skipped == 5

    def test_subset_and_idempotent(self):
        items = self.items()
        once = filter_subset(items, political=True)
        assert all(it in items for it in once.items)
        twice = filter_subset(once.items, political=True)
        assert twice.items == once.items


class TestSourceMap:
    def test_normalization(self):
        assert normalize_source("  Fox   News ") == "fox news"

    def test_lookup_case_insensitive(self):
        src_map = SourceIdeologyMap.from_dict({"CNN": "liberal", "Fox News": "conservative"})
        assert src_map.lookup("cnn") is Ideology.LIBERAL
        assert src_map.lookup("FOX  news") is Ideology.CONSERVATIVE
        assert src_map.lookup("BlogX") is None
        assert src_map.lookup(None) is None

    def test_load(self, tmp_path):
        path = tmp_path / "sources.json"
        path.write_text(json.dumps({"MSNBC": "liberal"}), encoding="utf-8")
        assert SourceIdeologyMap.load(path).lookup("msnbc") is Ideology.LIBERAL

    @pytest.mark.parametrize("text", ['{"MSNBC": "lib', '["MSNBC"]', '{"MSNBC": "caf\udce9"}'])
    def test_malformed_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "sources.json"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(DatasetError, match=f"^{path}: "):
            SourceIdeologyMap.load(path)


class TestWriteJsonl:
    def test_rows_with_a_header(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        _write_jsonl(path, {"kind": "x"}, [{"b": 1, "a": 2}])
        assert path.read_bytes() == b'{"kind": "x"}\n{"a": 2, "b": 1}\n'

    def test_failed_write_leaves_the_old_file_or_none(self, tmp_path):
        def rows():
            yield {"a": 3}
            raise OSError("No space left on device")

        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        _write_jsonl(old, {"kind": "x"}, [{"a": 1}, {"a": 2}])
        before = old.read_bytes()
        for path in (old, new):
            with pytest.raises(OSError, match="No space left"):
                _write_jsonl(path, {"kind": "x"}, rows())
        assert old.read_bytes() == before
        assert list(tmp_path.iterdir()) == [old]


class TestMisleadingSlice:
    def setup_method(self):
        self.src_map = SourceIdeologyMap.from_dict({"CNN": "liberal", "Newsmax": "conservative"})
        self.items = [
            ContentItem(id="a", title="t", source="CNN", label=Ideology.NEUTRAL),
            ContentItem(id="b", title="t", source="CNN", label=Ideology.LIBERAL),
            ContentItem(id="c", title="t", source="CNN", label=Ideology.CONSERVATIVE),
            ContentItem(id="d", title="t", source="Newsmax", label=Ideology.LIBERAL),
            ContentItem(id="e", title="t", source="BlogX", label=Ideology.NEUTRAL),
            ContentItem(id="f", title="t", source=None, label=Ideology.NEUTRAL),
        ]

    def test_liberal_sources_side(self):
        picked = misleading_slice(self.items, self.src_map, "liberal_sources")
        assert [it.id for it in picked] == ["a", "c"]

    def test_conservative_sources_side(self):
        picked = misleading_slice(self.items, self.src_map, "conservative_sources")
        assert [it.id for it in picked] == ["d"]

    def test_sides_disjoint(self):
        lib = {it.id for it in misleading_slice(self.items, self.src_map, "liberal_sources")}
        con = {it.id for it in misleading_slice(self.items, self.src_map, "conservative_sources")}
        assert lib & con == set()

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            misleading_slice(self.items, self.src_map, "moderate_sources")
