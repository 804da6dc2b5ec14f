"""Dataset ingestion, label mapping, subset slicing, and JSON/JSONL artifact I/O.

Datasets are JSONL files with one content item per line:

    {"id": "abc", "title": "...", "source": "...", "description": "...",
     "label": "liberal"|"neutral"|"conservative"|null, "score": -0.5,
     "flags": {"political": true, "news_channel": false}}

Items carry either a gold label, a raw score on the dataset's native
scale (converted through a :class:`LabelMapping`), or both.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional


class DatasetError(ValueError):
    """Raised when a dataset file or record violates the input contract."""


class Ideology(enum.IntEnum):
    """Three-way ideology label.

    The integer values define the total order Liberal < Neutral <
    Conservative used for deterministic tie-breaking and for confusion
    matrix indexing.
    """

    LIBERAL = 0
    NEUTRAL = 1
    CONSERVATIVE = 2

    @classmethod
    def from_string(cls, value: str) -> "Ideology":
        name = value.strip().upper() if isinstance(value, str) else None
        if name not in cls.__members__:
            raise ValueError(f"unknown ideology label: {value!r}")
        return cls[name]

    @property
    def wire(self) -> str:
        """Lowercase form used in JSON artifacts ("liberal")."""
        return self.name.lower()

    @property
    def display(self) -> str:
        """Capitalized form used in prompts ("Liberal")."""
        return self.name.capitalize()


IDEOLOGIES = (Ideology.LIBERAL, Ideology.NEUTRAL, Ideology.CONSERVATIVE)


@dataclass
class ContentItem:
    """One classifiable unit: a video, news article, or post."""

    id: str
    title: str
    source: Optional[str] = None
    description: Optional[str] = None
    label: Optional[Ideology] = None
    raw_score: Optional[float] = None
    political: Optional[bool] = None
    news_channel: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "source": self.source,
            "description": self.description,
            "label": self.label.wire if self.label is not None else None,
            "score": self.raw_score,
            "flags": {"political": self.political, "news_channel": self.news_channel},
        }


@dataclass(frozen=True)
class LabelMapping:
    """Maps a dataset's native score scale onto the three labels.

    ``direct`` datasets ship labels instead of scores and ignore the
    cutoffs entirely.
    """

    scheme: str
    lo_cutoff: float = 0.0
    hi_cutoff: float = 0.0

    # scheme -> (lo_cutoff, hi_cutoff); the one list of known schemes
    CUTOFFS = {"youtube_slant": (-0.33, 0.33), "adfontes": (-14.0, 14.0), "direct": (0.0, 0.0)}

    def __post_init__(self) -> None:
        if self.scheme not in self.CUTOFFS:
            raise ValueError(f"unknown label scheme: {self.scheme!r}")
        if self.scheme != "direct" and not self.lo_cutoff < self.hi_cutoff:
            raise ValueError("lo_cutoff must be strictly below hi_cutoff")

    @classmethod
    def for_scheme(cls, scheme: str) -> "LabelMapping":
        if scheme not in cls.CUTOFFS:
            raise ValueError(f"unknown label scheme: {scheme!r}")
        return cls(scheme, *cls.CUTOFFS[scheme])


def map_label(raw_score: float, mapping: LabelMapping) -> Ideology:
    """Convert a raw score to a label.

    Cutoffs are inclusive toward the extreme labels: score <= lo_cutoff
    is Liberal and score >= hi_cutoff is Conservative, so an item sitting
    exactly on a cutoff classifies stably.
    """
    if mapping.scheme == "direct":
        raise ValueError("direct scheme carries labels; map_label does not apply")
    if not math.isfinite(raw_score):
        raise ValueError(f"raw score must be finite, got {raw_score!r}")
    if raw_score <= mapping.lo_cutoff:
        return Ideology.LIBERAL
    if raw_score >= mapping.hi_cutoff:
        return Ideology.CONSERVATIVE
    return Ideology.NEUTRAL


def _json_object(data: bytes, where: str, error: type[Exception]) -> dict:
    """Parse UTF-8 ``data`` as one JSON object; anything else raises ``error``
    prefixed with ``where``."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 at byte {exc.start} ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{where}: malformed JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    return obj


def _typed(value, kind: type, name: str, optional: bool = False):
    """``value`` unchanged if its JSON type is ``kind``: an integer stands for a number, true and
    false are never numbers, and null passes only if ``optional``. Else raise ``ValueError``."""
    if value is None and optional:
        return value
    kinds = (int, float) if kind is float else kind
    if isinstance(value, kinds) and isinstance(value, bool) == (kind is bool):
        return value
    wanted = {str: "a string", int: "a JSON integer", float: "a number", bool: "a boolean", dict: "an object"}
    or_null = " or null" if optional else ""
    raise ValueError(f"{name} must be {wanted[kind]}{or_null}, got {json.dumps(value, default=repr)}")


def _read_jsonl(
    path, error: type[Exception], parse: Callable[[dict, int], object], header: Optional[Callable] = None
) -> tuple[Optional[dict], list]:
    """(header or None, rows) of a JSONL file. ``header``, when given, checks the
    first nonblank line; ``parse(obj, lineno)`` makes a row of each other one.
    A line that is not a JSON object, or whose check or parse raises KeyError,
    TypeError or ValueError, raises ``error("<path>: line <n>: ...")``."""
    head, rows = None, []
    # text mode ends a line at \n, \r\n or \r; surrogateescape keeps the bytes
    # of a line that is not UTF-8, so that _json_object names its line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            obj = _json_object(line.encode("utf-8", "surrogateescape"), where, error)
            try:
                if header is not None and head is None:
                    header(obj)
                    head = obj
                else:
                    rows.append(parse(obj, lineno))
            except KeyError as exc:
                raise error(f"{where}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise error(f"{where}: {exc}") from None
    return head, rows


def _replace_file(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to a temporary file beside ``path``,
    then rename it over ``path``: a run killed mid-write leaves the old file
    or none, never part of one. If anything raises, the temporary file is
    removed. There is no fsync, so this does not survive a power loss."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_jsonl(path, header: Optional[dict], rows: Iterable[dict]) -> None:
    """Replace ``path`` with an optional header line, then one line per row; keys sorted."""
    objs = itertools.chain([] if header is None else [header], rows)
    _replace_file(path, (json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n" for obj in objs))


def _write_json(path, obj) -> None:
    """Replace ``path`` with ``obj`` as indented JSON, keys sorted, and a final newline."""
    _replace_file(path, [json.dumps(obj, sort_keys=True, indent=2).encode("utf-8") + b"\n"])


def _first_seen(item_id: str, lineno: int, seen: dict[str, int]) -> None:
    """Record ``item_id`` as read on line ``lineno``; raise if an earlier line had it."""
    if seen.setdefault(item_id, lineno) != lineno:
        raise ValueError(f"duplicate id {item_id!r} (first seen at line {seen[item_id]})")


def _parse_item(obj: dict, lineno: int, schema: LabelMapping, seen: dict[str, int]) -> ContentItem:
    """The item on line ``lineno``; ``seen`` maps each id read so far to its line."""
    item_id = obj.get("id")
    if item_id is None or not _typed(item_id, str, "id"):
        raise DatasetError("missing or empty id")
    _first_seen(item_id, lineno, seen)
    title = obj.get("title")
    if title is None or not _typed(title, str, "title").strip():
        raise DatasetError(f"missing title for id {item_id!r}")
    label = _typed(obj.get("label"), str, "label", optional=True)
    label = None if label is None else Ideology.from_string(label)
    score = _typed(obj.get("score"), float, "score", optional=True)
    score = None if score is None else float(score)
    if label is None and score is None:
        raise DatasetError(f"item {item_id!r} has neither label nor score")
    if label is None and score is not None and schema.scheme != "direct":
        label = map_label(score, schema)

    flags = _typed(obj.get("flags"), dict, "flags", optional=True) or {}
    return ContentItem(
        id=item_id,
        title=title,
        source=_typed(obj.get("source"), str, "source", optional=True),
        description=_typed(obj.get("description"), str, "description", optional=True),
        label=label,
        raw_score=score,
        political=_typed(flags.get("political"), bool, "flags.political", optional=True),
        news_channel=_typed(flags.get("news_channel"), bool, "flags.news_channel", optional=True),
    )


def load_dataset(path, schema: LabelMapping) -> list[ContentItem]:
    """Load a JSONL dataset, labeling scored items through ``schema``.

    Order-preserving and deterministic. Malformed lines, duplicate ids,
    and missing titles abort with the file and the offending line number.
    """
    seen: dict[str, int] = {}
    return _read_jsonl(path, DatasetError, lambda obj, lineno: _parse_item(obj, lineno, schema, seen))[1]


def write_dataset(items: Iterable[ContentItem], path) -> None:
    """Write items as dataset JSONL (inverse of :func:`load_dataset`)."""
    _write_jsonl(path, None, (item.to_json_dict() for item in items))


class FilterResult(NamedTuple):
    items: list[ContentItem]
    skipped: int


def filter_subset(
    items: Iterable[ContentItem],
    political: Optional[bool] = None,
    news_channel: Optional[bool] = None,
) -> FilterResult:
    """Keep items matching every non-null flag criterion.

    Items lacking a required flag are excluded and counted in the skip
    tally rather than raising: real datasets are partially annotated.
    """
    kept: list[ContentItem] = []
    skipped = 0
    for item in items:
        missing = (political is not None and item.political is None) or (
            news_channel is not None and item.news_channel is None
        )
        if missing:
            skipped += 1
            continue
        if political is not None and item.political != political:
            continue
        if news_channel is not None and item.news_channel != news_channel:
            continue
        kept.append(item)
    return FilterResult(kept, skipped)


def normalize_source(name: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return re.sub(r"\s+", " ", name.strip()).lower()


@dataclass
class SourceIdeologyMap:
    """Source name -> ideology lookup with case-insensitive matching.

    Unknown sources resolve to None, never to a default ideology.
    """

    entries: dict[str, Ideology] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "SourceIdeologyMap":
        entries = {}
        for name, value in raw.items():
            entries[normalize_source(name)] = Ideology.from_string(value)
        return cls(entries)

    @classmethod
    def load(cls, path) -> "SourceIdeologyMap":
        return cls.from_dict(_json_object(Path(path).read_bytes(), str(path), DatasetError))

    def lookup(self, source: Optional[str]) -> Optional[Ideology]:
        if source is None:
            return None
        return self.entries.get(normalize_source(source))


MISLEADING_SIDES = ("liberal_sources", "conservative_sources")


def misleading_slice(
    items: Iterable[ContentItem],
    src_map: SourceIdeologyMap,
    side: str,
) -> list[ContentItem]:
    """Items whose gold label conflicts with their source's known ideology.

    ``liberal_sources`` selects neutral/conservative items published by
    liberal sources; ``conservative_sources`` is symmetric. Items with
    unknown or missing sources or labels are skipped.
    """
    if side not in MISLEADING_SIDES:
        raise ValueError(f"side must be one of {MISLEADING_SIDES}, got {side!r}")
    source_side = Ideology.LIBERAL if side == "liberal_sources" else Ideology.CONSERVATIVE
    out = []
    for item in items:
        if item.label is None:
            continue
        src = src_map.lookup(item.source)
        if src != source_side:
            continue
        if item.label != source_side:
            out.append(item)
    return out
