"""Run configuration: one serializable object per experiment run.

The config hash is a stable digest of the canonical JSON serialization,
excluding the settings that cannot change a deterministic result: the
output directory (so re-running the same experiment into a different
directory yields byte-identical artifacts), the embedding cache directory,
the LLM concurrency and the request timeout. ``max_retries`` stays hashed,
because another retry can turn a transport error into a prediction. Every
artifact a subcommand writes embeds the hash that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import _json_object, _typed
from .prompting import FieldConfig

HASH_EXCLUDED_FIELDS = ("out", "cache_dir", "max_in_flight", "timeout")


@dataclass
class RunConfig:
    dataset: str = ""  # the set being classified (test/query items)
    train_dataset: str = ""  # demonstration source for pool building
    label_scheme: str = "direct"  # youtube_slant | adfontes | direct
    fields: str = "title"  # title | title-source | title-desc | title-source-desc
    k: int = 0
    select: str = "balanced"  # balanced | random
    order: str = "set-bsr"  # set-bsr | bsr
    pool_size: int = 0  # 0 means |train|
    probe_size: int = 2000
    pool_file: str = ""  # default resolves to <out>/pool.jsonl at run time
    seed: int = 0
    cot: bool = False
    chat_turns: bool = False
    mock: str = ""  # echo_majority | nearest_demo | fixed:<label> | "" for a live endpoint
    model_name: str = "gpt-4o"
    temperature: float = 0.0
    max_in_flight: int = 4
    max_retries: int = 3
    timeout: float = 30.0
    char_budget: int = 120_000
    embed_provider: str = "hashed"  # hashed | file:<path> | http(s)://<url>
    embed_dim: int = 64
    cache_dir: str = ""
    bootstrap_resamples: int = 1000
    out: str = "runs"

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            _typed(getattr(self, field.name), type(field.default), f"config key {field.name!r}")
        # one spelling per field set, so the same run never hashes two ways
        canonical = FieldConfig.from_key(self.fields).key()
        if canonical != self.fields:
            raise ValueError(f"config key 'fields' must be written {canonical!r}, got {self.fields!r}")
        # checked here, not only in evaluation.score, so ablate refuses it before any cell is written
        if self.bootstrap_resamples < 1:
            raise ValueError(f"bootstrap_resamples must be at least 1, got {self.bootstrap_resamples}")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hashed_dict(self) -> dict:
        d = self.to_json_dict()
        for key in HASH_EXCLUDED_FIELDS:
            d.pop(key, None)
        return d

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.hashed_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(_json_object(Path(path).read_bytes(), str(path), ValueError))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        return cls(**raw)

    def merged(self, overrides: dict) -> "RunConfig":
        """New config with non-None override values applied."""
        values = self.to_json_dict()
        values.update((key, value) for key, value in overrides.items() if value is not None)
        return self.from_dict(values)
