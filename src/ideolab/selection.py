"""Label-balanced demonstration selection over a coverage ordering, plus
the unconstrained random baseline.

Balance means at most floor(k/3) demonstrations per class, plus k mod 3
single extras granted in admission order, so per-class counts never
differ by more than one when the quota pass alone can satisfy k (for
k = 4 that realizes quotas (2, 1, 1), the extra going to whichever class
ranks first). If walking the full ordering leaves fewer than k members
because some class ran dry, a fill pass admits the highest-ranked skipped
entries regardless of class; that fallback is flagged so experiments can
exclude such queries. Only in that fallback case can a class exceed its
quota.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .corpus import Ideology
from .coverage import CandidatePool, QueryOrdering

logger = logging.getLogger(__name__)


class SelectionError(ValueError):
    """Raised for invalid selection parameters or unresolvable labels."""


@dataclass
class Demonstration:
    item_id: str
    label: Ideology
    rank: int  # 1-based rank in the ordering at admission time

    def to_json_dict(self) -> dict:
        return {"id": self.item_id, "label": self.label.wire, "rank": self.rank}


@dataclass
class DemonstrationSet:
    """The demonstrations chosen for one query, in admission order."""

    query_id: str
    members: list[Demonstration]
    k_requested: int
    skipped: list[Demonstration] = field(default_factory=list)
    fallback_used: bool = False

    def labels(self) -> list[Ideology]:
        return [m.label for m in self.members]

    def to_trace(self) -> dict:
        """Selection trace record, one JSONL line per query."""
        return {
            "query_id": self.query_id,
            "k": self.k_requested,
            "members": [m.to_json_dict() for m in self.members],
            "skipped": [s.to_json_dict() for s in self.skipped],
            "fallback_used": self.fallback_used,
        }


def balanced_select(
    ordering: QueryOrdering,
    labels: Mapping[str, Ideology],
    k: int,
) -> DemonstrationSet:
    """Walk the ranked ids admitting entries under the class quotas.

    Depends only on the rank order, never on the score values. Entries
    skipped by quota and never rescued by the fill pass are reported in
    ``skipped`` with the rank at which they were passed over.
    """
    if k < 0:
        raise SelectionError(f"k must be nonnegative, got {k}")
    if k > 0 and not ordering.item_ids:
        raise SelectionError("cannot select from an empty ordering")

    base, extras = divmod(k, 3)
    counts = {label: 0 for label in Ideology}
    members: list[Demonstration] = []
    skipped: list[Demonstration] = []

    for rank, item_id in enumerate(ordering.item_ids, start=1):
        if len(members) == k:
            break
        try:
            label = labels[item_id]
        except KeyError:
            raise SelectionError(f"no label for pool entry {item_id!r}") from None
        admit = counts[label] < base
        if not admit and counts[label] == base and extras > 0:
            admit = True
            extras -= 1
        if admit:
            counts[label] += 1
            members.append(Demonstration(item_id, label, rank))
        else:
            skipped.append(Demonstration(item_id, label, rank))

    fallback_used = len(members) < k
    if fallback_used:
        logger.info(
            "query %s: quota pass yielded %d of %d, filling from skipped entries",
            ordering.query_id,
            len(members),
            k,
        )
        still_skipped = []
        for entry in skipped:
            if len(members) < k:
                members.append(entry)
            else:
                still_skipped.append(entry)
        skipped = still_skipped

    return DemonstrationSet(
        query_id=ordering.query_id,
        members=members,
        k_requested=k,
        skipped=skipped,
        fallback_used=fallback_used,
    )


def random_select(
    pool: CandidatePool,
    k: int,
    seed: int,
    query_id: str = "",
) -> DemonstrationSet:
    """Uniform sample without replacement from the pool, no class constraint.

    The recorded rank is the 1-based pool position of each drawn entry.
    """
    if k < 0:
        raise SelectionError(f"k must be nonnegative, got {k}")
    if k > len(pool.entries):
        raise SelectionError(f"k={k} exceeds pool size {len(pool.entries)}")
    rng = np.random.default_rng(seed)
    drawn = rng.choice(len(pool.entries), size=k, replace=False)
    members = [
        Demonstration(pool.entries[int(i)].item_id, pool.entries[int(i)].label, int(i) + 1)
        for i in drawn
    ]
    return DemonstrationSet(query_id=query_id, members=members, k_requested=k)
