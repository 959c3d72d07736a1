"""Cross-validation fold planning over a vendor-keyed volume inventory.

Volumes are split per vendor so every fold tests on a matching mix of
scanners.  Each vendor's ids are shuffled by a seed-derived stream of their
own, then cut into k chunks front to back: every chunk takes
``ceil(n / k)`` ids except that later chunks shrink so none ends up empty.
22 ids at k=3 therefore test as (8, 8, 6).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from ..volume_io import write_files


def _vendor_stream(seed: int, vendor: str) -> np.random.Generator:
    # stable per-vendor stream: adding or removing a vendor leaves the others alone
    digest = hashlib.sha256(vendor.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little")]))


def _chunk_sizes(n: int, k: int) -> list[int]:
    base = math.ceil(n / k)
    sizes = []
    remaining = n
    for i in range(k):
        take = min(base, remaining - (k - i - 1))
        sizes.append(take)
        remaining -= take
    return sizes


@dataclass(frozen=True)
class FoldPlan:
    """k test partitions, stored per vendor; train is everything not in test."""

    k: int
    seed: int
    test_sets: tuple[dict[str, tuple[str, ...]], ...]

    def test_ids(self, fold: int) -> tuple[str, ...]:
        per_vendor = self.test_sets[fold]
        return tuple(vid for vendor in sorted(per_vendor) for vid in per_vendor[vendor])

    def train_ids(self, fold: int) -> tuple[str, ...]:
        held_out = set(self.test_ids(fold))
        return tuple(vid for vid in self.all_ids() if vid not in held_out)

    def all_ids(self) -> tuple[str, ...]:
        seen = []
        for fold_sets in self.test_sets:
            for vendor in sorted(fold_sets):
                seen.extend(fold_sets[vendor])
        return tuple(sorted(seen))


def make_folds(inventory: dict[str, list[str]], k: int, seed: int) -> FoldPlan:
    """Plan k folds over ``{vendor: [volume ids]}``.

    Every id lands in exactly one test set; within a vendor the test chunks
    partition the ids.  Vendors with fewer than k volumes cannot fill every
    fold and are rejected.
    """
    if k < 2:
        raise ValidationError(f"cross-validation needs k >= 2, got {k}")
    flat = [vid for ids in inventory.values() for vid in ids]
    if len(set(flat)) != len(flat):
        dupes = sorted({v for v in flat if flat.count(v) > 1})
        raise ValidationError(f"duplicate volume ids in inventory: {dupes}")
    test_sets: list[dict[str, tuple[str, ...]]] = [{} for _ in range(k)]
    for vendor in sorted(inventory):
        ids = sorted(inventory[vendor])
        if len(ids) < k:
            raise ValidationError(
                f"vendor '{vendor}' has {len(ids)} volumes, fewer than k={k}"
            )
        order = _vendor_stream(seed, vendor).permutation(len(ids))
        shuffled = [ids[i] for i in order]
        start = 0
        for fold, size in enumerate(_chunk_sizes(len(ids), k)):
            test_sets[fold][vendor] = tuple(shuffled[start : start + size])
            start += size
    return FoldPlan(k=k, seed=int(seed), test_sets=tuple(test_sets))


def save_folds(plan: FoldPlan, path: str | Path) -> None:
    """Record ``plan`` as JSON; a run re-plans its folds rather than read this."""
    payload = {
        "k": plan.k,
        "seed": plan.seed,
        "folds": [
            {vendor: list(ids) for vendor, ids in sorted(fold_sets.items())}
            for fold_sets in plan.test_sets
        ],
    }
    write_files((path, json.dumps(payload, indent=2, sort_keys=True) + "\n"))

