"""Group weights, the 15-combination knowledge spectrum, and the
single/double-feature relationship graph.

Combination values are additive in the group weights: K(S) is the sum
of the normalized weights of the groups in S.  This makes the full
combination maximal by construction and keeps every subset value in
[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .features import GROUPS, GROUP_MEMBER_INDEX

#: Canonical subset order: by size, then lexicographic in (L, V, B, D).
SUBSETS = tuple(
    "".join(c)
    for size in range(1, 5)
    for c in combinations(GROUPS, size)
)
assert len(SUBSETS) == 15

#: How far from 1 the sum of non-degenerate group weights may lie.
SUM_TOL = 1e-9


class DegenerateWeightsError(ValueError):
    """No member carried any importance; nothing learnable here."""


@dataclass(frozen=True)
class GroupWeights:
    w_L: float
    w_V: float
    w_B: float
    w_D: float

    @property
    def degenerate(self) -> bool:
        """No group carried any importance: all four weights are 0."""
        return self.w_L == self.w_V == self.w_B == self.w_D == 0.0

    @property
    def spectrum(self) -> KnowledgeSpectrum | None:
        """The spectrum built on these weights; None when they are degenerate."""
        return None if self.degenerate else spectrum(self)

    def as_dict(self) -> dict:
        return {"L": self.w_L, "V": self.w_V, "B": self.w_B, "D": self.w_D}

    def __getitem__(self, group: str) -> float:
        return self.as_dict()[group]


@dataclass(frozen=True)
class KnowledgeSpectrum:
    values: tuple  # K(S) for SUBSETS, in canonical order

    def value(self, subset: str) -> float:
        return self.values[SUBSETS.index(subset)]


@dataclass(frozen=True)
class RelationshipGraph:
    nodes: dict  # group -> K({group})
    edges: dict  # pair string (canonical order) -> K(pair)


def group_weights(importances) -> GroupWeights:
    """Sum the importances (one per member) over the fixed partition
    GROUP_MEMBER_INDEX and normalize to unit total; all 0 when none is > 0."""
    importances = np.asarray(importances, dtype=float)
    covered = sorted(i for idx in GROUP_MEMBER_INDEX.values() for i in idx)
    if covered != list(range(len(importances))):
        raise ValueError("group partition does not cover the importance vector")
    raw = {g: float(importances[list(idx)].sum()) for g, idx in GROUP_MEMBER_INDEX.items()}
    total = sum(raw.values())
    if total <= 0.0:
        return GroupWeights(0.0, 0.0, 0.0, 0.0)
    return GroupWeights(w_L=raw["L"] / total, w_V=raw["V"] / total,
                        w_B=raw["B"] / total, w_D=raw["D"] / total)


def spectrum(w: GroupWeights) -> KnowledgeSpectrum:
    """K(S) = sum of group weights over S, for all 15 nonempty subsets."""
    if w.degenerate:
        raise DegenerateWeightsError("no learnable knowledge at this position")
    values = tuple(float(sum(w[g] for g in s)) for s in SUBSETS)
    return KnowledgeSpectrum(values=values)


def build_graph(w: GroupWeights) -> RelationshipGraph:
    sp = spectrum(w)
    nodes = {g: sp.value(g) for g in GROUPS}
    edges = {s: sp.value(s) for s in SUBSETS if len(s) == 2}
    return RelationshipGraph(nodes=nodes, edges=edges)


def knowledge_delta(a: KnowledgeSpectrum, b: KnowledgeSpectrum) -> float:
    """Mean absolute difference over the 15 canonical combination values."""
    av = np.asarray(a.values)
    bv = np.asarray(b.values)
    return float(np.abs(av - bv).mean())
