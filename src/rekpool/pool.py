"""Capacity-bounded knowledge pool with the dual interaction mechanism.

Incoming (context, realizations) requests are answered from existing
knowledge, refined, warm-started from the most similar entry, or
learned from scratch, depending on where the best context similarity
falls relative to the two thresholds.  Insertions that exceed capacity
trigger similarity/utilization/age-based eviction.

The pool is a single-writer state machine: every mutating operation
(ingest, query hits, evict) must be externally serialized.  All
timestamps are caller-supplied logical times so that replaying an
ingest log reproduces the pool file byte-for-byte.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import forest as rf
from .features import FEATURE_NAMES
from .geometry import (as_int, as_vec3, atomic_write_text, brief, from_blob, json_field,
                       load_json, to_blob)
from .spectrum import SUM_TOL, GroupWeights, group_weights

# CPython's own sha256 module: `hashlib` would also load OpenSSL, which adds
# about 3.5 MiB of resident memory to every process that imports the pool
try:
    from _sha256 import sha256
except ImportError:  # CPython 3.12 on
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

POOL_FORMAT_VERSION = 8

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    h = FNV64_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class PoolFileError(ValueError):
    """Malformed pool file."""


class PoolVersionError(PoolFileError):
    """Pool file written by an unknown format version."""


class Outcome(Enum):
    ANSWERED_EXISTING = "AnsweredExisting"
    REFINED = "Refined"
    TRANSFERRED = "Transferred"
    GENERATED_NEW = "GeneratedNew"


@dataclass(frozen=True)
class Context:
    scene_fingerprint: int
    position_id: int
    rx: np.ndarray
    los: bool
    frequency_hz: float

    def __post_init__(self):
        # only the types a pool file holds, so that every pool saves and loads
        for name in ("scene_fingerprint", "position_id"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not isinstance(self.los, (bool, np.bool_)):
            raise ValueError(f"los must be a bool, not {brief(self.los)}")
        object.__setattr__(self, "los", bool(self.los))
        # a copy no caller can change, since every match compares it
        rx = as_vec3(self.rx).copy()
        rx.flags.writeable = False
        object.__setattr__(self, "rx", rx)
        if not (np.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise ValueError("frequency_hz must be finite and positive")
        object.__setattr__(self, "frequency_hz", float(self.frequency_hz))


#: Distance scale of the RX-proximity similarity term [m].
SIMILARITY_RX_SCALE_M = 10.0

#: Eviction score weights (see `Pool.sort_and_evict`): redundancy,
#: utilization discount and age discount.
ALPHA, BETA, GAMMA = 1.0, 0.5, 0.25


def similarity(a: Context, b: Context) -> float:
    """Weighted context similarity in [0, 1].

    0.4 scene fingerprint match + 0.3 RX proximity + 0.2 LOS-state
    match + 0.1 frequency proximity; equals 1 only for identical
    contexts, and similarity(a, b) == similarity(b, a) bit for bit.
    The frequency term is the lower frequency over the higher: that
    equals exp(-|ln(fa / fb)|), and stays defined where fa / fb
    underflows to 0.
    """
    s = 0.0
    if a.scene_fingerprint == b.scene_fingerprint:
        s += 0.4
    d = a.rx - b.rx  # math.sqrt(d.dot(d)) is np.linalg.norm(d), bit for bit
    s += 0.3 * math.exp(-math.sqrt(d.dot(d)) / SIMILARITY_RX_SCALE_M)
    if a.los == b.los:
        s += 0.2
    fa, fb = a.frequency_hz, b.frequency_hz
    s += 0.1 * (min(fa, fb) / max(fa, fb))
    return s


def rows_sha256(X, y) -> str:
    """sha256 hex digest of the rows (X, y): each array's shape, then its
    C-order float64 bytes, so rows built at ingest and the same rows read
    from a pool file give the same digest."""
    h = sha256()
    for a in (X, y):
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a)
    return h.hexdigest()


class FitCache:
    """Memoizes forest fits and knowledge derivations by content.

    Forests are keyed by (rows digest, params) and derivations by (rows
    digest, source rows digest or None, params), all digests of
    `rows_sha256`, so the memo keeps no copy of the rows it has seen.  A
    memo may hand one model to two entries fit on the same rows, so a model
    is never changed in place."""

    def __init__(self):
        self._fits = {}
        self._derived = {}

    def fit(self, X, y, params, digest):
        """The forest of (X, y), whose `rows_sha256` is `digest`, under
        `params`: fit on the key's first lookup only."""
        key = (digest, params)
        if key not in self._fits:
            self._fits[key] = rf.fit(X, y, params, feature_names=FEATURE_NAMES)
        return self._fits[key]

    def importance(self, X, y, params, source=None):
        """(model, weights, source rows digest or None): the forest of (X, y)
        and the group weights of its permutation importances, taken on a
        transfer over its trees followed by those of `source`, the source
        entry's (train_X, train_y) as ingested.  Made on the key's first
        lookup only, each row set digested once; perfbench's tracer counts
        lookups and hits by this method's name."""
        digest = rows_sha256(X, y)
        source_digest = None if source is None else rows_sha256(*source)
        key = (digest, source_digest, params)
        if key not in self._derived:
            model = self.fit(X, y, params, digest)
            basis = model if source is None else replace(
                model, trees=model.trees + self.fit(*source, params, source_digest).trees)
            weights = group_weights(rf.permutation_importance(basis, X, y, seed=params.seed))
            self._derived[key] = (model, weights, source_digest)
        return self._derived[key]

    def add(self, X, y, model, weights, source_sha256):
        """Record `model` as the fit of (X, y) under its own params, and
        (model, weights, source_sha256) as their derivation with the source
        rows of that digest: what a pool file stores for each entry."""
        digest = rows_sha256(X, y)
        self._fits[(digest, model.params)] = model
        self._derived[(digest, source_sha256, model.params)] = (model, weights, source_sha256)


@dataclass
class KnowledgeEntry:
    """One unit of stored knowledge.

    `model` holds the trees fit on this entry's own realizations and is
    what predictions evaluate.  `weights` are derived from the
    permutation importances of the trees; an entry created by transfer
    derived them over its own trees plus the source entry's trees, as
    the source was when this entry was ingested.  The source trees are
    used only for that derivation and are never stored, so transfer
    never biases the predictive path toward the source's position; only
    the digest of the source's rows is, as `source_sha256`.  The knowledge
    spectrum is not stored: it is `weights.spectrum`.

    All three are derived together into `knowledge` through the pool's memo
    (`FitCache.importance`) on the first read: when the entry is served,
    saved or shown.  Until then `pending` holds what that needs besides the
    entry's rows: the memo, the forest parameters and, on a transfer, the
    source's rows as ingested; never the source entry, so no chain of
    unread entries is held.  Its forest is also fit when an entry
    transferred from it is read.  Routing and eviction read only the
    context, the utilization and `created_at`, so an entry evicted unread
    is never fit.  A refine makes the entry pending again.
    """

    entry_id: int
    context: Context
    train_X: np.ndarray
    train_y: np.ndarray
    created_at: float
    updated_at: float
    utilization_count: int = 0
    knowledge: tuple | None = None  # (model, weights, source_sha256) once derived
    pending: tuple | None = None    # (memo, forest params, source rows or None) until then

    def _derive(self) -> tuple:
        """`knowledge`, derived now if it was not."""
        if self.knowledge is None:
            cache, params, source = self.pending
            self.knowledge = cache.importance(self.train_X, self.train_y, params, source)
            self.pending = None
        return self.knowledge

    @property
    def model(self) -> rf.RandomForestModel:
        return self._derive()[0]

    @property
    def weights(self) -> GroupWeights:
        return self._derive()[1]

    @property
    def source_sha256(self) -> str | None:
        """`rows_sha256` of the transfer source's rows as ingested, or None:
        with the entry's rows and the forest parameters, the key of its
        derivation."""
        return self._derive()[2]


class EvictionTerms(NamedTuple):
    """One entry's eviction score and its terms (see `Pool.sort_and_evict`):
    score = redundancy - utilization - age."""

    entry_id: int
    nearest_id: int | None  # the first entry, in id order, most similar to it
    redundancy: float       # ALPHA * its similarity to that entry (0 if alone)
    utilization: float      # BETA * log1p(its utilization count)
    age: float              # GAMMA * its age rank, from 0 (oldest) to 1 (newest)
    score: float


def _time(value, name: str) -> float:
    """`value` as a logical time, which must be finite so that a pool file
    can hold it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {brief(value)}")
    return float(value)


@dataclass
class Pool:
    capacity: int = 32
    theta_high: float = 0.95
    theta_low: float = 0.40
    forest_params: rf.ForestParams = field(default_factory=rf.ForestParams)
    entries: dict = field(default_factory=dict)  # entry_id -> KnowledgeEntry
    next_entry_id: int = 1
    #: memo of the pool's fits and derivations for as long as it lives;
    #: `dataclasses.replace` shares it, and it is never persisted, but
    #: loading seeds it with each stored forest as the fit of its rows and
    #: each stored (model, weights) as the derivation its entry's key names
    cache: FitCache = field(default_factory=FitCache, repr=False, compare=False)

    def __post_init__(self):
        self.capacity = as_int(self.capacity, "capacity")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (0.0 <= self.theta_low < self.theta_high <= 1.0):
            raise ValueError("need 0 <= theta_low < theta_high <= 1")
        self.theta_low, self.theta_high = float(self.theta_low), float(self.theta_high)

    # -- read side ---------------------------------------------------------

    def _best_match(self, ctx: Context):
        """(entry id, similarity) of the first entry in id order most
        similar to `ctx`, or None."""
        best = None
        for eid in sorted(self.entries):
            s = similarity(self.entries[eid].context, ctx)
            if best is None or s > best[1]:
                best = (eid, s)
        return best

    def query(self, ctx: Context):
        """Best entry with similarity >= theta_low, or None.

        A returned hit counts as a utilization of that entry.
        """
        best = self._best_match(ctx)
        if best is None or best[1] < self.theta_low:
            return None
        entry = self.entries[best[0]]
        entry.utilization_count += 1
        return entry, best[1]

    # -- write side --------------------------------------------------------

    def ingest(self, ctx: Context, X, y, now: float = 0.0, force_refresh: bool = False):
        """Dual interaction flow; returns (Outcome, entry_id).

        The rows are checked here, whatever the outcome, as `forest.fit`
        checks them; a refined or new entry's knowledge is derived on its
        first read (see `KnowledgeEntry`)."""
        X, y = rf.check_rows(X, y, self.forest_params, len(FEATURE_NAMES))
        now = _time(now, "now")
        best = self._best_match(ctx)
        if best is not None and best[1] >= self.theta_high:
            entry = self.entries[best[0]]
            if not force_refresh:
                entry.utilization_count += 1
                return Outcome.ANSWERED_EXISTING, entry.entry_id
            # Refine: retrain on stored provenance plus the new data, checked
            # again, as the bound on the targets falls with the rows' number.
            entry.train_X, entry.train_y = rf.check_rows(
                np.vstack([entry.train_X, X]), np.concatenate([entry.train_y, y]),
                self.forest_params, len(FEATURE_NAMES))
            entry.knowledge, entry.pending = None, (self.cache, self.forest_params, None)
            entry.updated_at = now
            return Outcome.REFINED, entry.entry_id
        if best is not None and best[1] >= self.theta_low:
            # Warm start (knowledge completion): derive weights over the
            # fresh trees plus the trees of the source's rows as they are
            # now; a refine gives the source new arrays, so these stay as
            # they are.  Only the fresh trees are kept, so only they vote.
            src = self.entries[best[0]]
            outcome, source = Outcome.TRANSFERRED, (src.train_X, src.train_y)
        else:
            outcome, source = Outcome.GENERATED_NEW, None
        entry = KnowledgeEntry(entry_id=self.next_entry_id, context=ctx, train_X=X, train_y=y,
                               created_at=now, updated_at=now,
                               pending=(self.cache, self.forest_params, source))
        self.next_entry_id += 1
        self.entries[entry.entry_id] = entry
        if len(self.entries) > self.capacity:
            self.sort_and_evict()
        return outcome, entry.entry_id

    def eviction_terms(self) -> list:
        """Each entry's `EvictionTerms`, in id order: the score that
        `sort_and_evict` ranks entries by, and its three terms."""
        ids = sorted(self.entries)
        by_age = sorted(ids, key=lambda i: (self.entries[i].created_at, i))
        denom = max(len(ids) - 1, 1)
        age_rank = {eid: k / denom for k, eid in enumerate(by_age)}
        terms = []
        for eid, sims in zip(ids, self.similarities()):
            best, near = 0.0, None  # the first maximum in id order
            for s, other in zip(sims, ids):
                if other != eid and (near is None or s > best):
                    best, near = s, other
            redundancy = ALPHA * best
            use = BETA * math.log1p(self.entries[eid].utilization_count)
            age = GAMMA * age_rank[eid]
            terms.append(EvictionTerms(eid, near, redundancy, use, age,
                                       redundancy - use - age))
        return terms

    def similarities(self) -> list:
        """similarity(a, b) of every pair of entries, rows a and columns b
        in id order; each pair is scored once, as similarity is symmetric
        bit for bit."""
        contexts = [self.entries[eid].context for eid in sorted(self.entries)]
        rows = [[0.0] * len(contexts) for _ in contexts]
        for i, a in enumerate(contexts):
            for j in range(i, len(contexts)):
                rows[i][j] = rows[j][i] = similarity(a, contexts[j])
        return rows

    def sort_and_evict(self) -> list:
        """Evict highest-scoring entries until within capacity; returns
        their ids in eviction order.

        score = ALPHA * (max similarity to any other entry)
              - BETA * log(1 + utilization)
              - GAMMA * normalized age rank (oldest -> 0)
        """
        removed = []
        while len(self.entries) > self.capacity:
            # highest score evicted; ties broken by highest entry id
            _, victim = max((t.score, t.entry_id) for t in self.eviction_terms())
            del self.entries[victim]
            removed.append(victim)
        return removed


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _context_to_dict(c: Context) -> dict:
    return {"scene_fingerprint": c.scene_fingerprint, "position_id": c.position_id,
            "rx": c.rx.tolist(), "los": c.los,
            "frequency_hz": c.frequency_hz}


def _context_from_dict(d: dict) -> Context:
    return Context(scene_fingerprint=json_field(d, "scene_fingerprint", int),
                   position_id=json_field(d, "position_id", int),
                   rx=json_field(d, "rx", np.ndarray), los=json_field(d, "los", bool),
                   frequency_hz=json_field(d, "frequency_hz", float))


def _weights_to_dict(w: GroupWeights) -> dict:
    return {"w_L": w.w_L, "w_V": w.w_V, "w_B": w.w_B, "w_D": w.w_D}


def _weights_from_dict(d: dict) -> GroupWeights:
    """Weights as `group_weights` makes them: finite, >= 0, all 0 or summing to 1."""
    values = [json_field(d, k, float) for k in ("w_L", "w_V", "w_B", "w_D")]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise ValueError(f"group weights must be finite and >= 0: {values}")
    if any(values) and abs(sum(values) - 1.0) > SUM_TOL:
        raise ValueError(f"group weights must sum to 1 or all be 0: {values}")
    return GroupWeights(*values)


def _sha256_from_dict(d: dict, key: str) -> str | None:
    """d[key]: null, or a digest as `rows_sha256` writes it."""
    if d[key] is None:
        return None
    value = json_field(d, key, str)
    if not re.fullmatch("[0-9a-f]{64}", value):
        raise ValueError(f"{key} must be 64 lowercase hex digits or null, not {brief(value)}")
    return value


def pool_to_dict(pool: Pool) -> dict:
    entries = []
    for eid in sorted(pool.entries):
        e = pool.entries[eid]
        entries.append({
            "entry_id": e.entry_id,
            "context": _context_to_dict(e.context),
            "weights": _weights_to_dict(e.weights),
            "source_sha256": e.source_sha256,
            "model": e.model.to_dict(),
            "train_X": to_blob(e.train_X, "<f8"),
            "train_y": to_blob(e.train_y, "<f8"),
            "created_at": e.created_at,
            "updated_at": e.updated_at,
            "utilization_count": e.utilization_count,
        })
    return {
        "version": POOL_FORMAT_VERSION,
        "capacity": pool.capacity,
        "thresholds": {"theta_high": pool.theta_high, "theta_low": pool.theta_low},
        "forest_params": pool.forest_params.to_dict(),
        "next_entry_id": pool.next_entry_id,
        "entries": entries,
    }


def pool_from_dict(doc: dict) -> Pool:
    if not isinstance(doc, dict) or "version" not in doc:
        raise PoolFileError("not a pool file")
    if type(doc["version"]) is not int or doc["version"] != POOL_FORMAT_VERSION:
        raise PoolVersionError(f"unsupported pool format version: {brief(doc['version'])}")
    try:
        thresholds = doc["thresholds"]
        pool = Pool(capacity=json_field(doc, "capacity", int),
                    theta_high=json_field(thresholds, "theta_high", float),
                    theta_low=json_field(thresholds, "theta_low", float),
                    forest_params=rf.ForestParams.from_dict(doc["forest_params"]),
                    next_entry_id=json_field(doc, "next_entry_id", int))
        for ed in doc["entries"]:
            # the rows an entry's model was fit on, checked as `ingest` checks them
            train_X, train_y = rf.check_rows(
                from_blob(ed, "train_X", "<f8"), from_blob(ed, "train_y", "<f8"),
                pool.forest_params, len(FEATURE_NAMES))
            model = rf.RandomForestModel.from_dict(ed["model"], pool.forest_params,
                                                   FEATURE_NAMES)
            weights = _weights_from_dict(ed["weights"])
            source_sha256 = _sha256_from_dict(ed, "source_sha256")
            entry = KnowledgeEntry(
                entry_id=json_field(ed, "entry_id", int),
                context=_context_from_dict(ed["context"]),
                train_X=train_X, train_y=train_y,
                created_at=_time(json_field(ed, "created_at", float), "created_at"),
                updated_at=_time(json_field(ed, "updated_at", float), "updated_at"),
                utilization_count=json_field(ed, "utilization_count", int),
                knowledge=(model, weights, source_sha256))
            if not 0 <= entry.utilization_count < 2**63:
                raise ValueError(f"utilization_count must be in [0, 2**63): "
                                 f"{brief(entry.utilization_count)}")
            if entry.entry_id in pool.entries:
                raise ValueError(f"entry_id {entry.entry_id} is stored twice")
            pool.entries[entry.entry_id] = entry
            # the stored forest is the fit of the stored rows, and the stored
            # weights their derivation with the source rows of the stored
            # digest, as this program writes every pool: so a transfer from
            # this entry fits nothing, and the same derivation runs nothing
            pool.cache.add(train_X, train_y, model, weights, source_sha256)
        if len(pool.entries) > pool.capacity:
            raise ValueError(f"{len(pool.entries)} entries exceed capacity {pool.capacity}")
        if pool.entries and pool.next_entry_id <= max(pool.entries):
            raise ValueError(f"next_entry_id {pool.next_entry_id} is not above every "
                             f"stored entry_id (largest {max(pool.entries)})")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PoolFileError(f"malformed pool file: {type(exc).__name__}: {exc}") from exc
    return pool


def save_pool(path, pool: Pool):
    atomic_write_text(path, json.dumps(pool_to_dict(pool), separators=(",", ":")) + "\n")


def load_pool(path) -> Pool:
    try:
        doc = load_json(path)
    except ValueError as exc:
        raise PoolFileError(f"malformed pool file: {exc}") from exc
    return pool_from_dict(doc)
