"""Pool-driven path-loss prediction, baselines, and error-CDF reports."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .features import GROUP_MEMBER_INDEX, trace_features
from .geometry import Scene, Trajectory, as_vec3, brief, canonical_scene_json
from .pool import Context, Pool, fnv1a_64
from .propagation import OUTAGE_CAP_DB, Trace, trace
from .spectrum import GROUPS

#: Cumulative group-weight coverage required before masking stops.
DEFAULT_TAU = 0.9

#: Neighbours averaged by the kNN baseline.
DEFAULT_KNN_K = 3


#: scene -> {id(trajectory): (trajectory, fingerprint)} for as long as the
#: scene lives; neither a scene nor a trajectory changes once built.  The
#: trajectory is held so that its id is not reused.
_FINGERPRINTS = weakref.WeakKeyDictionary()


def scene_fingerprint(scene: Scene, trajectory: Trajectory) -> int:
    """FNV-1a hash of the canonical scene JSON, computed once per pair."""
    known = _FINGERPRINTS.setdefault(scene, {})
    if id(trajectory) not in known:
        known[id(trajectory)] = (
            trajectory, fnv1a_64(canonical_scene_json(scene, trajectory).encode()))
    return known[id(trajectory)][1]


def context_for(scene: Scene, trajectory: Trajectory, rx, position_id: int) -> Context:
    return _context(scene_fingerprint(scene, trajectory), trace(scene, rx), position_id)


def trajectory_contexts(scene: Scene, trajectory: Trajectory, traces) -> dict:
    """{position id: Context} from `traces`, {position id: Trace} of the
    trajectory's positions; the scene is hashed once."""
    fingerprint = scene_fingerprint(scene, trajectory)
    return {pid: _context(fingerprint, tr, pid) for pid, tr in traces.items()}


def _context(fingerprint: int, tr: Trace, position_id: int) -> Context:
    return Context(scene_fingerprint=fingerprint, position_id=position_id, rx=tr.rx,
                   los=tr.los, frequency_hz=tr.scene.frequency_hz)


@dataclass(frozen=True)
class Prediction:
    position_id: int
    predicted_db: float
    truth_db: float
    method: str
    fallback: bool = False

    @property
    def abs_error_db(self) -> float:
        return abs(self.predicted_db - self.truth_db)

    @property
    def capped(self) -> bool:
        return (self.truth_db >= OUTAGE_CAP_DB) and (self.predicted_db >= OUTAGE_CAP_DB)


def check_tau(tau: float):
    """Reject a masking coverage outside (0, 1], NaN included."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], not {brief(tau)}")


def top_weight_groups(weights, tau: float) -> set:
    """Smallest group set (by descending weight) with cumulative weight >= tau,
    for 0 < tau <= 1."""
    check_tau(tau)
    order = sorted(GROUPS, key=lambda g: (-weights[g], GROUPS.index(g)))
    chosen = set()
    acc = 0.0
    for g in order:
        chosen.add(g)
        acc += weights[g]
        if acc >= tau:
            break
    return chosen


def mask_features(features, weights, tau: float) -> np.ndarray:
    """Zero members of groups outside the minimal top-weight set."""
    keep = top_weight_groups(weights, tau)
    out = np.asarray(features, dtype=float).copy()
    for g in GROUPS:
        if g not in keep:
            out[list(GROUP_MEMBER_INDEX[g])] = 0.0
    return out


def serve(pool: Pool, ctx: Context, tr: Trace, *, fallback,
          tau: float = DEFAULT_TAU) -> Prediction:
    """Knowledge-pool prediction at the position `ctx` describes, traced as `tr`.

    On a pool hit the entry's forest is evaluated on the masked feature
    vector.  On a miss (or degenerate entry), `fallback` - a callable
    distance -> dB, typically a fitted log-distance model - is used and
    the prediction tagged as fallback.  `tau` is checked before the pool
    is queried, so it is checked on a miss too.
    """
    check_tau(tau)
    position_id = ctx.position_id
    truth = tr.sample(position_id).path_loss_db
    hit = pool.query(ctx)
    if hit is not None and not hit[0].weights.degenerate:
        entry, _sim = hit
        feats = mask_features(trace_features(tr), entry.weights, tau)
        pred = entry.model.predict_one(feats)
        return Prediction(position_id=position_id, predicted_db=pred,
                          truth_db=truth, method="rekp")
    d = float(np.linalg.norm(tr.rx - tr.scene.tx))
    return Prediction(position_id=position_id, predicted_db=float(fallback(d)),
                      truth_db=truth, method="rekp", fallback=True)


def predict_rekp(pool: Pool, scene: Scene, trajectory: Trajectory, rx,
                 position_id: int, *, fallback, tau: float = DEFAULT_TAU) -> Prediction:
    """`serve` at receiver `rx`, trajectory position `position_id`, traced here."""
    tr = trace(scene, rx)
    ctx = _context(scene_fingerprint(scene, trajectory), tr, position_id)
    return serve(pool, ctx, tr, fallback=fallback, tau=tau)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDistanceModel:
    pl0_db: float      # loss at d0 = 1 m
    exponent: float

    def __call__(self, distance_m: float) -> float:
        return self.pl0_db + 10.0 * self.exponent * math.log10(distance_m)


def fit_logdistance(samples) -> LogDistanceModel:
    """Least-squares fit of PL = PL0 + 10 n log10(d), d0 = 1 m."""
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    d = np.array([s[0] for s in samples], dtype=float)
    pl = np.array([s[1] for s in samples], dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    x = 10.0 * np.log10(d)
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate fit: all distances equal")
    xm, ym = x.mean(), pl.mean()
    n = float(((x - xm) * (pl - ym)).sum() / ((x - xm) ** 2).sum())
    pl0 = float(ym - n * xm)
    return LogDistanceModel(pl0_db=pl0, exponent=n)


def predict_knn(train, rx, k: int = DEFAULT_KNN_K) -> float:
    """Inverse-distance-weighted mean over the k nearest train positions.

    train: list of (position, path_loss_db).  An exact positional match
    returns that sample's value.  Ties in distance are broken by sample
    order.
    """
    if not train:
        raise ValueError("train set must be nonempty")
    if k < 1:
        raise ValueError(f"k must be >= 1, not {brief(k)}")
    rx = as_vec3(rx)
    dists = [(float(np.linalg.norm(as_vec3(p) - rx)), i, v) for i, (p, v) in enumerate(train)]
    dists.sort(key=lambda t: (t[0], t[1]))
    if dists[0][0] == 0.0:
        return float(dists[0][2])
    chosen = dists[:min(k, len(dists))]
    wts = np.array([1.0 / d for d, _, _ in chosen])
    vals = np.array([v for _, _, v in chosen])
    return float((wts * vals).sum() / wts.sum())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    method: str
    errors: tuple          # sorted ascending, capped rows excluded
    n_capped: int

    @property
    def cdf(self):
        """(error, cumulative fraction) points; nondecreasing, ends at 1."""
        n = len(self.errors)
        return tuple((e, (i + 1) / n) for i, e in enumerate(self.errors))

    def percentile(self, level: float) -> float:
        """Smallest error e with CDF(e) >= level."""
        if not (0.0 < level <= 1.0):
            raise ValueError("level must be in (0, 1]")
        n = len(self.errors)
        idx = math.ceil(level * n) - 1
        return self.errors[max(idx, 0)]

    @property
    def p80(self) -> float:
        return self.percentile(0.8)

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors))

    @property
    def rmse(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.errors))))


def evaluate(predictions) -> dict:
    """Per-method ErrorReport from a mixed prediction list."""
    by_method = {}
    for p in predictions:
        by_method.setdefault(p.method, []).append(p)
    reports = {}
    for method in sorted(by_method):
        preds = by_method[method]
        errors = sorted(p.abs_error_db for p in preds if not p.capped)
        n_capped = sum(1 for p in preds if p.capped)
        if not errors:
            raise ValueError(f"no uncapped predictions for method {method!r}")
        reports[method] = ErrorReport(method=method, errors=tuple(errors),
                                      n_capped=n_capped)
    return reports
