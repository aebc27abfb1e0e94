"""Environment feature extraction, Monte Carlo realization, alignment.

The 16 feature members are a fixed partition into four groups:

    L (6): effective-scatterer centroid x/y/z, RX x/y/z
    V (3): total effective-scatterer volume, max height, broadside area
           of the largest effective scatterer
    B (3): direct-segment blocked indicator, blocker count, blocked
           length fraction
    D (4): TX-RX distance, min TX->scatterer distance, min
           scatterer->RX distance, strongest-path length

When a position has no effective scatterers the scatterer-dependent
members are 0 and the distance members fall back to the scene
bounding-box diagonal, so the learner never sees NaN/inf.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Scene, as_int, as_vec3, atomic_write_text, brief, csv_text, row_norms,
                       stream)
# perfbench's tracer tests expect segment_blocked in this module's namespace
from .geometry import segment_blocked  # noqa: F401
from .propagation import (RX_FAULTS, RX_FREE, RX_INSIDE, Trace, _rx_faults, _validate_rx,
                          trace, trace_all)

FEATURE_NAMES = (
    "L_cx", "L_cy", "L_cz", "L_rx", "L_ry", "L_rz",
    "V_total", "V_maxh", "V_area",
    "B_blocked", "B_count", "B_frac",
    "D_txrx", "D_txs", "D_srx", "D_pathlen",
)

GROUPS = ("L", "V", "B", "D")

#: member index -> group, fixed partition (6 + 3 + 3 + 4).
GROUP_OF_MEMBER = tuple(name.split("_")[0] for name in FEATURE_NAMES)

GROUP_MEMBER_INDEX = {
    g: tuple(i for i, gg in enumerate(GROUP_OF_MEMBER) if gg == g) for g in GROUPS
}

DATASET_HEADER = ("position_id", "realization_id") + FEATURE_NAMES + (
    "path_loss_db", "los", "timestamp")


def extract_features(scene: Scene, rx) -> np.ndarray:
    """16-member feature vector in FEATURE_NAMES order."""
    return trace_features(trace(scene, rx))


def trace_features(tr: Trace) -> np.ndarray:
    """16-member feature vector of one oracle pass, in FEATURE_NAMES order:
    the one row of `feature_rows`."""
    return feature_rows([tr])[0]


@np.errstate(over="ignore")  # a distance too long for a float is inf, which `realize` rejects
def feature_rows(traces) -> np.ndarray:
    """(R, 16) feature rows of R traces, in FEATURE_NAMES order, computed
    over all R at once.  The traces' scenes are realizations of one scene
    (`trace_all`): the same boxes, wherever each realization put them.

    A row with no effective scatterer gets 0 for the scatterer-dependent
    members and the scene's bounds diagonal for the distances to them.
    """
    base = traces[0].scene
    ids, dims, tx = base.box_ids, base.box_dims, base.tx
    n_real, n_box = len(traces), len(ids)
    rx = np.array([tr.rx for tr in traces])
    centers = np.array([tr.scene.box_center for tr in traces])
    bounds = np.array([tr.scene.bounds() for tr in traces])
    # effective[r, k]: box k (the scene's rows are in id order) is effective in trace r
    effective = np.zeros((n_real, n_box), dtype=bool)
    rows, eff_ids = [], []
    for r, tr in enumerate(traces):
        e = tr.effective_scatterers()
        rows += [r] * len(e)
        eff_ids += e
    effective[rows, np.searchsorted(ids, eff_ids)] = True
    # per row: bounds diagonal, TX-RX distance, then TX -> box k and RX -> box k
    norms = row_norms(np.concatenate([(bounds[:, 1] - bounds[:, 0])[:, None],
                                      (rx - tx)[:, None], tx - centers,
                                      rx[:, None] - centers], axis=1))
    sentinel = norms[:, 0]
    out = np.zeros((n_real, len(FEATURE_NAMES)))
    out[:, 3:6] = rx
    out[:, 12] = norms[:, 1]
    out[:, 13:15] = sentinel[:, None]
    blk = [tr.direct for tr in traces]
    out[:, 9] = [b.blocked for b in blk]
    out[:, 10] = [len(b.blocker_ids) for b in blk]
    out[:, 11] = [b.blocked_fraction for b in blk]
    out[:, 15] = [tr.paths[0].length_m if tr.paths else s
                  for tr, s in zip(traces, sentinel.tolist())]
    some = effective.any(axis=1)
    if not some.any():
        return out
    volumes = np.prod(dims, axis=1)
    # The sums add the effective boxes one by one in id order, as a sum over
    # one trace's boxes does; an ineffective box adds -0.0, which changes no
    # sum.  (A masked `sum` would add pairwise from 8 terms on.)
    centroid = np.cumsum(np.where(effective[:, :, None], centers, -0.0), axis=1)[:, -1]
    v_total = np.cumsum(np.where(effective, volumes, -0.0), axis=1)[:, -1]
    # box tops, computed as a scene computes box_hi
    v_maxh = np.where(effective, centers[:, :, 2] + dims[:, 2] / 2.0, -np.inf).max(axis=1)
    # broadside: the larger of the two vertical face areas of the largest box
    largest = dims[np.where(effective, volumes, -np.inf).argmax(axis=1)]
    v_area = np.maximum(largest[:, 0], largest[:, 1]) * largest[:, 2]
    to_box = norms[:, 2:].reshape(n_real, 2, n_box)  # [r, 0] from the TX, [r, 1] from the RX
    d_box = np.where(effective[:, None], to_box, np.inf).min(axis=2)
    out[some, 0:3] = centroid[some] / effective[some].sum(axis=1)[:, None]
    out[some, 6:9] = np.column_stack([v_total, v_maxh, v_area])[some]
    out[some, 13:15] = d_box[some]
    return out


@dataclass(frozen=True)
class RealizationConfig:
    n_realizations: int = 200
    scatterer_jitter_sigma: float = 0.5
    rx_jitter_sigma: float = 0.2
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_realizations", as_int(self.n_realizations, "n_realizations"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.n_realizations < 2:
            raise ValueError("n_realizations must be >= 2")
        for name in ("scatterer_jitter_sigma", "rx_jitter_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"{name} must be finite and >= 0, not {brief(sigma)}")


@dataclass
class DatasetRow:
    position_id: int
    realization_id: int
    features: np.ndarray
    path_loss_db: float
    los: bool
    timestamp: float


#: Candidates drawn for one jittered receiver before `realize` gives up.
RX_DRAWS = 100


def _jittered_receivers(scenes, rx, rngs, sigma: float, position_id: int) -> np.ndarray:
    """(R, 3): the receiver of each realization scenes[r], the first candidate
    rx + N(0, sigma^2) drawn from rngs[r] that `_validate_rx` accepts, at
    most RX_DRAWS draws; one inside a box is drawn again.

    Round by round, every realization still unplaced draws one candidate
    from its own stream, and the round is tested in one array pass, so each
    stream draws what placing the realizations one by one draws.  Raises
    what that would raise first: the error of the lowest failing realization.
    """
    placed = np.empty((len(scenes), 3))
    bounds = np.array([s.bounds() for s in scenes]).reshape(-1, 2, 3)
    box_lo = np.array([s.box_lo for s in scenes])
    box_hi = np.array([s.box_hi for s in scenes])
    todo, errors = np.arange(len(scenes)), {}
    for _draw in range(RX_DRAWS):
        if not len(todo):
            break
        candidates = np.array([rx + rngs[r].normal(0.0, sigma, 3) for r in todo.tolist()])
        fault = _rx_faults(scenes[0].tx, bounds[todo, 0], bounds[todo, 1], box_lo[todo],
                           box_hi[todo], candidates)
        placed[todo[fault == RX_FREE]] = candidates[fault == RX_FREE]
        errors.update((r, ValueError(RX_FAULTS[f]))
                      for r, f in zip(todo.tolist(), fault.tolist()) if f in RX_FAULTS)
        todo = todo[fault == RX_INSIDE]
    for r in todo.tolist():
        errors[r] = ValueError(
            f"could not place jittered RX outside scatterers at position {position_id}")
    if errors:
        raise errors[min(errors)]
    return placed


def realize(scene: Scene, rx, cfg: RealizationConfig, position_id: int = 0,
            timestamp: float = 0.0) -> list:
    """Per-position Monte Carlo realizations of the perturbed environment.

    Realization 0 is always the unperturbed scene.  Each realization's
    random stream is derived from (seed, position_id, i) so any subset
    is reproducible independently of execution order.  Each stream draws
    its box centers, then its receiver (`_jittered_receivers`); then all
    realizations are traced, and their features computed, in one pass.  An
    invalid realization raises what tracing realizations one by one would
    raise first, and so does one whose features or path loss are not finite.
    """
    rx = _validate_rx(scene, rx)
    rngs = [stream(cfg.seed, position_id, i) for i in range(1, cfg.n_realizations)]
    # one (S, 3) draw per realization: the values of S draws of size 3, box by box
    scenes, error = scene.realizations([
        scene.box_center + rng.normal(0.0, cfg.scatterer_jitter_sigma, scene.box_center.shape)
        for rng in rngs])
    rxs = _jittered_receivers(scenes, rx, rngs, cfg.rx_jitter_sigma, position_id)
    if error is not None:
        raise error
    traces = trace_all([scene, *scenes], [rx, *rxs])
    features = feature_rows(traces)
    samples = [tr.sample(position_id=position_id) for tr in traces]
    finite = np.isfinite(features).all(axis=1) & np.isfinite([s.path_loss_db for s in samples])
    if not finite.all():
        raise ValueError(f"realization {int(np.argmin(finite))} at position {position_id} has "
                         "non-finite features or path loss: its boxes lie too far apart "
                         "for float distances")
    return [DatasetRow(position_id=position_id, realization_id=i, features=f,
                       path_loss_db=sample.path_loss_db, los=sample.los, timestamp=timestamp)
            for i, (sample, f) in enumerate(zip(samples, features))]


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------

def dataset_to_csv(rows) -> str:
    return csv_text(DATASET_HEADER, (
        [r.position_id, r.realization_id] + [repr(float(x)) for x in r.features]
        + [repr(float(r.path_loss_db)), int(r.los), repr(float(r.timestamp))]
        for r in sorted(rows, key=lambda r: (r.position_id, r.realization_id))))


def save_dataset(path, rows):
    atomic_write_text(path, dataset_to_csv(rows))


def load_dataset(path) -> list:
    rows = []
    with open(path) as f:
        reader = csv.reader(f)
        try:
            header = tuple(next(reader, ()))
            if header != DATASET_HEADER:
                raise ValueError("unexpected dataset header")
            seen = set()
            for rec in reader:
                where = f"dataset line {reader.line_num}"
                if len(rec) != len(DATASET_HEADER):
                    raise ValueError(f"{where}: expected {len(DATASET_HEADER)} fields, "
                                     f"got {len(rec)}")
                if rec[-2] not in ("0", "1"):
                    raise ValueError(f"{where}: los must be 0 or 1, not {brief(rec[-2])}")
                key = (int(rec[0]), int(rec[1]))
                if key in seen:
                    raise ValueError(f"{where}: position {key[0]} realization {key[1]} "
                                     "is listed twice")
                seen.add(key)
                rows.append(DatasetRow(
                    position_id=key[0], realization_id=key[1],
                    features=np.array([float(x) for x in rec[2:2 + len(FEATURE_NAMES)]]),
                    path_loss_db=float(rec[-3]), los=rec[-2] == "1",
                    timestamp=float(rec[-1])))
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise ValueError(f"dataset line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("dataset has no rows")
    return rows


# ---------------------------------------------------------------------------
# Stream alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamRecord:
    timestamp: float
    position: np.ndarray
    payload: object = None


@dataclass(frozen=True)
class DropReport:
    n_pairs: int
    n_pei_dropped: int
    n_channel_dropped: int


def align_streams(pei_records, channel_records, time_tol: float, pos_tol: float):
    """One-to-one nearest-in-time pairing of PEI and channel streams.

    A pair is feasible when timestamps differ by at most time_tol and
    positions by at most pos_tol.  Among matchings that maximize the
    number of pairs, the one minimizing total time discrepancy is
    chosen (solved as an assignment problem).  Returns (pairs, report)
    where pairs is a list of (pei_index, channel_index).
    """
    # scipy costs about half a second to import; only this function needs it
    from scipy.optimize import linear_sum_assignment

    for name, stream in (("pei", pei_records), ("channel", channel_records)):
        ts = [r.timestamp for r in stream]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"{name} stream is not sorted by timestamp")
    n, m = len(pei_records), len(channel_records)
    if n == 0 or m == 0:
        return [], DropReport(0, n, m)
    big = 2.0 * max(time_tol, 1.0) * (n + m + 1)
    cost = np.full((n, m), big)
    feasible = np.zeros((n, m), dtype=bool)
    for i, p in enumerate(pei_records):
        for j, c in enumerate(channel_records):
            dt = abs(p.timestamp - c.timestamp)
            if dt <= time_tol and np.linalg.norm(
                    as_vec3(p.position) - as_vec3(c.position)) <= pos_tol:
                cost[i, j] = dt
                feasible[i, j] = True
    ri, cj = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(ri, cj) if feasible[i, j]]
    pairs.sort(key=lambda ij: (channel_records[ij[1]].timestamp, ij[1]))
    return pairs, DropReport(len(pairs), n - len(pairs), m - len(pairs))
