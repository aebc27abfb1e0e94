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
import io
from dataclasses import dataclass

import numpy as np

from .geometry import Scene, as_vec3, atomic_write_text
# perfbench's tracer tests expect segment_blocked in this module's namespace
from .geometry import segment_blocked  # noqa: F401
from .propagation import InsideScatterer, Trace, trace

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
    """16-member feature vector of one oracle pass, in FEATURE_NAMES order."""
    scene, rx = tr.scene, tr.rx
    # rows of the effective boxes, in id order (the scene's rows are sorted by id)
    eff = np.searchsorted(scene.box_ids, tr.effective_scatterers())
    sentinel = scene.bounds_diagonal()

    if len(eff):
        centers = scene.box_center[eff]
        dims = scene.box_dims[eff]
        volumes = np.prod(dims, axis=1)
        centroid = centers.mean(axis=0)
        v_total = sum(volumes.tolist())
        v_maxh = float(scene.box_hi[eff, 2].max())
        largest = dims[np.argmax(volumes)]
        # broadside: the larger of the two vertical face areas
        v_area = float(max(largest[0], largest[1]) * largest[2])
        # one norm per box: a norm over an axis rounds differently
        d_txs = min(float(np.linalg.norm(v)) for v in scene.tx - centers)
        d_srx = min(float(np.linalg.norm(v)) for v in rx - centers)
    else:
        centroid = np.zeros(3)
        v_total = v_maxh = v_area = 0.0
        d_txs = d_srx = sentinel

    blk = tr.direct
    d_pathlen = tr.paths[0].length_m if tr.paths else sentinel

    return np.array([
        centroid[0], centroid[1], centroid[2], rx[0], rx[1], rx[2],
        v_total, v_maxh, v_area,
        1.0 if blk.blocked else 0.0, float(len(blk.blocker_ids)), blk.blocked_fraction,
        float(np.linalg.norm(rx - scene.tx)), d_txs, d_srx, d_pathlen,
    ])


@dataclass(frozen=True)
class RealizationConfig:
    n_realizations: int = 200
    scatterer_jitter_sigma: float = 0.5
    rx_jitter_sigma: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_realizations < 2:
            raise ValueError("n_realizations must be >= 2")
        if self.scatterer_jitter_sigma < 0 or self.rx_jitter_sigma < 0:
            raise ValueError("jitter sigmas must be >= 0")


@dataclass
class DatasetRow:
    position_id: int
    realization_id: int
    features: np.ndarray
    path_loss_db: float
    los: bool
    timestamp: float


def realize(scene: Scene, rx, cfg: RealizationConfig, position_id: int = 0,
            timestamp: float = 0.0) -> list:
    """Per-position Monte Carlo realizations of the perturbed environment.

    Realization 0 is always the unperturbed scene.  Each realization's
    random stream is derived from (seed, position_id, i) so any subset
    is reproducible independently of execution order.
    """
    rx = as_vec3(rx)
    rows = []
    for i in range(cfg.n_realizations):
        if i == 0:
            tr = trace(scene, rx)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(
                [cfg.seed & 0xFFFFFFFFFFFFFFFF, position_id, i]))
            # one (S, 3) draw: the values of S draws of size 3, box by box
            sc = scene.with_centers(scene.box_center + rng.normal(
                0.0, cfg.scatterer_jitter_sigma, scene.box_center.shape))
            # `trace` tests each candidate once; one inside a box is drawn again
            for _attempt in range(100):
                try:
                    tr = trace(sc, rx + rng.normal(0.0, cfg.rx_jitter_sigma, 3))
                    break
                except InsideScatterer:
                    pass
            else:
                raise ValueError(
                    f"could not place jittered RX outside scatterers at position {position_id}")
        sample = tr.sample(position_id=position_id)
        rows.append(DatasetRow(position_id=position_id, realization_id=i,
                               features=trace_features(tr),
                               path_loss_db=sample.path_loss_db, los=sample.los,
                               timestamp=timestamp))
    return rows


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------

def dataset_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(DATASET_HEADER)
    for r in sorted(rows, key=lambda r: (r.position_id, r.realization_id)):
        w.writerow([r.position_id, r.realization_id]
                   + [repr(float(x)) for x in r.features]
                   + [repr(float(r.path_loss_db)), int(r.los), repr(float(r.timestamp))])
    return buf.getvalue()


def save_dataset(path, rows):
    atomic_write_text(path, dataset_to_csv(rows))


def load_dataset(path) -> list:
    rows = []
    with open(path) as f:
        reader = csv.reader(f)
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
                raise ValueError(f"{where}: los must be 0 or 1, not {rec[-2]!r}")
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
