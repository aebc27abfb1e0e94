"""End-to-end pipeline: simulate -> learn -> pool -> predict.

Shared by the CLI and the evaluation harness.  The leave-one-position-
out evaluation rebuilds a pool per held-out position from the remaining
positions' realizations.  A pool entry derives its knowledge on first
read (see `pool.KnowledgeEntry`), so a rebuilt pool fits only the entry
it serves and that entry's transfer source; the rebuilt pools share one
memo (`FitCache`), so a position's forest is fit, and an importance run
over the same trees made, at most once.  A loaded pool's memo already
holds each stored forest, so those rows are not fit again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import forest as rf
from .features import RealizationConfig, realize
from .geometry import Scene, Trajectory, csv_text
from .pool import FitCache, Pool, derive_knowledge
from .predict import (Prediction, fit_logdistance, predict_knn, serve,
                      trajectory_contexts, evaluate, DEFAULT_KNN_K, DEFAULT_TAU)
from .propagation import trace
from .spectrum import SUBSETS, GroupWeights, KnowledgeSpectrum

SPECTRUM_HEADER = ("position_id", "los", "w_L", "w_V", "w_B", "w_D") + tuple(
    f"K_{s}" for s in SUBSETS)


def simulate_trajectory(scene: Scene, trajectory: Trajectory,
                        cfg: RealizationConfig) -> list:
    """Realize every trajectory position; logical timestamps 1, 2, ..."""
    rows = []
    for i, rx in enumerate(trajectory.positions, start=1):
        rows.extend(realize(scene, rx, cfg, position_id=i, timestamp=float(i)))
    return rows


def rows_by_position(rows) -> dict:
    out = {}
    for r in rows:
        out.setdefault(r.position_id, []).append(r)
    for pid in out:
        out[pid].sort(key=lambda r: r.realization_id)
    return out


def design_matrices(rows):
    X = np.array([r.features for r in rows])
    y = np.array([r.path_loss_db for r in rows])
    return X, y


@dataclass
class PositionKnowledge:
    position_id: int
    los: bool
    weights: GroupWeights

    @property
    def spectrum(self) -> KnowledgeSpectrum | None:
        return self.weights.spectrum


def learn_positions(scene: Scene, trajectory: Trajectory, rows,
                    params: rf.ForestParams, cache: FitCache | None = None) -> list:
    """Cold per-position knowledge: the derivation a pool's new entry gets."""
    cache = cache or FitCache()
    by_pos = rows_by_position(rows)
    out = []
    for pid in sorted(by_pos):
        X, y = design_matrices(by_pos[pid])
        los = by_pos[pid][0].los  # realization 0 is unperturbed
        _, weights = derive_knowledge(cache, X, y, params)
        out.append(PositionKnowledge(position_id=pid, los=los, weights=weights))
    return out


def trace_trajectory(scene: Scene, trajectory: Trajectory) -> dict:
    """{position id: Trace}, one oracle pass per trajectory position."""
    return {pid: trace(scene, rx) for pid, rx in enumerate(trajectory.positions, start=1)}


def build_pool(rows, contexts, pool: Pool, skip_positions=()) -> Pool:
    """Ingest every position's realizations through the dual interaction
    flow, in position order; `contexts` maps each position id to its
    `Context` (see `predict.trajectory_contexts`)."""
    by_pos = rows_by_position(rows)
    for pid in sorted(by_pos):
        if pid in skip_positions:
            continue
        if pid not in contexts:
            raise ValueError(f"dataset position {pid} is not on the trajectory")
        X, y = design_matrices(by_pos[pid])
        pool.ingest(contexts[pid], X, y, now=float(pid))
    return pool


def spectrum_csv(knowledge) -> str:
    def row(k):
        gw, sp = k.weights, k.spectrum
        vals = [""] * len(SUBSETS) if sp is None else [repr(v) for v in sp.values]
        return [k.position_id, int(k.los),
                repr(gw.w_L), repr(gw.w_V), repr(gw.w_B), repr(gw.w_D)] + vals
    return csv_text(SPECTRUM_HEADER, map(row, knowledge))


def loo_evaluate(scene: Scene, trajectory: Trajectory, rows,
                 pool_template: Pool, tau: float = DEFAULT_TAU,
                 knn_k: int = DEFAULT_KNN_K, cache: FitCache | None = None):
    """Leave-one-position-out comparison of REKP vs the two baselines.

    For each held-out position a fresh pool with `pool_template`'s
    capacity, thresholds and forest parameters is built from the
    remaining positions' realizations; the held-out position's data never
    enters that pool.  One trace per position serves every round.  The
    pools share `cache`, by default the template's memo, which loading
    seeds with the stored forests, so a loaded pool's forests are not fit
    again.  Returns (predictions, reports-by-method).
    """
    cache = cache or pool_template.cache
    traces = trace_trajectory(scene, trajectory)
    contexts = trajectory_contexts(scene, trajectory, traces)
    truths = {pid: tr.sample(pid).path_loss_db for pid, tr in traces.items()}
    predictions = []
    for q, tr in traces.items():
        others = [(traces[pid].rx, truths[pid]) for pid in traces if pid != q]
        ld = fit_logdistance([(float(np.linalg.norm(p - scene.tx)), pl) for p, pl in others])
        pool = replace(pool_template, entries={}, next_entry_id=1, cache=cache)
        build_pool(rows, contexts, pool, skip_positions={q})
        predictions.append(serve(pool, contexts[q], tr, tau=tau, fallback=ld))
        d = float(np.linalg.norm(tr.rx - scene.tx))
        predictions.append(Prediction(position_id=q, predicted_db=ld(d),
                                      truth_db=truths[q], method="logdistance"))
        knn = predict_knn(others, tr.rx, k=knn_k)
        predictions.append(Prediction(position_id=q, predicted_db=knn,
                                      truth_db=truths[q], method="knn"))
    return predictions, evaluate(predictions)


def cdf_csv(reports) -> str:
    return csv_text(("method", "error_db", "cum_fraction"), (
        [method, repr(float(err)), repr(float(frac))]
        for method in sorted(reports) for err, frac in reports[method].cdf))


def summary_csv(reports) -> str:
    return csv_text(("method", "mean", "rmse", "p80", "n", "n_capped"), (
        [method, repr(r.mean), repr(r.rmse), repr(r.p80), len(r.errors), r.n_capped]
        for method, r in sorted(reports.items())))
