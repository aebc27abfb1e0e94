"""The three benchmark workloads: inputs from a seed, one episode of work,
and the checks on its outputs.

Each workload is a single-process closed loop with one caller.  An
episode is the unit of work that is timed and repeated:

* ``street`` -- the canonical street scene through the CLI flow
  scene-gen -> simulate -> learn -> predict, as a user runs it.  The
  forest (fits, permutation importance, leave-one-position-out refits)
  does most of the work.
* ``city`` -- ``rekpool simulate`` on a generated street canyon with 20
  boxes.  Only the oracle and feature extraction work; the forest does
  nothing, so a forest change must leave this workload unchanged.
* ``pool`` -- a seeded ingest log over generated scenes with revisited
  positions.  Each step is a ``predict_rekp`` read then a ``Pool.ingest``
  write at capacity 8, with checkpoints through ``save_pool`` and
  ``load_pool``.  It is the only workload that answers, refines and
  evicts at volume.

Every step that fails, and every output check that fails, counts as a
failed operation; an exception ends the episode as one failed operation.  The library is reached through module attributes so
that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from rekpool import cli, features, forest, geometry, pool, predict, propagation


@dataclass(frozen=True)
class StreetSize:
    # The canonical run (200 realizations per position, 100 trees) takes
    # about two minutes on two cores, too long to repeat within one
    # benchmark run.  Cost is linear in the tree count, so the tree count
    # is cut and the realization count kept: each tree is fit on the
    # canonical 200 rows and grows to the canonical depth.
    realizations: int = 200
    n_trees: int = 12


@dataclass(frozen=True)
class CitySize:
    south_boxes: int = 10
    curb_boxes: int = 8               # plus the corner and end buildings
    positions: int = 12
    realizations: int = 16


@dataclass(frozen=True)
class PoolSize:
    scenes: int = 4
    positions: int = 6
    batch_realizations: int = 12
    steps: int = 150
    capacity: int = 8
    n_trees: int = 20
    checkpoint_every: int = 25


@dataclass
class Episode:
    """What one episode did, for the checks and the report."""
    attempted: int = 0
    failed: int = 0
    errors: list = None
    fingerprint: dict = None
    stats: dict = None
    traffic: dict = None
    samples: dict = None             # latency samples [ms] by name

    def __post_init__(self):
        self.errors = [] if self.errors is None else self.errors
        self.stats = {} if self.stats is None else self.stats
        self.samples = {} if self.samples is None else self.samples

    def check(self, ok, message):
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:          # argparse usage errors
        return exc.code


def _op(tracer, name):
    return tracer.operation(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# Generated street canyons (city and pool)
# ---------------------------------------------------------------------------

def street_canyon(rng, south_boxes, curb_boxes, positions, offset=(0.0, 0.0, 0.0)):
    """Seeded street canyon around the canonical TX and trajectory.

    A fixed corner building shadows the first four positions and a fixed
    end building closes the street, so every seed gives the same 4 NLOS
    positions.  South-side buildings and curb-side boxes (at most 2.5 m
    tall, below the TX-to-street sight line) add reflectors and occluders
    of reflected paths without changing the LOS state of the trajectory.
    Each box sits in its own evenly spaced slot along the street and the
    seed draws its size and its place within the slot, so the oracle's
    work varies little from seed to seed.
    """
    off = np.asarray(offset, dtype=float)
    spacing = 5.0
    length = spacing * (positions + 1)
    S = geometry.Scatterer
    boxes = [S(id=1, center=off + (-0.2, 12.0, 6.0), dims=(10.0, 8.0, 12.0)),
             S(id=2, center=off + (length + 10.0, 6.0, 9.0), dims=(8.0, 24.0, 18.0))]

    def row(n, x0, x1, sizes, y_near, y_gap, sign):
        slot = (x1 - x0) / n
        for k in range(n):
            dx, dy, dz = (rng.uniform(lo, hi) for lo, hi in sizes)
            dx = min(dx, slot)
            x = x0 + slot * k + dx / 2.0 + rng.uniform(0.0, slot - dx)
            y = sign * (y_near + dy / 2.0 + rng.uniform(0.0, y_gap))
            boxes.append(S(id=len(boxes) + 1, center=off + (x, y, dz / 2.0),
                           dims=(dx, dy, dz)))

    row(south_boxes, -10.0, length + 5.0, ((4.0, 8.0), (4.0, 8.0), (6.0, 20.0)),
        5.0, 4.0, -1.0)
    row(curb_boxes, 0.0, length, ((2.0, 4.0), (1.5, 2.5), (1.5, 2.5)), 5.0, 1.5, 1.0)
    scene = geometry.Scene(tx=off + (-15.0, 35.0, 10.0), frequency_hz=28e9,
                           scatterers=tuple(boxes))
    traj = geometry.Trajectory(
        positions=tuple(off + (spacing * (i + 1), 0.0, 1.5) for i in range(positions)),
        spacing_m=spacing)
    return scene, traj


def los_table(scene, traj):
    return [propagation.path_loss(scene, rx, position_id=i) for i, rx in
            enumerate(traj.positions, start=1)]


# ---------------------------------------------------------------------------
# street
# ---------------------------------------------------------------------------

@dataclass
class StreetInputs:
    seed: int
    size: StreetSize
    workdir: str


def setup_street(seed, size, workdir):
    return StreetInputs(seed=seed, size=size, workdir=_fresh_dir(workdir))


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def street_episode(inp, tracer=None):
    d = _fresh_dir(os.path.join(inp.workdir, "street"))
    files = {k: os.path.join(d, k) for k in
             ("scene.json", "dataset.csv", "spectrum.csv", "pool.json", "summary.csv")}
    seed = ["--seed", str(inp.seed)]
    base = ["--out-dir", d, "--quiet"]
    learn = ["learn", "--scene", files["scene.json"], "--dataset", files["dataset.csv"],
             "--n-trees", str(inp.size.n_trees)]
    steps = (
        ("scene_gen", seed + base + ["scene-gen"]),
        ("simulate", seed + base + ["simulate", "--scene", files["scene.json"],
                                    "--n-realizations", str(inp.size.realizations)]),
        ("learn", seed + base + learn),
        ("predict", base + ["predict", "--scene", files["scene.json"], "--dataset",
                            files["dataset.csv"], "--pool", files["pool.json"]]),
    )
    ep = Episode()
    for step, argv in steps:
        ep.attempted += 1
        t0 = time.perf_counter()
        with _op(tracer, "bench." + step):
            rc = _run_cli(argv)
        ep.stats[step + "_s"] = time.perf_counter() - t0
        if not ep.check(rc == 0, f"{step} exited with {rc}"):
            return ep                   # later steps need this step's files

    spectrum = _read_csv(files["spectrum.csv"])
    w_b = {int(r["position_id"]): float(r["w_B"]) for r in spectrum}
    # acceptance criterion 4(a): blockage dominates at NLOS positions 1-4
    nlos = np.mean([w_b[p] for p in range(1, 5)])
    los = np.mean([w_b[p] for p in range(6, 16)])
    ep.check(nlos >= 5.0 * los, f"criterion 4(a): mean w_B {nlos:.4g} (NLOS) "
             f"< 5 x {los:.4g} (LOS)")
    p80 = {r["method"]: float(r["p80"]) for r in _read_csv(files["summary.csv"])}
    # acceptance criterion 5: the pool beats both baselines at p80
    ep.check(p80["rekp"] <= p80["logdistance"] - 1.0,
             f"criterion 5: rekp p80 {p80['rekp']:.4f} > logdistance p80 - 1 dB")
    ep.check(p80["rekp"] <= p80["knn"],
             f"criterion 5: rekp p80 {p80['rekp']:.4f} > knn p80 {p80['knn']:.4f}")

    weights = "\n".join(",".join(r[k] for k in ("position_id", "w_L", "w_V", "w_B", "w_D"))
                        for r in spectrum)
    ep.fingerprint = {
        "sha256": {k: sha256_file(files[k]) for k in
                   ("dataset.csv", "spectrum.csv", "pool.json", "summary.csv")},
        "p80_db": p80,
        "p80_path": "rekpool predict: loo_evaluate with the learned pool as template",
        "group_weights_sha256": hashlib.sha256(weights.encode()).hexdigest(),
    }
    with open(files["dataset.csv"]) as f:
        n_rows = sum(1 for _ in f) - 1
    ep.stats.update(realizations_per_s=n_rows / ep.stats["simulate_s"],
                    pool_file_bytes=os.path.getsize(files["pool.json"]),
                    rekp_p80_db=p80["rekp"])
    ep.traffic = {"positions": len(spectrum), "realizations": n_rows}
    ep.check(n_rows == len(spectrum) * inp.size.realizations,
             f"dataset has {n_rows} rows, expected {len(spectrum)} x {inp.size.realizations}")
    return ep


# ---------------------------------------------------------------------------
# city
# ---------------------------------------------------------------------------

@dataclass
class CityInputs:
    seed: int
    size: CitySize
    workdir: str
    scene_path: str
    n_boxes: int
    truth: list                      # unperturbed ChannelSample per position


def setup_city(seed, size, workdir):
    _fresh_dir(workdir)
    scene, traj = street_canyon(np.random.default_rng([seed, 1]), size.south_boxes,
                                size.curb_boxes, size.positions)
    path = os.path.join(workdir, "city.json")
    geometry.save_scene(path, scene, traj)
    return CityInputs(seed=seed, size=size, workdir=workdir, scene_path=path,
                      n_boxes=len(scene.scatterers), truth=los_table(scene, traj))


def city_episode(inp, tracer=None):
    d = _fresh_dir(os.path.join(inp.workdir, "city"))
    argv = ["--seed", str(inp.seed), "--out-dir", d, "--quiet", "simulate",
            "--scene", inp.scene_path, "--n-realizations", str(inp.size.realizations)]
    ep = Episode(attempted=1)
    t0 = time.perf_counter()
    with _op(tracer, "bench.simulate"):
        rc = _run_cli(argv)
    ep.stats["simulate_s"] = time.perf_counter() - t0
    if not ep.check(rc == 0, f"simulate exited with {rc}"):
        return ep
    path = os.path.join(d, "dataset.csv")
    rows = _read_csv(path)
    ep.check(len(rows) == len(inp.truth) * inp.size.realizations,
             f"dataset has {len(rows)} rows, expected "
             f"{len(inp.truth)} x {inp.size.realizations}")
    # realization 0 is the unperturbed scene: it must reproduce the oracle
    for r in rows:
        if r["realization_id"] == "0":
            s = inp.truth[int(r["position_id"]) - 1]
            ep.check(float(r["path_loss_db"]) == s.path_loss_db
                     and bool(int(r["los"])) == s.los,
                     f"position {r['position_id']}: realization 0 disagrees with path_loss")
    n_los = sum(s.los for s in inp.truth)
    ep.fingerprint = {"sha256": {"dataset.csv": sha256_file(path)}}
    ep.stats["realizations_per_s"] = len(rows) / ep.stats["simulate_s"]
    ep.traffic = {"boxes": inp.n_boxes, "los": n_los, "nlos": len(inp.truth) - n_los}
    ep.check(n_los > 0 and n_los < len(inp.truth), f"LOS/NLOS split {n_los}/"
             f"{len(inp.truth) - n_los} does not mix both states")
    return ep


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

LOG_PATTERN_SEED = 20231217
BATCHES = 2             # realization sets per position
REVISIT = 0.35          # chance a step returns to a recent position
REFRESH_EVERY = 5       # every 5th step sets force_refresh


@dataclass
class PoolInputs:
    seed: int
    size: PoolSize
    workdir: str
    sites: list        # per (scene, position): scene, traj, rx, pid, ctx, fallback
    data: dict         # (site, batch) -> (X, y)
    log: list          # (site, batch, force_refresh) per step


def setup_pool(seed, size, workdir):
    _fresh_dir(workdir)
    rng = np.random.default_rng([seed, 2])
    sites, data = [], {}
    for s in range(size.scenes):
        # scenes 200 m apart: a context from another scene shares nothing
        # but the LOS state, so its similarity stays below theta_low
        scene, traj = street_canyon(rng, 2, 1, size.positions, offset=(0.0, 200.0 * s, 0.0))
        truth = los_table(scene, traj)
        fallback = predict.fit_logdistance(
            [(float(np.linalg.norm(rx - scene.tx)), t.path_loss_db)
             for rx, t in zip(traj.positions, truth)])
        for pid, rx in enumerate(traj.positions, start=1):
            site = len(sites)
            sites.append((scene, traj, rx, pid,
                          predict.context_for(scene, traj, rx, pid), fallback))
            for b in range(BATCHES):
                cfg = features.RealizationConfig(n_realizations=size.batch_realizations,
                                                 seed=seed * 1000 + s * 10 + b)
                rows = features.realize(scene, rx, cfg, position_id=pid)
                data[site, b] = (np.array([r.features for r in rows]),
                                 np.array([r.path_loss_db for r in rows]))
    # The visiting order is the same for every seed.  Contexts depend only
    # on the position, its LOS state and which scene it is in, and those are
    # fixed by design, so every seed gives the same sequence of ingest
    # outcomes and evictions; the seed draws the scenes and realizations.
    rng = np.random.default_rng(LOG_PATTERN_SEED)
    log, recent = [], []
    for t in range(size.steps):
        if recent and rng.random() < REVISIT:
            site = recent[int(rng.integers(len(recent)))]
        else:
            site = int(rng.integers(len(sites)))
        recent = ([site] + [r for r in recent if r != site])[:4]
        refresh = t % REFRESH_EVERY == REFRESH_EVERY - 1
        log.append((site, int(rng.integers(BATCHES)), refresh))
    return PoolInputs(seed=seed, size=size, workdir=workdir, sites=sites, data=data, log=log)


def percentile(values, level):
    """Smallest value v with at least `level` of the values <= v."""
    return predict.ErrorReport("", tuple(sorted(values)), 0).percentile(level)


def pool_episode(inp, tracer=None):
    size = inp.size
    d = _fresh_dir(os.path.join(inp.workdir, "pool"))
    a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
    kp = pool.Pool(capacity=size.capacity,
                   forest_params=forest.ForestParams(n_trees=size.n_trees, seed=inp.seed))
    ep = Episode()
    query_ms, ingest_ms, errors_db = [], [], []
    outcomes, evicted, preds = Counter(), 0, []
    start = time.perf_counter()
    for t, (site, batch, refresh) in enumerate(inp.log, start=1):
        scene, traj, rx, pid, ctx, fallback = inp.sites[site]
        X, y = inp.data[site, batch]
        ep.attempted += 1
        with _op(tracer, "bench.step"):
            t0 = time.perf_counter()
            p = predict.predict_rekp(kp, scene, traj, rx, pid, fallback=fallback)
            t1 = time.perf_counter()
            before = len(kp.entries)
            outcome, _ = kp.ingest(ctx, X, y, now=float(t), force_refresh=refresh)
            t2 = time.perf_counter()
        query_ms.append((t1 - t0) * 1e3)
        ingest_ms.append((t2 - t1) * 1e3)
        outcomes[outcome.value] += 1
        evicted += before + 1 - len(kp.entries) if outcome in (
            pool.Outcome.TRANSFERRED, pool.Outcome.GENERATED_NEW) else 0
        preds.append(repr(p.predicted_db))
        if not p.fallback:
            errors_db.append(p.abs_error_db)
        ep.check(len(kp.entries) <= kp.capacity,
                 f"step {t}: {len(kp.entries)} entries over capacity {kp.capacity}")
        if t % size.checkpoint_every == 0 or t == len(inp.log):
            ep.attempted += 1
            with _op(tracer, "bench.checkpoint"):
                pool.save_pool(a, kp)
                kp = pool.load_pool(a)
                pool.save_pool(b, kp)
            with open(a, "rb") as fa, open(b, "rb") as fb:
                ep.check(fa.read() == fb.read(), f"step {t}: save->load->save not byte-exact")
    wall_s = time.perf_counter() - start
    n = len(query_ms)
    ep.samples = {"query": query_ms, "ingest": ingest_ms}
    ep.stats = {
        "ops_per_s": n / wall_s,              # checkpoints included
        "pool_file_bytes": os.path.getsize(a) if os.path.exists(a) else 0,
        "rekp_p80_db": percentile(errors_db, 0.8) if errors_db else 0.0,
    }
    ep.traffic = {"outcomes": {o.value: outcomes[o.value] for o in pool.Outcome},
                  "evicted": evicted, "fallbacks": n - len(errors_db)}
    ep.fingerprint = {
        "sha256": {"pool.json": sha256_file(a) if os.path.exists(a) else None,
                   "predictions": hashlib.sha256("\n".join(preds).encode()).hexdigest()},
        "outcomes": ep.traffic["outcomes"],
        "rekp_p80_db": ep.stats["rekp_p80_db"],
    }
    for o, count in ep.traffic["outcomes"].items():
        ep.check(count > 0, f"the ingest log produced no {o} outcome")
    ep.check(evicted > 0, "the ingest log never evicted")
    return ep


WORKLOADS = {
    "street": (setup_street, street_episode, StreetSize()),
    "city": (setup_city, city_episode, CitySize()),
    "pool": (setup_pool, pool_episode, PoolSize()),
}
