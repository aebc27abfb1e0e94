"""End-to-end acceptance gates for the whole pipeline.

Each test prints one "criterion N (name): PASS/FAIL" line so a plain
`pytest -v -s tests/test_acceptance.py` doubles as the acceptance
report.  Criteria 4 and 5 share one full-scale canonical run (seed 42,
200 realizations per position) through a module-scoped fixture.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rekpool.features import (FEATURE_NAMES, RealizationConfig, StreamRecord,
                              align_streams)
from rekpool.forest import ForestParams, fit, permutation_importance
from rekpool.geometry import (Scatterer, canonical_street_scene,
                              ray_box_intersect)
from rekpool.pipeline import (FitCache, learn_positions, loo_evaluate,
                              simulate_trajectory)
from rekpool.pool import Context, Pool, PoolVersionError, pool_from_dict, pool_to_dict, save_pool
from rekpool.predict import fit_logdistance
from rekpool.propagation import SPEED_OF_LIGHT, fspl_db, trace_paths
from rekpool.spectrum import SUBSETS, knowledge_delta, spectrum

from test_features import oracle_align, random_streams
from test_pool import SMALL_PARAMS, ctx as make_ctx, data as make_data

SEED = 42


@contextmanager
def criterion(number, name, capfd=None):
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        line = f"criterion {number} ({name}): {'PASS' if outcome['ok'] else 'FAIL'}"
        if capfd is not None:
            # bypass capture so the line lands in the pytest transcript
            with capfd.disabled():
                print(line)
        else:
            print(line)


@pytest.fixture(scope="module")
def canonical_run():
    """Seeded full-scale run on the canonical street scene."""
    scene, traj = canonical_street_scene(seed=SEED)
    params = ForestParams(seed=SEED)
    cache = FitCache()
    t0 = time.monotonic()
    rows = simulate_trajectory(scene, traj,
                               RealizationConfig(n_realizations=200, seed=SEED))
    knowledge = learn_positions(scene, traj, rows, params, cache=cache)
    elapsed = time.monotonic() - t0
    return {"scene": scene, "traj": traj, "rows": rows, "params": params,
            "cache": cache, "knowledge": knowledge, "learn_seconds": elapsed}


def test_criterion_1_geometry_physics_oracles(capfd):
    with criterion(1, "geometry/physics oracles", capfd):
        t0 = time.monotonic()
        rng = np.random.default_rng(SEED)

        # fspl closed form to 1e-9 dB over randomized (d, f)
        for _ in range(1000):
            d = float(rng.uniform(0.05, 10_000.0))
            f = float(rng.uniform(1e8, 3e11))
            expected = 20.0 * (math.log10(4.0 * math.pi) + math.log10(d)
                               + math.log10(f) - math.log10(SPEED_OF_LIGHT))
            assert abs(fspl_db(d, f) - expected) < 1e-9

        # reflection lengths match the analytic image construction
        scene, traj = canonical_street_scene()
        checked = 0
        for rx in traj.positions:
            for p in trace_paths(scene, rx):
                if p.kind != "Reflection":
                    continue
                s = scene.scatterer_by_id(p.via_scatterer)
                for axis in range(3):
                    for value in (s.lo[axis], s.hi[axis]):
                        if abs(p.reflection_point[axis] - value) < 1e-9:
                            img = np.array(scene.tx, float)
                            img[axis] = 2.0 * value - img[axis]
                            assert abs(p.length_m
                                       - float(np.linalg.norm(rx - img))) < 1e-9
                            checked += 1
        assert checked > 0

        # ray-box agrees with dense sampling on 1,000 random cases
        n_samples = 20_000
        t_max = 40.0
        step = t_max / (n_samples - 1)
        t_grid = np.linspace(0.0, t_max, n_samples)
        for _ in range(1000):
            box = Scatterer(id=1, center=rng.uniform(-5, 5, 3),
                            dims=rng.uniform(0.5, 4.0, 3))
            origin = rng.uniform(-12, 12, 3)
            direction = rng.normal(size=3)
            while np.linalg.norm(direction) < 1e-3:
                direction = rng.normal(size=3)
            pts = origin + t_grid[:, None] * direction
            inside = np.all((pts >= box.lo) & (pts <= box.hi), axis=1)
            hit = ray_box_intersect(origin, direction, box)
            if not inside.any():
                # analytic overlap, if any, must be thinner than the grid
                if hit is not None and hit[1] > 0:
                    assert hit[1] - max(hit[0], 0.0) < 2 * step
            else:
                idx = np.flatnonzero(inside)
                assert hit is not None
                assert max(hit[0], 0.0) <= t_grid[idx[0]] + 2 * step
                assert hit[1] >= t_grid[idx[-1]] - 2 * step
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_fifteen_combinations(capfd):
    with criterion(2, "15 canonically ordered combinations", capfd):
        assert len(SUBSETS) == 15
        assert len(set(SUBSETS)) == 15
        sizes = [len(s) for s in SUBSETS]
        assert sizes == sorted(sizes)
        assert SUBSETS[-1] == "LVBD"
        rng = np.random.default_rng(SEED)
        from rekpool.spectrum import GroupWeights
        for _ in range(1000):
            raw = rng.uniform(0.0, 1.0, 4)
            raw[rng.integers(0, 4)] += 0.1  # keep the total positive
            w = raw / raw.sum()
            sp = spectrum(GroupWeights(*map(float, w)))
            vals = dict(zip(SUBSETS, sp.values))
            for a in SUBSETS:
                for b in SUBSETS:
                    if set(a) <= set(b):
                        assert vals[a] <= vals[b] + 1e-12
            assert abs(vals["LVBD"] - 1.0) < 1e-9


def test_criterion_3_forest_sanity(capfd):
    with criterion(3, "forest sanity benchmark", capfd):
        t0 = time.monotonic()
        rng = np.random.default_rng(SEED)
        X = rng.uniform(-1, 1, size=(500, 4))
        y = 3.0 * X[:, 0] + 0.05 * rng.normal(size=500)
        params = ForestParams(seed=SEED)
        model = fit(X, y, params)
        assert model.oob_r2 is not None and model.oob_r2 >= 0.95
        imp = permutation_importance(model, X, y, seed=SEED)
        assert imp[0] / imp.sum() >= 0.9
        refit = fit(X, y, params)
        assert refit.to_dict() == model.to_dict()
        assert time.monotonic() - t0 < 30.0


def test_criterion_4_qualitative_reproduction(canonical_run, capfd):
    with criterion(4, "street-scene qualitative reproduction", capfd):
        knowledge = canonical_run["knowledge"]
        by_pos = {k.position_id: k for k in knowledge}
        assert not any(k.weights.degenerate for k in knowledge)

        # (a) blockage dominates at NLOS positions 1-4 vs LOS 6-15
        w_b_nlos = np.mean([by_pos[p].weights.w_B for p in range(1, 5)])
        w_b_los = np.mean([by_pos[p].weights.w_B for p in range(6, 16)])
        assert w_b_nlos >= 5.0 * w_b_los

        # (b) the three-group combination carries the LOS effect
        for k in knowledge:
            if k.los:
                assert k.spectrum.value("LVD") >= 0.95

        # (c) knowledge updates slowly within a state, sharply across it
        same_state = []
        for a, b in zip(knowledge, knowledge[1:]):
            if a.los == b.los:
                same_state.append(knowledge_delta(a.spectrum, b.spectrum))
        transition = knowledge_delta(by_pos[4].spectrum, by_pos[6].spectrum)
        assert np.mean(same_state) < transition

        assert canonical_run["learn_seconds"] < 120.0


def test_criterion_5_prediction_margin(canonical_run, capfd):
    with criterion(5, "prediction margin at p80", capfd):
        _, reports = loo_evaluate(canonical_run["scene"], canonical_run["traj"],
                                  canonical_run["rows"],
                                  pool_template=Pool(forest_params=canonical_run["params"]),
                                  cache=canonical_run["cache"])
        rekp = reports["rekp"].p80
        logd = reports["logdistance"].p80
        knn = reports["knn"].p80
        assert rekp <= logd - 1.0
        assert rekp <= knn


def test_criterion_6_pool_state_machine(tmp_path, capfd):
    with criterion(6, "pool state machine", capfd):
        # 500-operation fuzz: capacity invariant plus byte-exact replay
        rng = np.random.default_rng(SEED)
        ops = []
        for _ in range(500):
            c = make_ctx(fp=int(rng.integers(0, 3)),
                         pid=int(rng.integers(1, 12)),
                         rx=(float(rng.integers(0, 8)) * 25.0, 0.0, 1.5),
                         los=bool(rng.integers(0, 2)),
                         f=float(rng.choice([3.5e9, 28e9])))
            ops.append((c, int(rng.integers(0, 2000)), bool(rng.random() < 0.05)))

        def run(ops):
            pool = Pool(capacity=6, forest_params=SMALL_PARAMS)
            for t, (c, seed, refresh) in enumerate(ops, start=1):
                pool.ingest(c, *make_data(seed=seed, n=12), now=float(t),
                            force_refresh=refresh)
                assert len(pool.entries) <= pool.capacity
            return pool

        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_pool(pa, run(ops))
        save_pool(pb, run(ops))
        assert pa.read_bytes() == pb.read_bytes()

        # controlled three-entry eviction: lowest utilization goes
        pool = Pool(capacity=3, forest_params=SMALL_PARAMS)
        pool.theta_high, pool.theta_low = 2.0, 1.5  # force independent entries
        for i, util in enumerate((5, 1, 3), start=1):
            pool.ingest(make_ctx(pid=i), *make_data(seed=i), now=1.0)
            pool.entries[i].utilization_count = util
        pool.capacity = 2
        assert pool.sort_and_evict() == [2]

        # transfer warm start at equal budget is not worse than cold
        pool = Pool(capacity=4, forest_params=SMALL_PARAMS)
        pool.ingest(make_ctx(rx=(0, 0, 1.5)), *make_data(seed=0, n=60), now=1.0)
        X2, y2 = make_data(seed=2, n=60)
        outcome, eid = pool.ingest(make_ctx(pid=2, rx=(40, 0, 1.5)), X2, y2, now=2.0)
        assert outcome.value == "Transferred"
        cold = fit(X2, y2, SMALL_PARAMS, feature_names=FEATURE_NAMES)
        assert pool.entries[eid].model.oob_r2 >= cold.oob_r2 - 0.02


def test_criterion_7_persistence(tmp_path, capfd):
    with criterion(7, "persistence round trips", capfd):
        from rekpool.geometry import load_scene, save_scene, scene_from_dict, scene_to_dict

        scene, traj = canonical_street_scene(seed=SEED)
        s1 = tmp_path / "scene.json"
        save_scene(s1, scene, traj)
        s2 = tmp_path / "scene2.json"
        save_scene(s2, *load_scene(s1))
        assert s1.read_bytes() == s2.read_bytes()
        bumped = scene_to_dict(scene, traj)
        bumped["version"] = 99
        with pytest.raises(ValueError):
            scene_from_dict(bumped)

        pool = Pool(capacity=4, forest_params=SMALL_PARAMS)
        pool.ingest(make_ctx(pid=1), *make_data(seed=0), now=1.0)
        pool.ingest(make_ctx(pid=2, rx=(40, 0, 1.5)), *make_data(seed=1), now=2.0)
        p1 = tmp_path / "pool.json"
        save_pool(p1, pool)
        from rekpool.pool import load_pool
        p2 = tmp_path / "pool2.json"
        save_pool(p2, load_pool(p1))
        assert p1.read_bytes() == p2.read_bytes()
        doc = pool_to_dict(pool)
        doc["version"] = 99
        with pytest.raises(PoolVersionError):
            pool_from_dict(doc)


def test_criterion_8_alignment_oracle(capfd):
    with criterion(8, "stream alignment vs exhaustive oracle", capfd):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            pei, chan = random_streams(rng, max_each=10)
            time_tol = float(rng.uniform(0.5, 4.0))
            pos_tol = float(rng.uniform(1.0, 8.0))
            pairs, rep = align_streams(pei, chan, time_tol, pos_tol)
            count, cost = oracle_align(pei, chan, time_tol, pos_tol)
            assert rep.n_pairs == count
            got = sum(abs(pei[i].timestamp - chan[j].timestamp) for i, j in pairs)
            assert abs(got - cost) < 1e-9
