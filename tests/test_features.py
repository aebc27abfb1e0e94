import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rekpool.features import (DATASET_HEADER, FEATURE_NAMES, GROUP_MEMBER_INDEX,
                              GROUP_OF_MEMBER, GROUPS, DatasetRow, DropReport,
                              RealizationConfig, StreamRecord, align_streams,
                              dataset_to_csv, extract_features, feature_rows,
                              _jittered_receivers, load_dataset, realize, save_dataset,
                              trace_features)
from rekpool import features, geometry, propagation
from rekpool.geometry import EPS_EXACT, Scatterer, Scene, as_vec3, canonical_street_scene
from rekpool.pipeline import simulate_trajectory
from rekpool.propagation import InsideScatterer, _validate_rx, trace, trace_all, trace_paths


class TestFeatureLayout:
    def test_sixteen_members(self):
        assert len(FEATURE_NAMES) == 16

    def test_partition_sizes(self):
        sizes = {g: len(idx) for g, idx in GROUP_MEMBER_INDEX.items()}
        assert sizes == {"L": 6, "V": 3, "B": 3, "D": 4}

    def test_partition_covers_all_members(self):
        covered = sorted(i for idx in GROUP_MEMBER_INDEX.values() for i in idx)
        assert covered == list(range(16))
        assert all(FEATURE_NAMES[i].startswith(g)
                   for g in GROUPS for i in GROUP_MEMBER_INDEX[g])

    def test_group_of_member_consistent(self):
        assert len(GROUP_OF_MEMBER) == 16
        assert set(GROUP_OF_MEMBER) == set(GROUPS)


class TestExtractFeatures:
    def test_empty_scene_sentinels(self):
        scene = Scene(tx=(0, 0, 10), frequency_hz=1e9)
        rx = np.array([30.0, 0.0, 10.0])
        f = dict(zip(FEATURE_NAMES, extract_features(scene, rx)))
        lo, hi = scene.bounds()
        sentinel = np.linalg.norm(hi - lo)
        assert (f["L_cx"], f["L_cy"], f["L_cz"]) == (0.0, 0.0, 0.0)
        assert (f["L_rx"], f["L_ry"], f["L_rz"]) == pytest.approx((30, 0, 10))
        assert f["V_total"] == f["V_maxh"] == f["V_area"] == 0.0
        assert (f["B_blocked"], f["B_count"], f["B_frac"]) == (0.0, 0.0, 0.0)
        assert f["D_txrx"] == pytest.approx(30.0)
        assert f["D_txs"] == f["D_srx"] == pytest.approx(sentinel)
        # LOS exists, so the strongest path is the direct one
        assert f["D_pathlen"] == pytest.approx(30.0)

    def test_single_blocker_hand_computed(self):
        wall = Scatterer(id=3, center=(10, 0, 0), dims=(2, 50, 50))
        scene = Scene(tx=(0, 0, 0), frequency_hz=1e9, scatterers=(wall,))
        rx = np.array([20.0, 0.0, 0.0])
        f = dict(zip(FEATURE_NAMES, extract_features(scene, rx)))
        assert (f["L_cx"], f["L_cy"], f["L_cz"]) == pytest.approx((10, 0, 0))
        assert f["V_total"] == pytest.approx(2 * 50 * 50)
        assert f["V_maxh"] == pytest.approx(25.0)
        assert f["V_area"] == pytest.approx(50 * 50)
        assert (f["B_blocked"], f["B_count"]) == (1.0, 1.0)
        assert f["B_frac"] == pytest.approx(0.1)  # 2 m blocked of 20 m
        assert f["D_txs"] == pytest.approx(10.0)
        assert f["D_srx"] == pytest.approx(10.0)
        # no path at all: sentinel fills the path-length slot
        lo, hi = scene.bounds()
        assert f["D_pathlen"] == pytest.approx(np.linalg.norm(hi - lo))

    def test_canonical_first_position_recomputed(self):
        """Independent arithmetic re-derivation from the known scene layout."""
        scene, traj = canonical_street_scene()
        rx = traj.positions[0]
        f = dict(zip(FEATURE_NAMES, extract_features(scene, rx)))
        # blocker (id 1) occludes the direct segment; the east building
        # (id 3) carries the only reflections, so both are effective
        eff = [scene.scatterer_by_id(1), scene.scatterer_by_id(3)]
        centroid = np.mean([s.center for s in eff], axis=0)
        assert (f["L_cx"], f["L_cy"], f["L_cz"]) == pytest.approx(tuple(centroid))
        assert (f["L_rx"], f["L_ry"], f["L_rz"]) == pytest.approx(tuple(rx))
        assert f["V_total"] == pytest.approx(sum(float(np.prod(s.dims)) for s in eff))
        assert f["V_maxh"] == pytest.approx(max(s.center[2] + s.dims[2] / 2 for s in eff))
        largest = max(eff, key=lambda s: float(np.prod(s.dims)))
        assert f["V_area"] == pytest.approx(max(largest.dims[0], largest.dims[1])
                                            * largest.dims[2])
        assert f["B_blocked"] == 1.0
        assert f["B_count"] == 1.0
        assert f["D_txrx"] == pytest.approx(float(np.linalg.norm(rx - scene.tx)))
        assert f["D_txs"] == pytest.approx(min(
            float(np.linalg.norm(scene.tx - s.center)) for s in eff))
        assert f["D_srx"] == pytest.approx(min(
            float(np.linalg.norm(rx - s.center)) for s in eff))
        assert f["D_pathlen"] == pytest.approx(trace_paths(scene, rx)[0].length_m)


def scalar_trace_features(tr):
    """Reference: the features read from `Scatterer` objects, one box at a
    time, as `trace_features` did before it read the scene's arrays."""
    scene, rx = tr.scene, tr.rx
    eff = [scene.scatterer_by_id(i) for i in tr.effective_scatterers()]
    lo, hi = scene.bounds()
    sentinel = float(np.linalg.norm(hi - lo))
    if eff:
        centroid = np.array([s.center for s in eff]).mean(axis=0)
        v_total = sum(float(np.prod(s.dims)) for s in eff)
        v_maxh = max(float(s.hi[2]) for s in eff)
        largest = max(eff, key=lambda s: float(np.prod(s.dims)))
        v_area = float(max(largest.dims[0], largest.dims[1]) * largest.dims[2])
        d_txs = min(float(np.linalg.norm(scene.tx - s.center)) for s in eff)
        d_srx = min(float(np.linalg.norm(rx - s.center)) for s in eff)
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


def scalar_realization(scene, rx, cfg, position_id, i):
    """Reference: realization i >= 1's scene, rebuilt from jittered
    `Scatterer`s with one size-3 draw per box, and its receiver."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed & 0xFFFFFFFFFFFFFFFF, position_id, i]))
    sc = Scene(tx=scene.tx, frequency_hz=scene.frequency_hz, scatterers=tuple(
        Scatterer(id=s.id, center=s.center + rng.normal(0.0, cfg.scatterer_jitter_sigma, 3),
                  dims=s.dims, reflection_loss_db=s.reflection_loss_db)
        for s in scene.scatterers))
    for _attempt in range(100):
        cand = rx + rng.normal(0.0, cfg.rx_jitter_sigma, 3)
        if not sc.ids_containing(cand):
            return sc, cand
    raise ValueError(f"could not place jittered RX outside scatterers at position {position_id}")


def scalar_realize(scene, rx, cfg, position_id=0, timestamp=0.0):
    """Reference: `realize` tracing one realization at a time, each in a
    `Scene` of jittered `Scatterer`s (`scalar_realization`)."""
    rx = as_vec3(rx)
    rows = []
    for i in range(cfg.n_realizations):
        sc, rx_i = (scene, rx) if i == 0 else scalar_realization(scene, rx, cfg, position_id, i)
        tr = trace(sc, rx_i)
        sample = tr.sample(position_id=position_id)
        rows.append(DatasetRow(position_id=position_id, realization_id=i,
                               features=scalar_trace_features(tr),
                               path_loss_db=sample.path_loss_db, los=sample.los,
                               timestamp=timestamp))
    return rows


def sequential_receivers(scenes, rx, rngs, sigma, position_id):
    """Reference: `_jittered_receivers` placing one realization at a time,
    each candidate tested alone by `_validate_rx`."""
    rxs = []
    for sc, rng in zip(scenes, rngs):
        for _attempt in range(100):
            try:
                rxs.append(_validate_rx(sc, rx + rng.normal(0.0, sigma, 3)))
                break
            except InsideScatterer:
                pass
        else:
            raise ValueError(
                f"could not place jittered RX outside scatterers at position {position_id}")
    return np.array(rxs).reshape(-1, 3)


def outcome(fn, *args, **kwargs):
    """The dataset CSV a realize function gives, or the error it raises."""
    try:
        return dataset_to_csv(fn(*args, **kwargs))
    except ValueError as exc:
        return type(exc), str(exc)


def street_row_scene(n_boxes):
    """The canonical street plus a row of boxes of unequal size along its
    south side, some tall enough to occlude reflected paths."""
    scene, traj = canonical_street_scene()
    row = tuple(Scatterer(id=10 + k, center=(8.0 * k + 3.0, -5.0 - k % 3, 1.0 + k % 4),
                          dims=(3.0 + k % 2, 2.0, 2.0 + 2 * (k % 4)))
                for k in range(n_boxes))
    return Scene(tx=scene.tx, frequency_hz=scene.frequency_hz,
                 scatterers=scene.scatterers + row), traj


half = st.integers(-4, 16).map(lambda v: v / 2.0)
grid_box = st.tuples(st.tuples(*[st.integers(0, 6)] * 3), st.tuples(*[st.integers(1, 3)] * 3))


class TestArrayFeatures:
    """Array-based `trace_features` == the per-`Scatterer` reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(boxes=st.lists(grid_box, max_size=5), tx=st.tuples(half, half, half),
           rx=st.tuples(half, half, half))
    def test_random_scenes(self, boxes, tx, rx):
        scats = tuple(Scatterer(id=7 - i, center=np.add(lo, np.divide(dims, 2.0)), dims=dims)
                      for i, (lo, dims) in enumerate(boxes))
        assume(not any(np.all(np.abs(np.subtract(pt, s.center)) <= s.dims / 2 + EPS_EXACT)
                       for s in scats for pt in (tx, rx)))
        assume(tx != rx)
        tr = trace(Scene(tx=tx, frequency_hz=28e9, scatterers=scats), rx)
        assert np.array_equal(trace_features(tr), scalar_trace_features(tr))

    def test_jittered_street_scenes(self):
        scene, traj = street_row_scene(10)
        rng = np.random.default_rng(5)
        for rx in traj.positions:
            moved = scene.with_centers(scene.box_center + rng.normal(0.0, 0.5, (13, 3)))
            tr = trace(moved, rx)
            assert np.array_equal(trace_features(tr), scalar_trace_features(tr))


class TestJitterDraw:
    @settings(max_examples=100, deadline=None)
    @given(n_boxes=st.integers(0, 25), seed=st.integers(0, 2**32 - 1),
           sigma=st.floats(0.0, 5.0, allow_nan=False))
    def test_one_draw_equals_a_draw_per_box(self, n_boxes, seed, sigma):
        """One (S, 3) normal draw gives the values of S size-3 draws, and
        leaves the stream where they leave it."""
        a = np.random.default_rng(np.random.SeedSequence([seed, 3, 1]))
        b = np.random.default_rng(np.random.SeedSequence([seed, 3, 1]))
        per_box = np.array([a.normal(0.0, sigma, 3) for _ in range(n_boxes)]).reshape(-1, 3)
        assert np.array_equal(b.normal(0.0, sigma, (n_boxes, 3)), per_box)
        assert np.array_equal(b.normal(0.0, 0.2, 3), a.normal(0.0, 0.2, 3))


class TestRealize:
    @pytest.mark.parametrize("pid", [1, 4, 9, 15])
    def test_matches_per_scatterer_reference(self, pid):
        scene, traj = street_row_scene(10)
        cfg = RealizationConfig(n_realizations=12, seed=11)
        got = realize(scene, traj.positions[pid - 1], cfg, position_id=pid, timestamp=2.0)
        want = scalar_realize(scene, traj.positions[pid - 1], cfg, position_id=pid,
                              timestamp=2.0)
        assert dataset_to_csv(got) == dataset_to_csv(want)

    def test_jitter_swallowing_tx_rejected(self):
        # TX 0.1 m outside a large box: jitter moves the box over it
        box = Scatterer(id=1, center=(0.0, 0.0, 0.0), dims=(10.0, 10.0, 10.0))
        scene = Scene(tx=(5.1, 0.0, 0.0), frequency_hz=28e9, scatterers=(box,))
        cfg = RealizationConfig(n_realizations=20, scatterer_jitter_sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="TX lies inside scatterer 1"):
            realize(scene, (30.0, 0.0, 0.0), cfg)

    def test_each_receiver_tested_once(self, monkeypatch):
        """One fault test per candidate receiver, one array pass per round of
        draws; a receiver drawn inside a box is drawn again, as the reference
        does.  The jittered scenes' TX tests run over all realizations at
        once, in `Scene.realizations`, not through `_rx_faults`."""
        box = Scatterer(id=1, center=(10.0, 0.0, 1.5), dims=(2.0, 2.0, 3.0))
        scene = Scene(tx=(0.0, 0.0, 10.0), frequency_hz=28e9, scatterers=(box,))
        rx = (11.05, 0.0, 1.5)  # 5 cm from the box: many jittered receivers land inside
        cfg = RealizationConfig(n_realizations=12, scatterer_jitter_sigma=0.0, seed=2)
        passes, tested, inside = [], [], []
        real = propagation._rx_faults

        def counted(tx, bound_lo, bound_hi, box_lo, box_hi, rx):
            faults = real(tx, bound_lo, bound_hi, box_lo, box_hi, rx)
            passes.append(len(rx))
            tested.extend(rx)
            inside.extend((faults == propagation.RX_INSIDE).tolist())
            return faults
        for module in (propagation, features):
            monkeypatch.setattr(module, "_rx_faults", counted)
        got = realize(scene, rx, cfg, position_id=3)
        redrawn = sum(inside)
        assert redrawn > 0
        assert len(tested) == cfg.n_realizations + redrawn
        # the unperturbed receiver, then every jittered one at once, then the redraws
        assert passes[:2] == [1, cfg.n_realizations - 1]
        assert passes[2:] == sorted(passes[2:], reverse=True) and len(passes) > 2
        assert not any(np.array_equal(p, scene.tx) for p in tested)
        monkeypatch.undo()
        assert dataset_to_csv(got) == dataset_to_csv(scalar_realize(scene, rx, cfg, position_id=3))

    class Counting:
        """A stream that counts its receiver draws."""

        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def normal(self, loc, scale, size):
            self.draws += 1
            return self.rng.normal(loc, scale, size)

    def test_batched_placement_matches_sequential_reference(self):
        """The same rows, the same number of draws from every stream and the
        same first error as placing the realizations one by one.  The
        receiver sits 5 cm off a box, so candidates are drawn again, the box
        jitter can move the box over it, and with 30 m of jitter candidates
        leave the scene bounds."""
        box = Scatterer(id=1, center=(10.0, 0.0, 1.5), dims=(2.0, 2.0, 3.0))
        wall = Scatterer(id=2, center=(11.0, 4.0, 2.0), dims=(4.0, 1.0, 4.0))
        scene = Scene(tx=(0.0, 0.0, 10.0), frequency_hz=28e9, scatterers=(box, wall))
        rx = np.array([11.05, 0.0, 1.5])
        seen = set()
        for rx_sigma in (0.05, 0.3, 3.0, 30.0):
            for seed in range(6):
                results = []
                for place in (_jittered_receivers, sequential_receivers):
                    rngs = [np.random.default_rng([seed, 5, i]) for i in range(40)]
                    scenes, _ = scene.realizations([
                        scene.box_center + rng.normal(0.0, 0.3, scene.box_center.shape)
                        for rng in rngs])
                    counted = [self.Counting(rng) for rng in rngs[:len(scenes)]]
                    try:
                        got = place(scenes, rx, counted, rx_sigma, 7)
                    except ValueError as exc:
                        results.append(str(exc))
                    else:
                        results.append((got.tobytes(), [c.draws for c in counted]))
                assert results[0] == results[1]
                seen.add(results[0] if isinstance(results[0], str)
                         else "redrawn" if max(results[0][1]) > 1 else "placed")
        assert seen >= {"redrawn", "rx outside scene bounds",
                        "could not place jittered RX outside scatterers at position 7"}

    class Scripted:
        """A stream whose draws are given: each `normal` call returns the next
        offset, whatever its scale."""

        def __init__(self, offsets):
            self.offsets = iter(offsets)

        def normal(self, loc, scale, size):
            return np.asarray(next(self.offsets), dtype=float)

    @pytest.mark.parametrize("case, want", [
        # realization 0 is drawn inside the box 100 times; 1 leaves the bounds
        ("exhausted before outside", "could not place"),
        # realization 0 lands on the TX after two redraws; 1 is exhausted
        ("at TX before exhausted", "rx must differ from the TX"),
        # realization 0 lands 1e-170 m from the TX, whose squared norm underflows
        ("underflow at TX", "rx must differ from the TX"),
        # realization 1 lands on the TX in the first round, 0 leaves the
        # bounds in the second: the lower realization's error wins
        ("outside before at TX", "rx outside scene bounds"),
        ("not finite", "vector components must be finite"),
        # the last realization is placed by its 100th draw
        ("placed", None),
    ])
    def test_scripted_first_error(self, case, want):
        """Every kind of fault, in either order: the lowest failing
        realization's error is raised, as the sequential reference raises."""
        box = Scatterer(id=1, center=(10.0, 0.0, 1.5), dims=(2.0, 2.0, 3.0))
        scene = Scene(tx=(0.0, 0.0, 0.0), frequency_hz=28e9, scatterers=(box,))
        rx = np.array([12.0, 0.0, 1.5])
        into_box, free = (-2.0, 0.0, 0.0), (0.5, 0.0, 0.0)
        at_tx, near_tx, outside = (-12.0, 0.0, -1.5), (-12.0, 1e-170, -1.5), (1e3, 0.0, 0.0)
        scripts = {
            "exhausted before outside": [[into_box] * 100, [outside]],
            "at TX before exhausted": [[into_box, into_box, at_tx], [into_box] * 100],
            "underflow at TX": [[near_tx], [free]],
            "outside before at TX": [[into_box, outside], [at_tx]],
            "not finite": [[(math.inf, 0.0, 0.0)], [into_box, free]],
            "placed": [[into_box, free], [free], [into_box] * 99 + [free]],
        }[case]
        results = []
        for place in (_jittered_receivers, sequential_receivers):
            scenes, _ = scene.realizations([scene.box_center] * len(scripts))
            rngs = [self.Scripted(s) for s in scripts]
            try:
                results.append(place(scenes, rx, rngs, 1.0, 4).tobytes())
            except ValueError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        assert (want is None) == isinstance(results[0], bytes)
        if want is not None:
            assert results[0].startswith(want)

    @pytest.mark.parametrize("sigma", [1e155, 1e160, 1e300])
    def test_huge_jitter_rejected(self, sigma):
        """A valid but huge box jitter makes distances that overflow: the
        realization is refused by name, with no overflow warning, rather
        than giving rows of inf."""
        scene, traj = canonical_street_scene()
        cfg = RealizationConfig(n_realizations=5, scatterer_jitter_sigma=sigma, seed=1)
        with pytest.raises(ValueError, match="^realization 1 at position 4 has non-finite"):
            realize(scene, traj.positions[3], cfg, position_id=4)

    def test_unplaceable_receiver_rejected(self):
        # with no receiver jitter, a box jittered over the receiver keeps every draw inside
        box = Scatterer(id=1, center=(10.0, 0.0, 1.5), dims=(2.0, 2.0, 3.0))
        scene = Scene(tx=(0.0, 0.0, 10.0), frequency_hz=28e9, scatterers=(box,))
        cfg = RealizationConfig(n_realizations=20, scatterer_jitter_sigma=1.0,
                                rx_jitter_sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="could not place jittered RX"):
            realize(scene, (11.05, 0.0, 1.5), cfg, position_id=2)

    def test_realization_zero_unperturbed(self):
        scene, traj = canonical_street_scene()
        cfg = RealizationConfig(n_realizations=3, seed=5)
        rows = realize(scene, traj.positions[6], cfg, position_id=7)
        assert rows[0].realization_id == 0
        assert np.allclose(rows[0].features,
                           extract_features(scene, traj.positions[6]))

    def test_zero_sigma_rows_identical(self):
        scene, traj = canonical_street_scene()
        cfg = RealizationConfig(n_realizations=5, scatterer_jitter_sigma=0.0,
                                rx_jitter_sigma=0.0, seed=5)
        rows = realize(scene, traj.positions[0], cfg, position_id=1)
        for r in rows[1:]:
            assert np.array_equal(r.features, rows[0].features)
            assert r.path_loss_db == rows[0].path_loss_db

    def test_deterministic(self):
        scene, traj = canonical_street_scene()
        cfg = RealizationConfig(n_realizations=8, seed=42)
        a = realize(scene, traj.positions[3], cfg, position_id=4)
        b = realize(scene, traj.positions[3], cfg, position_id=4)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.features, rb.features)
            assert ra.path_loss_db == rb.path_loss_db

    def test_jitter_gives_variance(self):
        scene, traj = canonical_street_scene()
        cfg = RealizationConfig(n_realizations=30, seed=0)
        rows = realize(scene, traj.positions[0], cfg, position_id=1)
        losses = np.array([r.path_loss_db for r in rows])
        assert losses.std() > 0.0

    def test_traces_each_realization_once(self, monkeypatch):
        """All realizations go through one `trace_all` call, one scene each."""
        calls = []
        real = propagation.trace_all

        def counted(scenes, rxs):
            calls.append(len(scenes))
            return real(scenes, rxs)
        # trace reaches trace_all through propagation's name, realize through its own
        monkeypatch.setattr(features, "trace_all", counted)
        monkeypatch.setattr(propagation, "trace_all", counted)
        scene, traj = canonical_street_scene()
        rows = realize(scene, traj.positions[0], RealizationConfig(n_realizations=6, seed=1),
                       position_id=1)
        assert len(rows) == 6
        assert calls == [6]

    def test_n_realizations_lower_bound(self):
        with pytest.raises(ValueError):
            RealizationConfig(n_realizations=1)

    @pytest.mark.parametrize("kwargs", [
        dict(n_realizations=2.5), dict(n_realizations=True), dict(n_realizations="12"),
        dict(seed=1.5), dict(seed=True), dict(seed="3"),
        dict(rx_jitter_sigma=math.nan), dict(rx_jitter_sigma=math.inf),
        dict(rx_jitter_sigma=-0.1), dict(scatterer_jitter_sigma=math.nan),
        dict(scatterer_jitter_sigma=-math.inf)])
    def test_unusable_config_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RealizationConfig(**kwargs)

    def test_numpy_integers_taken_as_ints(self):
        cfg = RealizationConfig(n_realizations=np.int64(3), seed=np.uint64(2**63 + 5))
        assert type(cfg.n_realizations) is int and type(cfg.seed) is int
        assert cfg.seed == 2**63 + 5

    def test_one_slab_pass_per_position(self, monkeypatch):
        """Every realization's direct segment and legs go through one
        `_slab_test` call, whatever the number of realizations."""
        calls = []
        slab_test = geometry._slab_test

        def counted(*args):
            calls.append(len(args[0]))
            return slab_test(*args)
        monkeypatch.setattr(geometry, "_slab_test", counted)
        monkeypatch.setattr(propagation, "_slab_test", counted)
        scene, traj = street_row_scene(10)
        for n in (2, 7, 40):
            calls.clear()
            rows = realize(scene, traj.positions[2], RealizationConfig(n_realizations=n, seed=4),
                           position_id=3)
            assert len(rows) == n
            assert len(calls) == 1 and calls[0] > 2 * n

    def test_slab_blocks_give_the_one_pass_rows(self, monkeypatch):
        """A pass split into blocks of SLAB_ROW_BUDGET (segment, box) pairs
        gives the rows of one pass."""
        scene, traj = street_row_scene(10)
        cfg = RealizationConfig(n_realizations=9, seed=8)
        want = dataset_to_csv(realize(scene, traj.positions[4], cfg, position_id=5))
        monkeypatch.setattr(geometry, "SLAB_ROW_BUDGET", 40)  # 3 segments of 13 boxes
        assert dataset_to_csv(realize(scene, traj.positions[4], cfg, position_id=5)) == want

    def test_position_alone_gives_its_trajectory_rows(self):
        """Any subset of positions, realized in any order, gives the rows
        the whole trajectory gives them."""
        scene, traj = street_row_scene(6)
        cfg = RealizationConfig(n_realizations=9, seed=21)
        rows = simulate_trajectory(scene, traj, cfg)
        for pid in (15, 1, 8):
            alone = realize(scene, traj.positions[pid - 1], cfg, position_id=pid,
                            timestamp=float(pid))
            assert dataset_to_csv(alone) == dataset_to_csv(
                [r for r in rows if r.position_id == pid])

    def test_many_effective_scatterers(self):
        """Twelve walls across the direct segment, all effective: the sums
        over them add in id order, as one trace's sums do.  Added pairwise,
        as numpy sums 8 or more terms, these volumes give another V_total."""
        thick = (0.444, 1.197, 0.714, 0.922, 0.349, 0.331, 1.061, 0.829, 0.578, 0.586, 0.38,
                 0.455)
        tall = (8.148, 13.035, 10.798, 8.763, 12.435, 9.174, 8.372, 11.59, 13.375, 8.162,
                12.831, 9.141)
        walls = tuple(Scatterer(id=k, center=(2.1 * k + 0.37, 0.3 * k - 1.0, 6.0),
                                dims=(thick[k - 1], 9.0, tall[k - 1])) for k in range(1, 13))
        scene = Scene(tx=(-5.0, 0.1, 10.0), frequency_hz=28e9, scatterers=walls)
        cfg = RealizationConfig(n_realizations=8, scatterer_jitter_sigma=0.3, seed=6)
        rows = realize(scene, (33.0, -0.2, 1.5), cfg, position_id=4)
        assert min(r.features[10] for r in rows) >= 8  # B_count: blockers alone
        assert dataset_to_csv(rows) == dataset_to_csv(
            scalar_realize(scene, (33.0, -0.2, 1.5), cfg, position_id=4))

    def test_rows_without_effective_scatterers(self):
        """A box that neither blocks nor reflects leaves the sentinels."""
        box = Scatterer(id=4, center=(30.0, 30.0, 30.0), dims=(1.0, 1.0, 1.0))
        scene = Scene(tx=(0.0, 0.0, 10.0), frequency_hz=28e9, scatterers=(box,))
        cfg = RealizationConfig(n_realizations=6, scatterer_jitter_sigma=0.3, seed=1)
        rows = realize(scene, (10.0, 0.0, 1.5), cfg, position_id=2)
        f = dict(zip(FEATURE_NAMES, rows[3].features))
        assert f["D_txs"] == f["D_srx"] > 50.0
        assert f["L_cx"] == f["V_total"] == 0.0
        assert dataset_to_csv(rows) == dataset_to_csv(
            scalar_realize(scene, (10.0, 0.0, 1.5), cfg, position_id=2))


def path_tuples(tr):
    return [(p.kind, p.length_m, p.loss_db, p.via_scatterer,
             None if p.reflection_point is None else tuple(p.reflection_point))
            for p in tr.paths]


def error_kind(message):
    return message.split()[0] if message else None


class TestBatchedRealize:
    """`realize`, tracing all realizations in one pass, == `scalar_realize`."""

    @settings(max_examples=150, deadline=None)
    @given(boxes=st.lists(grid_box, max_size=5), tx=st.tuples(half, half, half),
           rx=st.tuples(half, half, half), n=st.integers(2, 12),
           box_sigma=st.floats(0.0, 2.0), rx_sigma=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**64 - 1), pid=st.integers(0, 40))
    # no boxes, then a box that neither blocks nor reflects: sentinel distances
    @example(boxes=[], tx=(0.0, 0.0, 0.0), rx=(1.0, 2.0, 3.0), n=5, box_sigma=1.0,
             rx_sigma=0.5, seed=3, pid=1)
    @example(boxes=[((6, 6, 6), (1, 1, 1))], tx=(0.0, 0.0, 0.0), rx=(1.0, 0.0, 0.0), n=6,
             box_sigma=0.1, rx_sigma=0.1, seed=4, pid=2)
    def test_random_scenes(self, boxes, tx, rx, n, box_sigma, rx_sigma, seed, pid):
        scats = tuple(Scatterer(id=2 * i + 1, center=np.add(lo, np.divide(dims, 2.0)),
                                dims=dims, reflection_loss_db=float(i))
                      for i, (lo, dims) in enumerate(boxes))
        assume(not any(np.all(np.abs(np.subtract(pt, s.center)) <= s.dims / 2 + EPS_EXACT)
                       for s in scats for pt in (tx, rx)))
        assume(tx != rx)
        scene = Scene(tx=tx, frequency_hz=28e9, scatterers=scats)
        cfg = RealizationConfig(n_realizations=n, scatterer_jitter_sigma=box_sigma,
                                rx_jitter_sigma=rx_sigma, seed=seed)
        assert outcome(realize, scene, rx, cfg, position_id=pid, timestamp=1.0) == \
            outcome(scalar_realize, scene, rx, cfg, position_id=pid, timestamp=1.0)

    def test_first_failing_realization_decides_the_error(self):
        """The error is the one the first failing realization raises, even
        when a later realization fails another way."""
        # box 1 is 0.6 m off the TX, box 2 0.15 m off the first RX
        tx_box = Scatterer(id=1, center=(0.0, 5.6, 10.0), dims=(10.0, 10.0, 10.0))
        rx_box = Scatterer(id=2, center=(40.0, 1.15, 1.5), dims=(2.0, 2.0, 3.0))
        cases = [
            # the jitter can move box 1 over the TX and box 2 over the RX,
            # which, never jittered, can then not be placed
            (Scene(tx=(0.0, 0.0, 10.0), frequency_hz=28e9, scatterers=(tx_box, rx_box)),
             (40.0, 0.0, 1.5)),
            # box 1 also sets the scene's bound 0.1 m beyond the RX: jitter can
            # move the bound inside the RX
            (Scene(tx=(0.0, 0.0, 10.0), frequency_hz=28e9, scatterers=(tx_box,)),
             (54.9, 0.0, 10.0)),
        ]
        orders = set()
        for scene, rx in cases:
            for seed in range(30):
                cfg = RealizationConfig(n_realizations=10, rx_jitter_sigma=0.0, seed=seed)
                kinds = []
                for i in range(1, cfg.n_realizations):
                    try:
                        trace(*scalar_realization(scene, as_vec3(rx), cfg, 7, i))
                    except ValueError as exc:
                        kinds.append(error_kind(str(exc)))
                want = outcome(scalar_realize, scene, rx, cfg, position_id=7)
                assert outcome(realize, scene, rx, cfg, position_id=7) == want
                if kinds:
                    assert error_kind(want[1]) == kinds[0]
                    orders.update((kinds[0], k) for k in kinds[1:] if k != kinds[0])
        assert orders == {("TX", "could"), ("could", "TX"), ("TX", "rx"), ("rx", "TX")}

    def test_trace_is_row_zero_of_the_batch(self):
        """`trace` and `trace_features` are the one-realization case of
        `trace_all` and `feature_rows`: every row of a batch equals its own
        trace, and row 0 holds the unperturbed scene."""
        scene, traj = street_row_scene(10)
        rng = np.random.default_rng(3)
        for rx in traj.positions[::4]:
            scenes, error = scene.realizations(
                scene.box_center + rng.normal(0.0, 0.5, (6, 13, 3)))
            assert error is None
            scenes = [scene] + [s for s in scenes if not s.ids_containing(rx)]
            batch = trace_all(scenes, [rx] * len(scenes))
            assert batch[0].scene is scene
            for tr, row in zip(batch, feature_rows(batch)):
                one = trace(tr.scene, rx)
                assert one.scene is tr.scene
                assert np.array_equal(one.rx, tr.rx) and one.direct == tr.direct
                assert path_tuples(one) == path_tuples(tr)
                assert np.array_equal(trace_features(one), row)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        scene, traj = canonical_street_scene()
        cfg = RealizationConfig(n_realizations=4, seed=9)
        rows = realize(scene, traj.positions[5], cfg, position_id=6, timestamp=6.0)
        path = tmp_path / "ds.csv"
        save_dataset(path, rows)
        loaded = load_dataset(path)
        assert len(loaded) == len(rows)
        for a, b in zip(rows, loaded):
            assert np.array_equal(a.features, b.features)
            assert a.path_loss_db == b.path_loss_db
            assert a.los == b.los
        assert dataset_to_csv(loaded) == path.read_text()

    def test_header(self):
        assert DATASET_HEADER[:2] == ("position_id", "realization_id")
        assert DATASET_HEADER[2:18] == FEATURE_NAMES
        assert DATASET_HEADER[18:] == ("path_loss_db", "los", "timestamp")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset(p)


# ---------------------------------------------------------------------------
# Stream alignment
# ---------------------------------------------------------------------------

def oracle_align(pei, chan, time_tol, pos_tol):
    """Exhaustive search over all matchings: max pair count, then min
    total |dt|.  Memoized on (next channel index, used-PEI bitmask)."""
    feasible = {}
    for i, p in enumerate(pei):
        for j, c in enumerate(chan):
            dt = abs(p.timestamp - c.timestamp)
            if dt <= time_tol and np.linalg.norm(
                    np.asarray(p.position, float) - np.asarray(c.position, float)) <= pos_tol:
                feasible[(i, j)] = dt
    memo = {}

    def best(j, used):
        if j == len(chan):
            return (0, 0.0)
        key = (j, used)
        if key in memo:
            return memo[key]
        res = best(j + 1, used)
        for i in range(len(pei)):
            if not used >> i & 1 and (i, j) in feasible:
                c, t = best(j + 1, used | 1 << i)
                cand = (c + 1, t + feasible[(i, j)])
                if (cand[0], -cand[1]) > (res[0], -res[1]):
                    res = cand
        memo[key] = res
        return res

    return best(0, 0)


def random_streams(rng, max_each=10):
    n = int(rng.integers(1, max_each + 1))
    m = int(rng.integers(1, max_each + 1))
    pei = [StreamRecord(timestamp=float(t), position=rng.uniform(-5, 5, 3))
           for t in np.sort(rng.uniform(0, 20, n))]
    chan = [StreamRecord(timestamp=float(t), position=rng.uniform(-5, 5, 3))
            for t in np.sort(rng.uniform(0, 20, m))]
    return pei, chan


class TestAlignStreams:
    def test_identical_streams_fully_paired(self):
        recs = [StreamRecord(timestamp=float(t), position=(t, 0, 0)) for t in range(5)]
        pairs, rep = align_streams(recs, recs, time_tol=0.1, pos_tol=0.1)
        assert pairs == [(i, i) for i in range(5)]
        assert rep == DropReport(5, 0, 0)

    def test_disjoint_streams_no_pairs(self):
        a = [StreamRecord(timestamp=0.0, position=(0, 0, 0))]
        b = [StreamRecord(timestamp=100.0, position=(0, 0, 0))]
        pairs, rep = align_streams(a, b, time_tol=1.0, pos_tol=1.0)
        assert pairs == []
        assert rep == DropReport(0, 1, 1)

    def test_empty_stream(self):
        b = [StreamRecord(timestamp=1.0, position=(0, 0, 0))]
        pairs, rep = align_streams([], b, time_tol=1.0, pos_tol=1.0)
        assert pairs == []
        assert rep == DropReport(0, 0, 1)

    def test_unsorted_rejected(self):
        a = [StreamRecord(timestamp=2.0, position=(0, 0, 0)),
             StreamRecord(timestamp=1.0, position=(0, 0, 0))]
        with pytest.raises(ValueError):
            align_streams(a, a[:1], time_tol=1.0, pos_tol=1.0)

    def test_prefers_nearer_in_time(self):
        pei = [StreamRecord(timestamp=0.0, position=(0, 0, 0)),
               StreamRecord(timestamp=1.0, position=(0, 0, 0))]
        chan = [StreamRecord(timestamp=0.9, position=(0, 0, 0))]
        pairs, _ = align_streams(pei, chan, time_tol=2.0, pos_tol=1.0)
        assert pairs == [(1, 0)]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            pei, chan = random_streams(rng, max_each=8)
            time_tol = float(rng.uniform(0.5, 4.0))
            pos_tol = float(rng.uniform(1.0, 8.0))
            pairs, rep = align_streams(pei, chan, time_tol, pos_tol)
            count, cost = oracle_align(pei, chan, time_tol, pos_tol)
            assert rep.n_pairs == count
            got_cost = sum(abs(pei[i].timestamp - chan[j].timestamp)
                           for i, j in pairs)
            assert got_cost == pytest.approx(cost, abs=1e-9)
