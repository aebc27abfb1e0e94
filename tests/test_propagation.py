import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rekpool import geometry, propagation
from rekpool.geometry import (EPS_EXACT, Scatterer, Scene, canonical_street_scene,
                              mirror_point, segment_blocked)
from rekpool.propagation import (OUTAGE_CAP_DB, SPEED_OF_LIGHT, fspl_db, path_loss,
                                 trace, trace_paths)


def one_wall_scene():
    """TX and RX in front of a single wall; exactly one reflection exists."""
    wall = Scatterer(id=1, center=(0, 3, 1), dims=(10, 2, 2))
    return Scene(tx=(0, 0, 1), frequency_hz=28e9, scatterers=(wall,))


class TestFspl:
    def test_reference_value_1m_28ghz(self):
        assert fspl_db(1.0, 28e9) == pytest.approx(61.39, abs=0.005)

    def test_reference_value_100m_28ghz(self):
        assert fspl_db(100.0, 28e9) == pytest.approx(101.39, abs=0.005)

    def test_distance_doubling_adds_6db(self):
        assert fspl_db(2.0, 1e9) - fspl_db(1.0, 1e9) == pytest.approx(
            20.0 * math.log10(2.0), abs=1e-12)

    def test_closed_form_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d = float(rng.uniform(0.1, 5000.0))
            f = float(rng.uniform(1e8, 3e11))
            expected = 20.0 * (math.log10(4.0 * math.pi) + math.log10(d)
                               + math.log10(f) - math.log10(SPEED_OF_LIGHT))
            assert fspl_db(d, f) == pytest.approx(expected, abs=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fspl_db(0.0, 1e9)
        with pytest.raises(ValueError):
            fspl_db(1.0, -1.0)


class TestTracePaths:
    def test_empty_scene_single_los(self):
        scene = Scene(tx=(0, 0, 10), frequency_hz=1e9)
        paths = trace_paths(scene, (30, 40, 10))
        assert len(paths) == 1
        assert paths[0].kind == "LOS"
        assert paths[0].length_m == pytest.approx(50.0, abs=1e-12)
        assert paths[0].loss_db == pytest.approx(fspl_db(50.0, 1e9), abs=1e-12)

    def test_one_wall_reflection_geometry(self):
        scene = one_wall_scene()
        rx = np.array([4.0, 0.0, 1.0])
        paths = trace_paths(scene, rx)
        assert [p.kind for p in paths] == ["LOS", "Reflection"]
        refl = paths[1]
        # analytic image: mirror TX across the y=2 face
        assert refl.length_m == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-9)
        assert refl.reflection_point == pytest.approx((2.0, 2.0, 1.0), abs=1e-9)
        assert refl.loss_db == pytest.approx(
            fspl_db(4.0 * math.sqrt(2.0), scene.frequency_hz) + 10.0, abs=1e-9)

    def test_reflection_length_matches_image_identity(self):
        scene, traj = canonical_street_scene()
        seen = 0
        for rx in traj.positions:
            for p in trace_paths(scene, rx):
                if p.kind != "Reflection":
                    continue
                seen += 1
                s = scene.scatterer_by_id(p.via_scatterer)
                axis = int(np.argmax([
                    abs(p.reflection_point[a] - s.lo[a]) < 1e-9
                    or abs(p.reflection_point[a] - s.hi[a]) < 1e-9
                    for a in range(3)]))
                img = mirror_point(scene.tx, axis, p.reflection_point[axis])
                assert p.length_m == pytest.approx(
                    float(np.linalg.norm(rx - img)), abs=1e-9)
        assert seen > 0

    def test_sorted_by_loss(self):
        scene, traj = canonical_street_scene()
        for rx in traj.positions:
            losses = [p.loss_db for p in trace_paths(scene, rx)]
            assert losses == sorted(losses)

    def test_rx_inside_scatterer_rejected(self):
        scene = one_wall_scene()
        with pytest.raises(ValueError):
            trace_paths(scene, (0, 3, 1))

    def test_rx_outside_bounds_rejected(self):
        scene = Scene(tx=(0, 0, 10), frequency_hz=1e9)
        with pytest.raises(ValueError):
            trace_paths(scene, (1000, 0, 10))


class TestPathLoss:
    def test_pure_los_equals_fspl(self):
        scene = Scene(tx=(0, 0, 10), frequency_hz=3.5e9)
        sample = path_loss(scene, (30, 0, 10))
        assert sample.los
        assert sample.path_loss_db == pytest.approx(fspl_db(30.0, 3.5e9), abs=1e-9)

    def test_outage_cap(self):
        # RX fully boxed in by an occluder with no reflector available
        wall = Scatterer(id=1, center=(10, 0, 0), dims=(2, 50, 50))
        scene = Scene(tx=(0, 0, 0), frequency_hz=1e9, scatterers=(wall,))
        sample = path_loss(scene, (20, 0, 0))
        assert not sample.los
        assert sample.n_paths == 0
        assert sample.path_loss_db == OUTAGE_CAP_DB

    def test_reflection_survives_blockage(self):
        scene, traj = canonical_street_scene()
        sample = path_loss(scene, traj.positions[0])
        assert not sample.los
        assert sample.n_paths >= 1
        assert sample.path_loss_db < OUTAGE_CAP_DB

    def test_monotone_in_frequency(self):
        low = Scene(tx=(0, 0, 10), frequency_hz=1e9)
        high = Scene(tx=(0, 0, 10), frequency_hz=28e9)
        rx = (30, 0, 10)
        assert path_loss(high, rx).path_loss_db > path_loss(low, rx).path_loss_db

    def test_min_loss_selection(self):
        scene = one_wall_scene()
        rx = (4, 0, 1)
        paths = trace_paths(scene, rx)
        assert path_loss(scene, rx).path_loss_db == pytest.approx(
            min(p.loss_db for p in paths), abs=1e-12)


class TestEffectiveScatterers:
    def test_empty_scene(self):
        scene = Scene(tx=(0, 0, 10), frequency_hz=1e9)
        assert trace(scene, (30, 0, 10)).effective_scatterers() == []

    def test_reflector_counts(self):
        scene = one_wall_scene()
        assert trace(scene, (4, 0, 1)).effective_scatterers() == [1]

    def test_blocker_counts_even_without_path(self):
        wall = Scatterer(id=7, center=(10, 0, 0), dims=(2, 50, 50))
        scene = Scene(tx=(0, 0, 0), frequency_hz=1e9, scatterers=(wall,))
        assert trace(scene, (20, 0, 0)).effective_scatterers() == [7]

    def test_sorted_ids(self):
        scene, traj = canonical_street_scene()
        for rx in traj.positions:
            ids = trace(scene, rx).effective_scatterers()
            assert ids == sorted(ids)


def scalar_trace_paths(scene, rx):
    """Reference: the per-face loop that `trace` batches, as
    (kind, length, loss, via, reflection point) tuples sorted by loss."""
    tx = scene.tx
    rx = np.asarray(rx, dtype=float)
    paths = []
    if not segment_blocked(tx, rx, scene).blocked:
        length = float(np.linalg.norm(rx - tx))
        paths.append(("LOS", length, fspl_db(length, scene.frequency_hz), None, None))
    for s in scene.scatterers:
        for axis in range(3):
            for value, sign in ((float(s.lo[axis]), -1), (float(s.hi[axis]), 1)):
                if sign * (tx[axis] - value) <= EPS_EXACT or sign * (rx[axis] - value) <= EPS_EXACT:
                    continue
                img = mirror_point(tx, axis, value)
                d = rx - img
                if abs(d[axis]) < EPS_EXACT:
                    continue
                t = (value - img[axis]) / d[axis]
                if t <= EPS_EXACT or t >= 1.0 - EPS_EXACT:
                    continue
                p = img + t * d
                if any(p[a] < s.lo[a] - EPS_EXACT or p[a] > s.hi[a] + EPS_EXACT
                       for a in range(3) if a != axis):
                    continue
                if (segment_blocked(tx, p, scene, exclude_ids=(s.id,)).blocked
                        or segment_blocked(p, rx, scene, exclude_ids=(s.id,)).blocked):
                    continue
                length = float(np.linalg.norm(rx - img))
                paths.append(("Reflection", length,
                              fspl_db(length, scene.frequency_hz) + s.reflection_loss_db,
                              s.id, tuple(p)))
    paths.sort(key=lambda p: (p[2], p[0], -1 if p[3] is None else p[3]))
    return paths


half = st.integers(-4, 16).map(lambda v: v / 2.0)
box = st.tuples(st.tuples(*[st.integers(0, 6)] * 3), st.tuples(*[st.integers(1, 3)] * 3))


class TestTrace:
    @settings(max_examples=300, deadline=None)
    @given(boxes=st.lists(box, max_size=5), tx=st.tuples(half, half, half),
           rx=st.tuples(half, half, half))
    @example(boxes=[], tx=(0.0, 0.0, 0.0), rx=(1.0, 2.0, 3.0))
    # TX, RX and the bounce point on the x = 2 face of box 1 lie on one
    # axis-parallel line, clear or meeting box 2 on both the direct segment
    # and the TX -> p leg: across it, along a face of it, along an edge
    @example(boxes=[((0, 0, 0), (2, 2, 2))], tx=(7.0, 1.0, 1.0), rx=(2.5, 1.0, 1.0))
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((4, 0, 0), (1, 2, 2))],
             tx=(7.0, 1.0, 1.0), rx=(2.5, 1.0, 1.0))
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((4, 1, 0), (1, 1, 2))],
             tx=(7.0, 1.0, 1.0), rx=(2.5, 1.0, 1.0))
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((4, 1, 1), (1, 1, 1))],
             tx=(7.0, 1.0, 1.0), rx=(2.5, 1.0, 1.0))
    # the same along z, off the top face
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((0, 0, 4), (2, 2, 1))],
             tx=(1.0, 1.0, 7.0), rx=(1.0, 1.0, 3.0))
    # only the p -> RX leg meets box 2, then only the TX -> p leg
    @example(boxes=[((0, 0, 0), (2, 3, 2)), ((4, 0, 0), (1, 1, 2))],
             tx=(6.0, 3.0, 1.0), rx=(6.0, 0.0, 1.0))
    @example(boxes=[((0, 0, 0), (2, 3, 2)), ((4, 0, 0), (1, 1, 2))],
             tx=(6.0, 0.0, 1.0), rx=(6.0, 3.0, 1.0))
    # legs ending on another box's face: the bounce point (2, 2, 1) lies on
    # the edge that two stacked boxes share
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((0, 2, 0), (2, 2, 2))],
             tx=(4.0, 3.0, 1.0), rx=(4.0, 1.0, 1.0))
    # and on the face both overlapping boxes have in the x = 2 plane
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((0, 1, 0), (2, 2, 2))],
             tx=(4.0, 2.5, 1.0), rx=(4.0, 0.5, 1.0))
    def test_batched_faces_match_scalar_reference(self, boxes, tx, rx):
        scats = tuple(Scatterer(id=i + 1, center=np.add(lo, np.divide(dims, 2.0)), dims=dims,
                                reflection_loss_db=float(i))
                      for i, (lo, dims) in enumerate(boxes))
        assume(not any(np.all(np.abs(np.subtract(pt, s.center)) <= s.dims / 2 + EPS_EXACT)
                       for s in scats for pt in (tx, rx)))
        assume(tx != rx)
        scene = Scene(tx=tx, frequency_hz=28e9, scatterers=scats)
        got = [(p.kind, p.length_m, p.loss_db, p.via_scatterer,
                None if p.reflection_point is None else tuple(p.reflection_point))
               for p in trace_paths(scene, rx)]
        assert got == scalar_trace_paths(scene, rx)
        assert trace(scene, rx).direct == segment_blocked(scene.tx, rx, scene)

    def test_one_slab_pass_per_trace(self, monkeypatch):
        """The direct segment and every leg go through one `_slab_test`."""
        calls = []
        slab_test = geometry._slab_test

        def counted(*args):
            calls.append(len(args[0]))
            return slab_test(*args)
        monkeypatch.setattr(geometry, "_slab_test", counted)
        monkeypatch.setattr(propagation, "_slab_test", counted, raising=False)
        scene, traj = canonical_street_scene()
        for rx in traj.positions:
            before = len(calls)
            tr = trace(scene, rx)
            assert len(calls) == before + 1
            # one row for the direct segment, two per bounce tested
            assert calls[-1] >= 1 + 2 * sum(p.kind == "Reflection" for p in tr.paths)

    def test_rx_at_tx_rejected(self):
        scene = one_wall_scene()
        with pytest.raises(ValueError, match="differ"):
            trace(scene, scene.tx.copy())
