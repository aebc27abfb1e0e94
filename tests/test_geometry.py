import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rekpool.geometry import (EPS_EXACT, Blockage, Scatterer, Scene, Trajectory,
                              canonical_scene_json, canonical_street_scene, from_blob,
                              json_field, load_json, load_scene, ray_box_intersect,
                              save_scene, scene_from_dict, scene_to_dict, segment_blocked,
                              to_blob)
from rekpool.geometry import _slab_test


def mirror_point(p, axis: int, value: float) -> np.ndarray:
    """Reference: reflect p across the axis-aligned plane {x_axis = value},
    as the image method mirrors the transmitter."""
    out = np.array(p, dtype=float)
    out[axis] = 2.0 * value - out[axis]
    return out


def unit_cube(sid=1, center=(0, 0, 0)):
    return Scatterer(id=sid, center=np.array(center, dtype=float),
                     dims=np.array([1.0, 1.0, 1.0]))


def sample_interval(origin, direction, box, t_max=50.0, n=200_000):
    """Brute-force membership oracle: t-range of sampled in-box points."""
    t = np.linspace(0.0, t_max, n)
    pts = np.asarray(origin) + t[:, None] * np.asarray(direction)
    inside = np.all((pts >= box.lo) & (pts <= box.hi), axis=1)
    if not inside.any():
        return None
    idx = np.flatnonzero(inside)
    return t[idx[0]], t[idx[-1]]


class TestRayBoxIntersect:
    def test_axis_aligned_hit(self):
        hit = ray_box_intersect((-5, 0, 0), (1, 0, 0), unit_cube())
        assert hit == pytest.approx((4.5, 5.5))

    def test_pointing_away(self):
        assert ray_box_intersect((-5, 0, 0), (-1, 0, 0), unit_cube()) is None

    def test_diagonal_matches_sampling(self):
        d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        origin = np.array([-2.0, -2.0, 0.25])
        hit = ray_box_intersect(origin, d, unit_cube())
        ref = sample_interval(origin, d, unit_cube(), t_max=10.0, n=400_000)
        assert hit is not None and ref is not None
        assert hit[0] == pytest.approx(ref[0], abs=1e-4)
        assert hit[1] == pytest.approx(ref[1], abs=1e-4)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            ray_box_intersect((0, 0, 0), (0, 0, 0), unit_cube())

    def test_randomized_agreement_with_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            box = Scatterer(id=1, center=rng.uniform(-5, 5, 3),
                            dims=rng.uniform(0.5, 4.0, 3))
            origin = rng.uniform(-10, 10, 3)
            direction = rng.normal(size=3)
            while np.linalg.norm(direction) < 1e-3:
                direction = rng.normal(size=3)
            hit = ray_box_intersect(origin, direction, box)
            ref = sample_interval(origin, direction, box, t_max=40.0, n=100_000)
            if ref is None:
                if hit is not None:
                    # sampled range may simply miss a grazing sliver
                    assert hit[1] - max(hit[0], 0.0) < 1e-3
            else:
                assert hit is not None
                assert max(hit[0], 0.0) <= ref[0] + 1e-3
                assert hit[1] >= ref[1] - 1e-3


class TestSegmentBlocked:
    def test_wall_between(self):
        scene = Scene(tx=(0, 0, 0), frequency_hz=1e9,
                      scatterers=(Scatterer(id=1, center=(5, 0, 0), dims=(1, 4, 4)),))
        blk = segment_blocked((0, 0, 0), (10, 0, 0), scene)
        assert blk.blocked
        assert blk.blocker_ids == (1,)
        assert blk.blocked_fraction > 0

    def test_empty_scene(self):
        scene = Scene(tx=(0, 0, 0), frequency_hz=1e9)
        blk = segment_blocked((0, 0, 0), (10, 0, 0), scene)
        assert not blk.blocked
        assert blk.blocker_ids == ()
        assert blk.blocked_fraction == 0.0

    def test_two_disjoint_blockers_fraction(self):
        scene = Scene(tx=(0, 0, 5), frequency_hz=1e9, scatterers=(
            Scatterer(id=1, center=(1.5, 0, 0), dims=(1, 1, 1)),
            Scatterer(id=2, center=(5.5, 0, 0), dims=(1, 1, 1)),
        ))
        blk = segment_blocked((0, 0, 0), (10, 0, 0), scene)
        assert blk.blocked_fraction == pytest.approx(0.2, abs=1e-9)
        assert blk.blocker_ids == (1, 2)

    def test_swap_invariance(self):
        scene, traj = canonical_street_scene()
        p, q = scene.tx, traj.positions[0]
        a = segment_blocked(p, q, scene)
        b = segment_blocked(q, p, scene)
        assert a.blocked == b.blocked
        assert a.blocker_ids == b.blocker_ids
        assert a.blocked_fraction == pytest.approx(b.blocked_fraction, abs=1e-12)

    def test_degenerate_segment_rejected(self):
        scene = Scene(tx=(0, 0, 0), frequency_hz=1e9)
        with pytest.raises(ValueError):
            segment_blocked((1, 1, 1), (1, 1, 1), scene)

    def test_subnormal_component_is_an_infinite_slab_bound(self):
        # 2.5 / 5e-324 overflows to inf: the segment misses box 2's y-slab
        scene = Scene(tx=(0, 0, 5), frequency_hz=1e9,
                      scatterers=(unit_cube(1, (5, 0, 0)), unit_cube(2, (5, 3, 0))))
        p, q = (0, 0, 0), (10, 5e-324, 0)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            blk = segment_blocked(p, q, scene)
            assert blk == scalar_segment_blocked(p, q, scene)
        assert blk.blocker_ids == (1,)
        assert blk.blocked_fraction == pytest.approx(0.1)


def scalar_segment_blocked(p, q, scene, excluded=()):
    """Reference: the per-box loop over `ray_box_intersect` that
    `segment_blocked` batches, skipping the boxes whose ids are `excluded`
    as `trace` skips a bounce's own box."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(q, dtype=float) - p
    intervals = []
    ids = []
    for s in scene.scatterers:
        if s.id in excluded:
            continue
        hit = ray_box_intersect(p, d, s)
        if hit is None:
            continue
        a = max(hit[0], 0.0)
        b = min(hit[1], 1.0)
        if b - a > EPS_EXACT:
            intervals.append((a, b))
            ids.append(s.id)
    if not intervals:
        return Blockage(False, (), 0.0)
    intervals.sort()
    total = 0.0
    cur_a, cur_b = intervals[0]
    for a, b in intervals[1:]:
        if a > cur_b:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    total += cur_b - cur_a
    return Blockage(True, tuple(sorted(set(ids))), float(min(total, 1.0)))


# Integer corners and endpoints put segments on faces, along edges and
# parallel to axes; the TX sits far from every box.
grid = st.integers(-1, 5)
point = st.tuples(grid, grid, grid)
box = st.tuples(point, st.tuples(*[st.integers(1, 3)] * 3))
coord = st.floats(-2.0, 7.0, allow_nan=False, allow_infinity=False)


def grid_scene(boxes):
    return Scene(tx=(50.0, 50.0, 50.0), frequency_hz=1e9, scatterers=tuple(
        Scatterer(id=i + 1, center=np.add(lo, np.divide(dims, 2.0)), dims=dims)
        for i, (lo, dims) in enumerate(boxes)))


class TestBatchedSegmentBlocked:
    """Batched slab test == scalar per-box reference, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(boxes=st.lists(box, max_size=5), p=point, q=point)
    @example(boxes=[], p=(0, 0, 0), q=(1, 2, 3))
    @example(boxes=[((0, 0, 0), (2, 2, 2))], p=(-1, 0, 0), q=(3, 0, 0))
    @example(boxes=[((0, 0, 0), (2, 2, 2))], p=(-1, 2, 1), q=(3, 2, 1))
    @example(boxes=[((0, 0, 0), (2, 2, 2))], p=(0, 1, 1), q=(-1, 1, 1))
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((1, 0, 0), (2, 1, 1))], p=(-1, 0, 0),
             q=(4, 1, 1))
    def test_grid_segments(self, boxes, p, q):
        if np.linalg.norm(np.subtract(q, p)) == 0.0:
            return  # rejected as degenerate
        scene = grid_scene(boxes)
        assert segment_blocked(p, q, scene) == scalar_segment_blocked(p, q, scene)

    @settings(max_examples=200, deadline=None)
    @given(boxes=st.lists(box, max_size=5), p=st.tuples(coord, coord, coord),
           q=st.tuples(coord, coord, coord))
    def test_general_segments(self, boxes, p, q):
        if np.linalg.norm(np.subtract(q, p)) == 0.0:
            return  # rejected as degenerate
        scene = grid_scene(boxes)
        assert segment_blocked(p, q, scene) == scalar_segment_blocked(p, q, scene)


def legs_match(boxes, legs):
    """One `_slab_test` pass over all legs, each masked by its own box as
    `trace` masks a bounce's legs, == the scalar reference per leg with
    that box excluded."""
    legs = [(p, q, sid) for p, q, sid in legs if np.linalg.norm(np.subtract(q, p)) > 0.0]
    scene = grid_scene(boxes)
    p = np.array([leg[0] for leg in legs], dtype=float).reshape(-1, 3)
    q = np.array([leg[1] for leg in legs], dtype=float).reshape(-1, 3)
    hit, enter, leave = _slab_test(p, q, scene.box_lo[None], scene.box_hi[None],
                                   np.zeros(len(p), dtype=int))
    hit &= scene.box_ids != np.array([sid for _, _, sid in legs], dtype=int)[:, None]
    got = [Blockage.from_slab(*row, scene.box_ids) for row in zip(hit, enter, leave)]
    assert got == [scalar_segment_blocked(a, b, scene, excluded=(sid,)) for a, b, sid in legs]


class TestSegmentsBlocked:
    """Batched legs, each with its own box excluded == the scalar reference."""

    @settings(max_examples=300, deadline=None)
    @given(boxes=st.lists(box, max_size=5),
           legs=st.lists(st.tuples(point, point, st.integers(1, 6)), max_size=8))
    # empty scene
    @example(boxes=[], legs=[((0, 0, 0), (1, 2, 3), 1), ((0, 0, 0), (4, 0, 0), 2)])
    # axis-parallel: through a box, along its face, along its edge
    @example(boxes=[((0, 0, 0), (2, 2, 2))],
             legs=[((-1, 1, 1), (3, 1, 1), 2), ((-1, 2, 1), (3, 2, 1), 2),
                   ((-1, 2, 2), (3, 2, 2), 2), ((1, 1, -1), (1, 1, 4), 2)])
    # ending on a face, from outside and from the face's own plane
    @example(boxes=[((0, 0, 0), (2, 2, 2))],
             legs=[((-1, 1, 1), (0, 1, 1), 2), ((-2, -1, 1), (0, 1, 1), 2),
                   ((0, 1, 1), (-3, 4, 1), 2)])
    # the leg's own box excluded, another box still blocking
    @example(boxes=[((0, 0, 0), (2, 2, 2)), ((1, 0, 0), (2, 1, 1))],
             legs=[((-1, 0, 0), (4, 1, 1), 1), ((-1, 0, 0), (4, 1, 1), 2),
                   ((-1, 1, 1), (4, 1, 1), 1)])
    def test_grid_legs(self, boxes, legs):
        legs_match(boxes, legs)

    @settings(max_examples=200, deadline=None)
    @given(boxes=st.lists(box, max_size=5),
           legs=st.lists(st.tuples(st.tuples(coord, coord, coord),
                                   st.tuples(coord, coord, coord), st.integers(1, 6)),
                         max_size=8))
    def test_general_legs(self, boxes, legs):
        legs_match(boxes, legs)


class TestSceneArrays:
    def test_arrays_in_id_order(self):
        scene = Scene(tx=(9, 9, 9), frequency_hz=1e9, scatterers=(
            Scatterer(id=4, center=(3, 0, 0), dims=(1, 2, 3), reflection_loss_db=6.0),
            unit_cube(2)))
        assert scene.box_ids.tolist() == [2, 4]
        assert scene.box_center.tolist() == [[0, 0, 0], [3, 0, 0]]
        assert scene.box_dims.tolist() == [[1, 1, 1], [1, 2, 3]]
        assert scene.box_loss_db.tolist() == [10.0, 6.0]
        assert scene.box_lo.tolist() == [[-0.5, -0.5, -0.5], [2.5, -1, -1.5]]
        assert [s.id for s in scene.scatterers] == [2, 4]

    def test_with_centers_equals_rebuilt_scene(self):
        scene, _ = canonical_street_scene()
        centers = scene.box_center + np.random.default_rng(1).normal(0.0, 0.5, (3, 3))
        moved = scene.with_centers(centers)
        rebuilt = Scene(tx=scene.tx, frequency_hz=scene.frequency_hz, scatterers=tuple(
            Scatterer(id=s.id, center=c, dims=s.dims, reflection_loss_db=s.reflection_loss_db)
            for s, c in zip(scene.scatterers, centers)))
        for name in ("box_center", "box_dims", "box_lo", "box_hi", "box_ids", "box_loss_db"):
            assert np.array_equal(getattr(moved, name), getattr(rebuilt, name))
        assert all(np.array_equal(a, b) for a, b in zip(moved.bounds(), rebuilt.bounds()))
        assert scene_to_dict(moved, Trajectory(positions=((0, 0, 0),))) == \
            scene_to_dict(rebuilt, Trajectory(positions=((0, 0, 0),)))
        assert moved.scatterer_by_id(3).center.tolist() == centers[2].tolist()

    def test_with_centers_swallowing_tx_rejected(self):
        scene = Scene(tx=(2, 0, 0), frequency_hz=1e9, scatterers=(unit_cube(5),))
        with pytest.raises(ValueError, match="TX lies inside scatterer 5"):
            scene.with_centers([[1.8, 0.0, 0.0]])

    @pytest.mark.parametrize("centers", [[[0.0, 0.0]], [[0, 0, 0], [1, 1, 1]],
                                         [[math.nan, 0, 0]]])
    def test_with_centers_bad_array_rejected(self, centers):
        scene = Scene(tx=(9, 9, 9), frequency_hz=1e9, scatterers=(unit_cube(),))
        with pytest.raises(ValueError):
            scene.with_centers(centers)


class TestCanonicalScene:
    def test_los_split(self):
        scene, traj = canonical_street_scene()
        assert len(traj) == 15
        states = [not segment_blocked(scene.tx, rx, scene).blocked
                  for rx in traj.positions]
        assert states[:4] == [False] * 4
        assert all(states[4:])

    def test_deterministic(self):
        a = canonical_street_scene(seed=7)
        b = canonical_street_scene(seed=7)
        assert canonical_scene_json(*a) == canonical_scene_json(*b)

    def test_without_blocker_all_los(self):
        scene, traj = canonical_street_scene()
        no_blocker = Scene(tx=scene.tx, frequency_hz=scene.frequency_hz,
                           scatterers=tuple(s for s in scene.scatterers if s.id != 1))
        assert all(not segment_blocked(no_blocker.tx, rx, no_blocker).blocked
                   for rx in traj.positions)


class TestScenePersistence:
    def test_round_trip_bytes(self, tmp_path):
        scene, traj = canonical_street_scene()
        p1 = tmp_path / "scene.json"
        save_scene(p1, scene, traj)
        scene2, traj2 = load_scene(p1)
        p2 = tmp_path / "scene2.json"
        save_scene(p2, scene2, traj2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("frequency_hz, loss_db", [(28_000_000_000, 10.0), (28e9, 10)])
    def test_integer_values_replay_byte_exactly(self, tmp_path, frequency_hz, loss_db):
        """A scene built from integers writes the floats its file reads back,
        so its file and its fingerprint input survive load -> save."""
        scene, traj = canonical_street_scene(frequency_hz=frequency_hz,
                                             reflection_loss_db=loss_db)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_scene(first, scene, traj)
        loaded = load_scene(first)
        save_scene(second, *loaded)
        assert first.read_bytes() == second.read_bytes()
        assert canonical_scene_json(scene, traj) == canonical_scene_json(*loaded)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, tmp_path, literal):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1.5, %s]}' % literal)
        with pytest.raises(ValueError):
            load_json(path)
        path.write_text('{"a": [1.5, -2, 1e300]}')
        assert load_json(path) == {"a": [1.5, -2, 1e300]}

    @pytest.mark.parametrize("kind, good, bad", [
        (int, [3, -2], [2.7, 2.0, True, "3", None]),
        (float, [3, 2.5], [True, "3", None, [1.0]]),
        (bool, [True, False], [1, 0.0, "no", None]),
        (str, ["out"], [3, True, None]),
        (np.ndarray, [[1, 2.5], [[1], [2]], []], [["1"], [1, True], [1, None], 1.5, [[1], 2]]),
    ])
    def test_json_field_takes_only_its_json_type(self, kind, good, bad):
        for value in good:
            got = json_field({"k": value}, "k", kind)
            if kind is np.ndarray:
                assert got.dtype == float and got.tolist() == value
            else:
                assert got == value and type(got) is (float if kind is float else type(value))
        for value in bad:
            with pytest.raises(ValueError, match="^k (must be|is not) "):
                json_field({"k": value}, "k", kind)
        for value, kind in (([10 ** 400], np.ndarray), (10 ** 400, float)):
            with pytest.raises(ValueError, match="^k is not .*too large"):
                json_field({"k": value}, "k", kind)

    def test_version_rejected(self):
        scene, traj = canonical_street_scene()
        doc = scene_to_dict(scene, traj)
        doc["version"] = 99
        with pytest.raises(ValueError):
            scene_from_dict(doc)


class TestArrayBlobs:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1.79e308, -1.79e308,
                       np.finfo(float).max, -np.finfo(float).tiny]))
    @example(np.zeros((0, 16)))
    def test_float64_round_trip_is_bit_exact(self, a):
        doc = json.loads(json.dumps({"a": to_blob(a, "<f8")}))
        back = from_blob(doc, "a", "<f8")
        assert back.shape == a.shape and back.dtype == np.float64
        assert back.tobytes() == a.tobytes()

    ONE_AND_A_HALF = {"dtype": "<f8", "shape": [1], "data": "AAAAAAAA+D8="}

    @pytest.mark.parametrize("change", [
        {"shape": [True]},                  # a bool is no size, though True == 1
        {"data": "AAAAAAAA\n+D8="},         # not strict base64
        {"order": "C"},
        {"data": "AAAAAAAA+H8="},           # NaN
        {"shape": [1, 1], "data": "AAAAAAAA8P8="},  # -inf
    ], ids=["bool shape", "newline in data", "extra key", "nan", "-inf"])
    def test_malformed_blob_rejected(self, change):
        assert from_blob({"x": self.ONE_AND_A_HALF}, "x", "<f8").tolist() == [1.5]
        with pytest.raises(ValueError, match="^x "):
            from_blob({"x": {**self.ONE_AND_A_HALF, **change}}, "x", "<f8")

    def test_value_that_does_not_fit_rejected(self):
        assert from_blob({"f": to_blob([-1, 32767], "<i2")}, "f", "<i2").tolist() == [-1, 32767]
        with pytest.raises(ValueError, match="does not fit <i2"):
            to_blob([-1, 32768], "<i2")


class TestInvariants:
    def test_tx_inside_scatterer_rejected(self):
        with pytest.raises(ValueError):
            Scene(tx=(0, 0, 0), frequency_hz=1e9,
                  scatterers=(unit_cube(),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Scene(tx=(9, 9, 9), frequency_hz=1e9,
                  scatterers=(unit_cube(1), unit_cube(1, center=(3, 3, 3))))

    @pytest.mark.parametrize("sid", [1.5, True, "1"])
    def test_scatterer_id_must_be_an_integer(self, sid):
        with pytest.raises(ValueError, match="id"):
            Scatterer(id=sid, center=(0, 0, 0), dims=(1, 1, 1))

    @pytest.mark.parametrize("loss", [-1.0, math.nan, math.inf])
    def test_bad_reflection_loss_rejected(self, loss):
        with pytest.raises(ValueError):
            Scatterer(id=1, center=(0, 0, 0), dims=(1, 1, 1), reflection_loss_db=loss)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(positions=())
