import itertools
import math

import numpy as np
import pytest

from rekpool.features import (DATASET_HEADER, FEATURE_NAMES, GROUP_MEMBER_INDEX,
                              GROUP_OF_MEMBER, GROUPS, DropReport,
                              RealizationConfig, StreamRecord, align_streams,
                              dataset_to_csv, extract_features, load_dataset,
                              realize, save_dataset)
from rekpool import features, propagation
from rekpool.geometry import Scatterer, Scene, canonical_street_scene
from rekpool.propagation import trace_paths


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
        sentinel = scene.bounds_diagonal()
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
        assert f["D_pathlen"] == pytest.approx(scene.bounds_diagonal())

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


class TestRealize:
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
        calls = []
        real = propagation.trace

        def counted(scene, rx):
            calls.append(1)
            return real(scene, rx)
        # path_loss and extract_features reach trace through these names
        monkeypatch.setattr(features, "trace", counted)
        monkeypatch.setattr(propagation, "trace", counted)
        scene, traj = canonical_street_scene()
        rows = realize(scene, traj.positions[0], RealizationConfig(n_realizations=6, seed=1),
                       position_id=1)
        assert len(rows) == len(calls) == 6

    def test_n_realizations_lower_bound(self):
        with pytest.raises(ValueError):
            RealizationConfig(n_realizations=1)


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
