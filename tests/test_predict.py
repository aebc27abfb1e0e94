import math

import numpy as np
import pytest

from rekpool import predict
from rekpool.features import FEATURE_NAMES, GROUP_MEMBER_INDEX
from rekpool.forest import ForestParams
from rekpool.geometry import canonical_street_scene
from rekpool.pool import Pool
from rekpool.predict import (ErrorReport, Prediction, context_for, evaluate,
                             fit_logdistance, mask_features, predict_knn,
                             predict_rekp, scene_fingerprint, top_weight_groups)
from rekpool.propagation import OUTAGE_CAP_DB
from rekpool.spectrum import GroupWeights


class TestTopWeightGroups:
    def test_single_dominant_group(self):
        w = GroupWeights(0.95, 0.03, 0.01, 0.01)
        assert top_weight_groups(w, 0.9) == {"L"}

    def test_accumulates_until_tau(self):
        w = GroupWeights(0.4, 0.3, 0.2, 0.1)
        assert top_weight_groups(w, 0.85) == {"L", "V", "B"}
        assert top_weight_groups(w, 0.65) == {"L", "V"}

    def test_tau_one_keeps_all_positive_groups(self):
        w = GroupWeights(0.25, 0.25, 0.25, 0.25)
        assert top_weight_groups(w, 1.0) == {"L", "V", "B", "D"}

    @pytest.mark.parametrize("tau", [0.0, -1.0, 1.0 + 1e-12, 5.0, math.nan])
    def test_tau_outside_unit_interval_rejected(self, tau):
        w = GroupWeights(0.4, 0.3, 0.2, 0.1)
        with pytest.raises(ValueError, match="tau"):
            top_weight_groups(w, tau)
        with pytest.raises(ValueError, match="tau"):
            mask_features(np.ones(16), w, tau)


class TestMaskFeatures:
    def test_masks_excluded_groups(self):
        w = GroupWeights(1.0, 0.0, 0.0, 0.0)
        feats = np.arange(1.0, 17.0)
        out = mask_features(feats, w, 0.9)
        for g, idx in GROUP_MEMBER_INDEX.items():
            for i in idx:
                if g == "L":
                    assert out[i] == feats[i]
                else:
                    assert out[i] == 0.0

    def test_tau_one_is_identity(self):
        w = GroupWeights(0.4, 0.3, 0.2, 0.1)
        feats = np.arange(1.0, 17.0)
        assert np.array_equal(mask_features(feats, w, 1.0), feats)

    def test_input_not_mutated(self):
        w = GroupWeights(1.0, 0.0, 0.0, 0.0)
        feats = np.ones(16)
        mask_features(feats, w, 0.9)
        assert np.array_equal(feats, np.ones(16))


class TestLogDistance:
    def test_exact_recovery_from_two_points(self):
        truth = lambda d: 60.0 + 10.0 * 2.3 * math.log10(d)
        model = fit_logdistance([(10.0, truth(10.0)), (100.0, truth(100.0))])
        assert model.pl0_db == pytest.approx(60.0, abs=1e-6)
        assert model.exponent == pytest.approx(2.3, abs=1e-6)

    def test_interpolates_between_points(self):
        model = fit_logdistance([(10.0, 80.0), (1000.0, 120.0)])
        assert model(100.0) == pytest.approx(100.0, abs=1e-9)

    def test_least_squares_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(1.0, 500.0, 40)
        pl = 55.0 + 21.0 * np.log10(d) + rng.normal(0, 2.0, 40)
        model = fit_logdistance(list(zip(d, pl)))
        x = 10.0 * np.log10(d)
        resid = pl - np.array([model(di) for di in d])
        assert abs(resid.sum()) < 1e-8 * len(d)
        assert abs((resid * x).sum()) < 1e-6 * len(d)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_logdistance([(10.0, 80.0)])

    def test_equal_distances_degenerate(self):
        with pytest.raises(ValueError):
            fit_logdistance([(10.0, 80.0), (10.0, 90.0)])

    def test_nonpositive_distance(self):
        with pytest.raises(ValueError):
            fit_logdistance([(0.0, 80.0), (10.0, 90.0)])


class TestKnn:
    def test_exact_match_returns_sample(self):
        train = [((0, 0, 0), 90.0), ((5, 0, 0), 95.0)]
        assert predict_knn(train, (5, 0, 0)) == 95.0

    def test_k_exceeding_train_size(self):
        train = [((0, 0, 0), 90.0), ((10, 0, 0), 100.0)]
        # symmetric midpoint: both neighbors weigh equally
        assert predict_knn(train, (5, 0, 0), k=10) == pytest.approx(95.0)

    def test_inverse_distance_weighting(self):
        train = [((0, 0, 0), 90.0), ((3, 0, 0), 96.0)]
        # query 1 m from the first sample, 2 m from the second
        got = predict_knn(train, (1, 0, 0), k=2)
        assert got == pytest.approx((90.0 / 1 + 96.0 / 2) / (1 + 0.5))

    def test_k_limits_neighborhood(self):
        train = [((0, 0, 0), 90.0), ((1, 0, 0), 92.0), ((100, 0, 0), 200.0)]
        got = predict_knn(train, (0.4, 0, 0), k=2)
        assert got < 100.0

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            predict_knn([], (0, 0, 0))

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        train = [((0, 0, 0), 90.0), ((10, 0, 0), 100.0)]
        with pytest.raises(ValueError, match="k must be"):
            predict_knn(train, (5, 0, 0), k=k)


class TestErrorReport:
    def report(self, errs):
        return ErrorReport(method="m", errors=tuple(sorted(errs)), n_capped=0)

    def test_p80_of_five_values(self):
        assert self.report([1.0, 2.0, 3.0, 4.0, 5.0]).p80 == 4.0

    def test_p80_single_value(self):
        assert self.report([2.5]).p80 == 2.5

    def test_percentile_bounds(self):
        r = self.report([1.0, 2.0])
        with pytest.raises(ValueError):
            r.percentile(0.0)
        with pytest.raises(ValueError):
            r.percentile(1.5)
        assert r.percentile(1.0) == 2.0

    def test_cdf_shape(self):
        r = self.report([3.0, 1.0, 2.0])
        cdf = r.cdf
        assert [e for e, _ in cdf] == [1.0, 2.0, 3.0]
        assert [f for _, f in cdf] == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_mean_rmse(self):
        r = self.report([3.0, 4.0])
        assert r.mean == pytest.approx(3.5)
        assert r.rmse == pytest.approx(math.sqrt(12.5))


class TestEvaluate:
    def test_splits_by_method(self):
        preds = [Prediction(1, 90.0, 92.0, "a"), Prediction(2, 95.0, 95.5, "a"),
                 Prediction(1, 90.0, 100.0, "b")]
        reports = evaluate(preds)
        assert set(reports) == {"a", "b"}
        assert reports["a"].errors == (0.5, 2.0)
        assert reports["b"].errors == (10.0,)

    def test_capped_rows_excluded(self):
        preds = [Prediction(1, OUTAGE_CAP_DB, OUTAGE_CAP_DB, "a"),
                 Prediction(2, 95.0, 96.0, "a")]
        r = evaluate(preds)["a"]
        assert r.errors == (1.0,)
        assert r.n_capped == 1

    def test_all_capped_rejected(self):
        preds = [Prediction(1, OUTAGE_CAP_DB, OUTAGE_CAP_DB, "a")]
        with pytest.raises(ValueError):
            evaluate(preds)


class TestPredictRekp:
    def test_empty_pool_uses_fallback(self):
        scene, traj = canonical_street_scene()
        pool = Pool(forest_params=ForestParams(n_trees=4, min_leaf=2, seed=0))
        rx = traj.positions[7]
        pred = predict_rekp(pool, scene, traj, rx, 8, fallback=lambda d: 99.0)
        assert pred.fallback
        assert pred.predicted_db == 99.0
        assert pred.method == "rekp"

    @pytest.mark.parametrize("tau", [5.0, math.nan])
    def test_tau_checked_before_the_pool_is_queried(self, tau):
        scene, traj = canonical_street_scene()
        rx = traj.positions[0]
        pool = Pool(forest_params=ForestParams(n_trees=2, min_leaf=2, seed=0))
        X = np.random.default_rng(0).uniform(size=(8, len(FEATURE_NAMES)))
        pool.ingest(context_for(scene, traj, rx, 1), X, X[:, 0], now=1.0)
        with pytest.raises(ValueError, match="tau"):
            predict_rekp(pool, scene, traj, rx, 1, fallback=lambda d: 99.0, tau=tau)
        assert pool.entries[1].utilization_count == 0

    def test_scene_hashed_once_per_pair(self, monkeypatch):
        hashed = []
        real = predict.fnv1a_64

        def counted(data):
            hashed.append(data)
            return real(data)
        monkeypatch.setattr(predict, "fnv1a_64", counted)
        scene, traj = canonical_street_scene()
        pool = Pool(forest_params=ForestParams(n_trees=4, min_leaf=2, seed=0))
        for pid in (1, 2, 1):
            predict_rekp(pool, scene, traj, traj.positions[pid - 1], pid,
                         fallback=lambda d: 99.0)
        other = canonical_street_scene()[1]  # an equal trajectory is another pair
        assert scene_fingerprint(scene, other) == scene_fingerprint(scene, traj)
        assert len(hashed) == 2 and hashed[0] == hashed[1]

    def test_fingerprint_sensitive_to_geometry(self):
        a = canonical_street_scene()
        b = canonical_street_scene(spacing_m=4.0)
        assert scene_fingerprint(*a) != scene_fingerprint(*b)
        assert scene_fingerprint(*a) == scene_fingerprint(*canonical_street_scene())
