import copy
import json

import numpy as np
import pytest

from rekpool import forest
from rekpool.features import RealizationConfig
from rekpool.forest import (ForestParams, RandomForestModel, TreeNode, fit,
                            permutation_importance)
from rekpool.geometry import canonical_street_scene
from rekpool.pipeline import (FitCache, build_pool, design_matrices, loo_evaluate,
                              rows_by_position, simulate_trajectory)
from rekpool.pool import Pool, load_pool, save_pool


def linear_benchmark(n=500, seed=0, noise=0.1):
    """y = 3 * x1 + small noise; x2..x4 are pure distractors."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y = 3.0 * X[:, 0] + noise * rng.normal(size=n)
    return X, y


class TestFit:
    def test_benchmark_oob_and_importance(self):
        X, y = linear_benchmark()
        model = fit(X, y, ForestParams(n_trees=60, seed=1))
        assert model.oob_r2 is not None and model.oob_r2 >= 0.95
        imp = permutation_importance(model, X, y, seed=1)
        assert imp[0] / imp.sum() >= 0.9

    def test_bit_identical_refit(self):
        X, y = linear_benchmark(n=120)
        params = ForestParams(n_trees=15, seed=7)
        a = fit(X, y, params)
        b = fit(X, y, params)
        assert a.to_dict() == b.to_dict()
        grid = np.random.default_rng(0).uniform(-1, 1, size=(50, 4))
        assert np.array_equal(a.predict(grid), b.predict(grid))

    def test_different_seeds_differ(self):
        X, y = linear_benchmark(n=120)
        a = fit(X, y, ForestParams(n_trees=15, seed=1))
        b = fit(X, y, ForestParams(n_trees=15, seed=2))
        assert a.to_dict() != b.to_dict()

    def test_constant_target(self):
        X = np.random.default_rng(3).uniform(size=(40, 4))
        y = np.full(40, 5.0)
        model = fit(X, y, ForestParams(n_trees=10, seed=0))
        assert model.oob_r2 is None  # R2 undefined for a constant target
        assert model.predict(X) == pytest.approx(np.full(40, 5.0), abs=1e-12)

    def test_depth_bound(self):
        X, y = linear_benchmark(n=300)
        model = fit(X, y, ForestParams(n_trees=10, max_depth=3, seed=0))
        assert all(t.depth() <= 3 for t in model.trees)

    def test_min_leaf_respected(self):
        X, y = linear_benchmark(n=200)
        model = fit(X, y, ForestParams(n_trees=10, min_leaf=20, seed=0))
        for t in model.trees:
            stack = [t]
            while stack:
                nd = stack.pop()
                if nd.is_leaf():
                    assert nd.n_rows >= 20
                else:
                    stack.extend((nd.left, nd.right))

    def test_prediction_within_target_range(self):
        X, y = linear_benchmark(n=200)
        model = fit(X, y, ForestParams(n_trees=20, seed=4))
        grid = np.random.default_rng(9).uniform(-2, 2, size=(100, 4))
        preds = model.predict(grid)
        assert np.all(preds >= y.min() - 1e-9)
        assert np.all(preds <= y.max() + 1e-9)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((5, 2)), np.zeros(5), ForestParams(min_leaf=5))

    def test_nonfinite_target_rejected(self):
        X = np.zeros((20, 2))
        y = np.zeros(20)
        y[3] = np.nan
        with pytest.raises(ValueError):
            fit(X, y, ForestParams(n_trees=2))

    def test_nonfinite_features_rejected(self):
        X, y = linear_benchmark(n=20)
        X[3, 1] = np.nan
        with pytest.raises(ValueError):
            fit(X, y, ForestParams(n_trees=2))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(features_per_split=0)


class TestPermutationImportance:
    def test_unused_feature_exactly_zero(self):
        X, y = linear_benchmark(n=200)
        # force splits onto feature 0 only
        model = fit(X, y, ForestParams(n_trees=10, features_per_split=4, seed=0))
        used = model.features_used()
        imp = permutation_importance(model, X, y, seed=0)
        for j in range(4):
            if j not in used:
                assert imp[j] == 0.0

    def test_constant_column_zero(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(150, 3))
        X[:, 2] = 7.0  # no split can use a constant column
        y = 2.0 * X[:, 0]
        model = fit(X, y, ForestParams(n_trees=20, seed=0))
        imp = permutation_importance(model, X, y, seed=0)
        assert imp[2] == 0.0

    def test_nonnegative(self):
        X, y = linear_benchmark(n=150, noise=1.0)
        model = fit(X, y, ForestParams(n_trees=10, seed=2))
        imp = permutation_importance(model, X, y, seed=2)
        assert np.all(imp >= 0.0)

    def test_deterministic(self):
        X, y = linear_benchmark(n=150)
        model = fit(X, y, ForestParams(n_trees=10, seed=2))
        a = permutation_importance(model, X, y, seed=3)
        b = permutation_importance(model, X, y, seed=3)
        assert np.array_equal(a, b)


class TestFitCache:
    def test_equal_roots_different_leaves_not_shared(self):
        X, y = linear_benchmark(n=120)
        a = fit(X, y, ForestParams(n_trees=5, seed=4))
        b = copy.deepcopy(a)
        for tree in b.trees:
            assert not tree.is_leaf()
            stack = [tree.left, tree.right]
            while stack:
                nd = stack.pop()
                if nd.is_leaf():
                    nd.value = 0.0
                else:
                    stack += [nd.left, nd.right]
        cache = FitCache()
        imp_a = cache.importance(a, X, y, seed=1)
        imp_b = cache.importance(b, X, y, seed=1)
        assert np.array_equal(imp_a, permutation_importance(a, X, y, seed=1))
        assert np.array_equal(imp_b, permutation_importance(b, X, y, seed=1))
        assert not np.array_equal(imp_a, imp_b)
        assert cache.importance(a, X, y, seed=1) is imp_a


    def test_loaded_template_seeds_fits(self, tmp_path, monkeypatch):
        """A saved->loaded pool as LOO template: only the positions it does
        not hold are fit, and the predictions are those of a cold run."""
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=2, seed=3)
        missing = {2, 9}
        save_pool(tmp_path / "pool.json", build_pool(
            scene, traj, rows, Pool(forest_params=params), skip_positions=missing))
        template = load_pool(tmp_path / "pool.json")
        cold, _ = loo_evaluate(scene, traj, rows, pool_template=Pool(forest_params=params))

        fitted = []

        def counted(X, y, params, feature_names=None):
            fitted.append((X.tobytes(), y.tobytes()))
            return fit(X, y, params, feature_names=feature_names)
        monkeypatch.setattr(forest, "fit", counted)
        seeded, _ = loo_evaluate(scene, traj, rows, pool_template=template)
        by_pos = rows_by_position(rows)
        keys = {pid: tuple(m.tobytes() for m in design_matrices(by_pos[pid]))
                for pid in by_pos}
        assert sorted(fitted) == sorted(keys[pid] for pid in missing)
        assert seeded == cold


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        X, y = linear_benchmark(n=120)
        model = fit(X, y, ForestParams(n_trees=8, seed=6))
        blob = json.dumps(model.to_dict())
        back = RandomForestModel.from_dict(json.loads(blob))
        grid = np.random.default_rng(1).uniform(-1, 1, size=(40, 4))
        assert np.array_equal(model.predict(grid), back.predict(grid))
        assert back.oob_r2 == model.oob_r2
        assert back.params == model.params

    def test_tree_node_round_trip(self):
        leaf = TreeNode(value=1.5, n_rows=7)
        node = TreeNode(feature=2, threshold=0.25, left=leaf,
                        right=TreeNode(value=-3.0, n_rows=9))
        back = TreeNode.from_dict(node.to_dict())
        assert back.to_dict() == node.to_dict()
