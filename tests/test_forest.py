import base64
import copy
import dataclasses
import json
import math
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rekpool import forest, pipeline, predict, propagation
from rekpool import pool as pool_module
from rekpool.features import RealizationConfig
from rekpool.forest import (TREE_ROW_BUDGET, ForestParams, RandomForestModel, Trees, fit,
                            permutation_importance)
from rekpool.geometry import canonical_street_scene, from_blob, to_blob
from rekpool.pipeline import (FitCache, build_pool, design_matrices, loo_evaluate,
                              rows_by_position, simulate_trajectory, trace_trajectory)
from rekpool.pool import Pool, derive_knowledge, load_pool, rows_sha256, save_pool
from rekpool.predict import trajectory_contexts


def children(t):
    """(left, right): each node's left and right child rows, read from the
    table's one child table, which holds node i's right child at 2i and
    its left child at 2i + 1."""
    return t.child[1::2], t.child[0::2]


def interleave(left, right):
    """The child table of per-node left and right child rows."""
    return np.column_stack([right, left]).ravel()


def tree_depth(t):
    """Largest depth of the trees of a table, from its child table
    (children follow parents, roots have none)."""
    left, right = children(t)
    depth = np.zeros(len(t.feature), dtype=int)
    for i in np.flatnonzero(t.feature >= 0):
        depth[left[i]] = depth[right[i]] = depth[i] + 1
    return depth.max()


def tree_rows(trees):
    """The rows of each tree of a `Trees` table, in tree order."""
    bounds = [*trees.roots.tolist(), len(trees.feature)]
    return [np.arange(a, b) for a, b in zip(bounds, bounds[1:])]


#: Root splits on x2, its left child on x0; nodes 2, 3 and 4 are leaves.
VALID_TREE = {"feature": to_blob([2, 0, -1, -1, -1], "<i2"),
              "threshold": to_blob([0.25, 0.5], "<f8"), "value": to_blob([1.5, 0.5, -3.0], "<f8")}


def reference_children(feature):
    """Child lists of a preorder feature sequence, by recursive descent."""
    n = len(feature)
    left, right = list(range(n)), list(range(n))

    def subtree(i):  # index one past the subtree rooted at i
        if feature[i] < 0:
            return i + 1
        left[i] = i + 1
        right[i] = subtree(i + 1)
        return subtree(right[i])
    assert subtree(0) == n
    return left, right


def tree_leaves(t, X, root=0):
    """Reference walk: the leaf each row of X reaches from the root at row
    `root`, one row and one node at a time."""
    left, right = children(t)
    out = []
    for x in X:
        node = root
        while t.feature[node] >= 0:
            node = left[node] if x[t.feature[node]] <= t.threshold[node] else right[node]
        out.append(node)
    return np.array(out, dtype=int)


def scalar_predict(model, X):
    """Reference predict: one row and one node at a time, each tree walked
    from its root, trees summed in order."""
    t = model.trees
    left, right = children(t)
    out = np.zeros(len(X))
    for i, x in enumerate(X):
        for root in t.roots:
            node = root
            while t.feature[node] >= 0:
                go_left = x[t.feature[node]] <= t.threshold[node]
                node = left[node] if go_left else right[node]
            out[i] += t.value[node]
    return out / len(t.roots)


def scalar_importance(model, X, y, seed, n_repeats=5):
    """Reference permutation importance: one permuted matrix per predict."""
    base_mse = float(((scalar_predict(model, X) - y) ** 2).mean())
    importances = np.zeros(X.shape[1])
    for j in sorted(model.features_used()):
        deltas = []
        for r in range(n_repeats):
            rng = np.random.default_rng(np.random.SeedSequence([seed, j, r]))
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(len(X)), j]
            deltas.append(float(((scalar_predict(model, Xp) - y) ** 2).mean()) - base_mse)
        importances[j] = max(0.0, float(np.mean(deltas)))
    return importances


def reference_best_split(X, y, rows, candidates, min_leaf):
    """Reference split search: one candidate feature at a time.  Best
    (feature, threshold) by variance reduction, or None; ties go to the
    lowest feature index, then the lowest threshold."""
    best = None
    n = len(rows)
    y_sub = y[rows]
    total_sum = y_sub.sum()
    total_sq = (y_sub * y_sub).sum()
    nl = np.arange(1, n)
    nr = n - nl
    for f in sorted(int(c) for c in candidates):
        x = X[rows, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y_sub[order]
        csum = np.cumsum(ys)[:-1]
        csq = np.cumsum(ys * ys)[:-1]
        valid = xs[1:] > xs[:-1]
        valid[:min_leaf - 1] = False
        if min_leaf > 1:
            valid[len(valid) - (min_leaf - 1):] = False
        if not valid.any():
            continue
        sse = np.where(
            valid,
            (csq - csum * csum / nl) + ((total_sq - csq) - (total_sum - csum) ** 2 / nr),
            np.inf)
        k = int(np.argmin(sse))
        thr = 0.5 * (xs[k] + xs[k + 1])
        key = (float(sse[k]), f, float(thr))
        if best is None or key < best:
            best = key
    if best is None:
        return None
    base_sse = total_sq - total_sum * total_sum / n
    sse_best, f, thr = best
    if base_sse - sse_best <= 0.0:
        return None
    return f, thr


def reference_grow(X, y, rows, depth, params, k_features, rng, nodes):
    """Reference growth: append the subtree over `rows` to `nodes` in
    preorder by recursion, drawing candidates from the tree's own rng."""
    i = len(nodes)
    nodes.append([-1, 0.0, float(y[rows].mean())])
    if depth >= params.max_depth or len(rows) < 2 * params.min_leaf:
        return
    candidates = rng.choice(X.shape[1], size=k_features, replace=False)
    split = reference_best_split(X, y, rows, candidates, params.min_leaf)
    if split is None:
        return
    f, thr = split
    mask = X[rows, f] <= thr
    left_rows, right_rows = rows[mask], rows[~mask]
    if len(left_rows) < params.min_leaf or len(right_rows) < params.min_leaf:
        return
    nodes[i] = [int(f), float(thr), 0.0]
    reference_grow(X, y, left_rows, depth + 1, params, k_features, rng, nodes)
    reference_grow(X, y, right_rows, depth + 1, params, k_features, rng, nodes)


#: One tree of the reference: its preorder node arrays and the child
#: table of the children that `reference_children` gives them.
RefTree = namedtuple("RefTree", "feature threshold value child")


def reference_tree(nodes):
    feature, threshold, value = map(np.array, zip(*nodes))
    return RefTree(feature, threshold, value,
                   interleave(*map(np.array, reference_children(feature.tolist()))))


def reference_fit_tree(X, y, params, tree_index):
    """Reference: one tree and its bootstrap rows, grown on its own."""
    n, p = X.shape
    rng = np.random.default_rng(np.random.SeedSequence(
        [params.seed & 0xFFFFFFFFFFFFFFFF, tree_index]))
    boot = rng.integers(0, n, size=n)
    nodes = []
    reference_grow(X, y, boot.copy(), 0, params, params.resolved_features_per_split(p),
                   rng, nodes)
    return reference_tree(nodes), boot


def reference_oob_r2(trees, bootstraps, X, y):
    """Reference out-of-bag R2: each tree predicts its left-out rows, in
    tree order."""
    n = len(y)
    pred_sum = np.zeros(n)
    pred_cnt = np.zeros(n, dtype=int)
    for tree, boot in zip(trees, bootstraps):
        oob = np.ones(n, dtype=bool)
        oob[boot] = False
        idx = np.flatnonzero(oob)
        pred_sum[idx] += tree.value[tree_leaves(tree, X[idx])]
        pred_cnt[idx] += 1
    covered = pred_cnt > 0
    if not covered.any():
        return None
    resid = y[covered] - pred_sum[covered] / pred_cnt[covered]
    ss_tot = float(((y[covered] - y[covered].mean()) ** 2).sum())
    if ss_tot == 0.0:
        return None
    return float(1.0 - (resid ** 2).sum() / ss_tot)


def reference_fit(X, y, params):
    """Reference forest: (trees, out-of-bag R2), each tree grown on its own."""
    trees, boots = zip(*(reference_fit_tree(X, y, params, t) for t in range(params.n_trees)))
    return list(trees), reference_oob_r2(trees, boots, X, y)


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
        assert tree_depth(model.trees) <= 3

    def test_min_leaf_respected(self):
        X, y = linear_benchmark(n=200)
        params = ForestParams(n_trees=10, min_leaf=20, seed=0)
        model = fit(X, y, params)
        t = model.trees
        for i, rows in enumerate(tree_rows(t)):
            _, boot = reference_fit_tree(X, y, params, i)
            rows_per_node = np.bincount(tree_leaves(t, X[boot], root=rows[0]),
                                        minlength=len(t.feature))
            assert np.all(rows_per_node[rows][t.feature[rows] < 0] >= 20)

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

    @pytest.mark.parametrize("n_names", [2, 16])
    def test_feature_names_must_match_columns(self, n_names):
        X, y = linear_benchmark(n=20)
        with pytest.raises(ValueError, match="feature names"):
            fit(X, y, ForestParams(n_trees=2), feature_names=[f"f{i}" for i in range(n_names)])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(features_per_split=0)

    @pytest.mark.parametrize("name", ["n_trees", "max_depth", "min_leaf", "seed",
                                      "features_per_split"])
    @pytest.mark.parametrize("value", [2.7, 2.0, True, "3"])
    def test_non_integer_params_rejected(self, name, value):
        d = {**ForestParams().to_dict(), name: value}
        with pytest.raises(TypeError):
            ForestParams.from_dict(d)
        assert ForestParams.from_dict({**d, name: np.int64(3)}).to_dict()[name] == 3


class TestScalarReference:
    """The array walk and the batched importance equal, bit for bit, a
    per-row, per-node walk with trees summed in order and one predict
    per permuted matrix."""

    def test_predict_and_importance_match(self):
        X, y = linear_benchmark(n=150, noise=0.5)
        X[:, 3] = np.round(X[:, 3], 1)  # ties
        model = fit(X, y, ForestParams(n_trees=12, min_leaf=3, seed=5))
        grid = np.random.default_rng(2).uniform(-1.2, 1.2, size=(60, 4))
        # rows that sit exactly on split thresholds pin the <= comparison
        t = model.trees
        on_split = [(t.feature[i], t.threshold[i]) for rows in tree_rows(t)
                    for i in rows[t.feature[rows] >= 0][:3]]
        for row, (f, thr) in zip(grid, on_split):
            row[f] = thr
        for Z in (X, grid):
            assert np.array_equal(model.predict(Z), scalar_predict(model, Z))
        assert np.array_equal(permutation_importance(model, X, y, seed=4),
                              scalar_importance(model, X, y, seed=4))


class TestRecursiveReference:
    """Lockstep growth across trees equals, bit for bit, growing each tree
    on its own by recursion; the stacked walk equals the per-row walk
    for one row, for more rows than one block holds, and for a forest
    whose trees were swapped by `dataclasses.replace`."""

    @settings(max_examples=150, deadline=None)
    @given(n_trees=st.integers(1, 8), max_depth=st.integers(1, 12),
           min_leaf=st.integers(1, 6), extra_rows=st.integers(0, 40),
           p=st.integers(1, 6), per_split=st.sampled_from(["default", "one", "all"]),
           decimals=st.sampled_from([None, 1, 0]), constant=st.booleans(),
           duplicate=st.booleans(), y_decimals=st.sampled_from([None, 0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fit_equals_reference(self, n_trees, max_depth, min_leaf, extra_rows, p,
                                  per_split, decimals, constant, duplicate, y_decimals, seed):
        rng = np.random.default_rng(seed)
        n = 2 * min_leaf + extra_rows
        X = rng.normal(size=(n, p))
        y = X[:, 0] + rng.normal(size=n)
        if decimals is not None:  # tied feature values
            X = np.round(X, decimals)
        if duplicate and p > 1:  # equal scores on two features: the lower index wins
            X[:, 1] = X[:, 0]
        if constant:
            X[:, -1] = 2.5
        if y_decimals is not None:  # tied targets
            y = np.round(y, y_decimals)
        params = ForestParams(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                              features_per_split={"default": None, "one": 1, "all": p}[per_split],
                              seed=seed)
        model = fit(X, y, params)
        trees, oob_r2 = reference_fit(X, y, params)
        assert model.oob_r2 == oob_r2
        got = model.trees
        roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
        assert got.roots.tolist() == roots.tolist()
        for a in ("feature", "threshold", "value", "child"):
            # each tree's child rows are its own children shifted by its root
            want = np.concatenate([getattr(t, a) + root if a == "child"
                                   else getattr(t, a) for t, root in zip(trees, roots)])
            assert getattr(got, a).dtype == want.dtype
            assert np.array_equal(getattr(got, a), want)
        assert got.depth == max(tree_depth(t) for t in trees)
        Z = rng.normal(size=(7, p))
        assert np.array_equal(model.predict(Z), scalar_predict(model, Z))
        assert np.array_equal(permutation_importance(model, X, y, seed=seed),
                              scalar_importance(model, X, y, seed=seed))

    def test_negative_zero_leaves_add_from_zero(self):
        """Tree outputs add from 0.0, as the per-row walk adds them, so leaves
        of -0.0, kept or masked, add up to 0.0, never -0.0."""
        leaves = Trees.parse(np.array([-1, -1, -1]), np.zeros(3), np.full(3, -0.0))
        model = RandomForestModel(trees=leaves, params=ForestParams(n_trees=3),
                                  feature_names=("a",), oob_r2=None)
        X = np.zeros((4, 1))
        keep = np.array([[True, False, False, True]] * 2 + [[True, True, False, False]])
        for got in (leaves.sums(X), leaves.sums(X, keep), model.predict(X)):
            assert np.array_equal(got, scalar_predict(model, X))
            assert not np.signbit(got).any()

    def test_predict_one_row(self):
        X, y = linear_benchmark(n=80)
        model = fit(X, y, ForestParams(n_trees=9, min_leaf=2, seed=3))
        row = np.array([[0.1, -0.4, 0.3, 0.9]])
        assert model.predict(row).shape == (1,)
        assert np.array_equal(model.predict(row), scalar_predict(model, row))
        assert model.predict_one(row[0]) == scalar_predict(model, row)[0]

    def test_predict_across_blocks(self):
        X, y = linear_benchmark(n=60)
        model = fit(X, y, ForestParams(n_trees=64, max_depth=5, min_leaf=3, seed=8))
        rows_per_block = TREE_ROW_BUDGET // 64
        grid = np.random.default_rng(4).uniform(-1.2, 1.2, size=(2 * rows_per_block + 5, 4))
        assert np.array_equal(model.predict(grid), scalar_predict(model, grid))

    def test_transfer_basis_rebuilds_the_table(self):
        X, y = linear_benchmark(n=90)
        a = fit(X, y, ForestParams(n_trees=5, seed=1))
        b = fit(X[::-1], y[::-1], ForestParams(n_trees=4, max_depth=3, seed=2))
        grid = np.random.default_rng(6).uniform(-1, 1, size=(30, 4))
        a.predict(grid)  # build a's table first
        basis = dataclasses.replace(a, trees=a.trees + b.trees)
        assert np.array_equal(basis.predict(grid), scalar_predict(basis, grid))
        assert np.array_equal(a.predict(grid), scalar_predict(a, grid))

    def test_predict_follows_edits_to_a_copy(self):
        X, y = linear_benchmark(n=90)
        model = fit(X, y, ForestParams(n_trees=5, seed=1))
        grid = np.random.default_rng(6).uniform(-1, 1, size=(30, 4))
        before = model.predict(grid)
        edited = copy.deepcopy(model)
        edited.trees.value[edited.trees.feature < 0] = 0.0
        assert np.array_equal(edited.predict(grid), np.zeros(len(grid)))
        assert np.array_equal(model.predict(grid), before)


@st.composite
def preorder_tree(draw, depth=0):
    """The preorder feature sequence of a random binary tree over 4
    features, at most 5 deep."""
    if depth == 5 or not draw(st.booleans()):
        return [-1]
    return [draw(st.integers(0, 3)), *draw(preorder_tree(depth + 1)),
            *draw(preorder_tree(depth + 1))]


def parse(feature, first=0):
    """`Trees.parse` of a feature sequence whose first node is row `first`
    of a table, each node's row as its threshold and value."""
    rows = np.arange(first, first + len(feature), dtype=float)
    return Trees.parse(np.array(feature, dtype=int), rows, rows.copy())


class TestTable:
    """`Trees.parse` splits a stacked sequence into whole trees exactly as
    recursive descent does, and joining two tables shifts their rows."""

    @settings(max_examples=200, deadline=None)
    @given(trees=st.lists(preorder_tree(), min_size=1, max_size=6), data=st.data())
    def test_parse_equals_recursive_descent(self, trees, data):
        feature = [f for tree in trees for f in tree]
        table = parse(feature)
        roots = np.cumsum([0] + [len(tree) for tree in trees[:-1]]).tolist()
        child, depth = [], 0
        for root, tree in zip(roots, trees):
            ref = reference_tree([(f, 0.0, 0.0) for f in tree])
            child += (ref.child + root).tolist()
            depth = max(depth, tree_depth(ref))
        assert len(table) == len(trees)
        assert table.roots.tolist() == roots
        assert table.child.tolist() == child
        assert table.depth == depth
        # one node more, an inner one, leaves the last tree partial
        with pytest.raises(ValueError):
            parse(feature + [0])
        # so does one node less, unless the last tree is a lone leaf
        if len(trees[-1]) > 1 or len(trees) == 1:
            with pytest.raises(ValueError):
                parse(feature[:-1])
        else:
            assert len(parse(feature[:-1])) == len(trees) - 1
        if len(trees) > 1:
            k = data.draw(st.integers(1, len(trees) - 1))
            head = [f for tree in trees[:k] for f in tree]
            joined = parse(head) + parse(feature[len(head):], first=len(head))
            for a in ("feature", "threshold", "value", "child", "roots"):
                assert getattr(joined, a).dtype == getattr(table, a).dtype
                assert np.array_equal(getattr(joined, a), getattr(table, a))
            assert joined.depth == table.depth


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

    def test_cached_permutations_read_only(self):
        order = forest._permutation(3, 1, 0, 20)
        assert forest._permutation(3, 1, 0, 20) is order
        with pytest.raises(ValueError):
            order[0] = 1

    def test_deterministic(self):
        X, y = linear_benchmark(n=150)
        model = fit(X, y, ForestParams(n_trees=10, seed=2))
        a = permutation_importance(model, X, y, seed=3)
        b = permutation_importance(model, X, y, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("case, message", [
        ("one target", "one target per row"),
        ("nan target", "must be finite"),
        ("nan row", "must be finite"),
        ("inf row", "must be finite"),
        ("1-D rows", "must be 2-D"),
        ("too few columns", "3 columns for 4 feature names"),
        ("no rows", "dataset must be nonempty"),
    ])
    def test_bad_rows_rejected(self, case, message):
        X, y = linear_benchmark(n=40)
        model = fit(X, y, ForestParams(n_trees=5, seed=0))
        X, y = X.copy(), y.copy()
        if case == "one target":  # y[:1] would broadcast over every row
            y = y[:1]
        elif case == "nan target":
            y[3] = np.nan
        elif case in ("nan row", "inf row"):  # NaN would be walked as "go right"
            X[5, 0] = np.nan if case == "nan row" else np.inf
        elif case == "1-D rows":
            X = X[0]
        elif case == "too few columns":
            X = X[:, :3]
        else:
            X, y = X[:0], y[:0]
        with pytest.raises(ValueError, match=message):
            permutation_importance(model, X, y)


@st.composite
def threshold_forest(draw):
    """A forest over 4 features, possibly of single leaves only, and rows
    that take the thresholds' own values.  Thresholds and row values come
    from one grid, so permuted values land exactly on thresholds; trees
    have any depth up to 5, and the forest may be two tables joined by
    `Trees.__add__`, as a transfer basis is."""
    trees = draw(st.lists(preorder_tree(), min_size=1, max_size=6))
    grid = st.integers(0, 4).map(lambda k: 0.5 * k)
    tables = []
    for part in np.array_split(np.arange(len(trees)), draw(st.integers(1, 2))):
        feature = np.array([f for k in part.tolist() for f in trees[k]], dtype=int)
        if not len(feature):
            continue
        inner = feature >= 0
        threshold = np.where(inner, draw(st.lists(grid, min_size=len(feature),
                                                  max_size=len(feature))), 0.0)
        value = np.where(inner, 0.0, draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=len(feature),
            max_size=len(feature))))
        tables.append(Trees.parse(feature, threshold, value))
    table = tables[0] if len(tables) == 1 else tables[0] + tables[1]
    n = draw(st.integers(1, 25))
    X = np.array(draw(st.lists(grid, min_size=4 * n, max_size=4 * n))).reshape(n, 4)
    y = np.array(draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n,
                               max_size=n)))
    model = RandomForestModel(trees=table, params=ForestParams(n_trees=len(table)),
                              feature_names=("a", "b", "c", "d"), oob_r2=None)
    return model, X, y


class TestPathLocalImportance:
    """Re-walking only the (tree, row) pairs whose path splits on the
    permuted feature gives, bit for bit, the importances of predicting
    every permuted copy of X through every tree."""

    @settings(max_examples=150, deadline=None)
    @given(forest_rows=threshold_forest(), seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from([2, 7, 64, TREE_ROW_BUDGET]))
    def test_equals_scalar_reference(self, forest_rows, seed, budget):
        model, X, y = forest_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "TREE_ROW_BUDGET", budget)
            got = permutation_importance(model, X, y, seed=seed)
        assert np.array_equal(got, scalar_importance(model, X, y, seed=seed))

    def test_single_leaf_forest_scores_zero(self):
        leaves = Trees.parse(np.array([-1, -1, -1]), np.zeros(3), np.array([1.0, -2.0, 0.5]))
        model = RandomForestModel(trees=leaves, params=ForestParams(n_trees=3),
                                  feature_names=("a", "b"), oob_r2=None)
        X = np.random.default_rng(1).normal(size=(9, 2))
        assert model.features_used() == set()
        assert np.array_equal(permutation_importance(model, X, np.zeros(9)), np.zeros(2))

    @pytest.mark.parametrize("budget", [2, 64])
    def test_copies_span_many_blocks(self, monkeypatch, budget):
        X, y = linear_benchmark(n=30, noise=0.5)
        a = fit(X, y, ForestParams(n_trees=4, min_leaf=2, seed=1))
        b = fit(X[::-1], y[::-1], ForestParams(n_trees=3, max_depth=2, seed=2))
        basis = dataclasses.replace(a, trees=a.trees + b.trees)
        monkeypatch.setattr(forest, "TREE_ROW_BUDGET", budget)
        for model in (a, basis):
            assert np.array_equal(permutation_importance(model, X, y, seed=7),
                                  scalar_importance(model, X, y, seed=7))


class TestFitCache:
    def test_equal_rows_different_sources_not_shared(self, monkeypatch):
        """A derivation is keyed by its rows, its transfer source's rows and the
        forest parameters: equal rows with another source derive again."""
        rng = np.random.default_rng(4)
        X, A, B = (rng.uniform(-1, 1, size=(40, 16)) for _ in range(3))
        rows = (X, 3.0 * X[:, 0]), (A, 2.0 * A[:, 1]), (B, -1.0 * B[:, 9])
        params = ForestParams(n_trees=4, max_depth=4, min_leaf=2, seed=1)
        runs = []
        real = forest.permutation_importance

        def counted(model, X, y, seed=0):
            runs.append(len(model.trees))
            return real(model, X, y, seed=seed)
        monkeypatch.setattr(forest, "permutation_importance", counted)
        cache = FitCache()
        sources = (None, rows[1], rows[2])
        derived = [cache.importance(*rows[0], params, src) for src in sources]
        assert runs == [4, 8, 8]
        assert all(d[0] is derived[0][0] for d in derived)  # one forest of the rows
        weights = [d[1] for d in derived]
        assert weights[0] != weights[1] != weights[2] != weights[0]
        for src, w in zip(sources, weights):
            assert w == derive_knowledge(FitCache(), *rows[0], params, src)[1]
        runs.clear()
        assert [cache.importance(*rows[0], params, src) for src in sources] == derived
        assert cache.importance(*rows[0], dataclasses.replace(params, seed=2))[1] \
            != weights[0]
        assert runs == [4]

    def test_each_row_set_digested_once_per_derivation(self, monkeypatch):
        """A miss digests its rows and its source's rows once each: its two
        forest lookups reuse the digests it keyed on."""
        rng = np.random.default_rng(5)
        X, A = (rng.uniform(-1, 1, size=(40, 16)) for _ in range(2))
        params = ForestParams(n_trees=2, max_depth=3, min_leaf=2, seed=1)
        digested = []
        real = pool_module.rows_sha256

        def counted(X, y):
            digested.append(len(X))
            return real(X, y)
        monkeypatch.setattr(pool_module, "rows_sha256", counted)
        cache = FitCache()
        model = cache.importance(X, X[:, 0], params)[0]
        assert digested == [40]
        digested.clear()
        assert cache.importance(X, X[:, 0], params, (A[:20], A[:20, 1]))[0] is model
        assert digested == [40, 20]
        assert cache.fit(A[:20], A[:20, 1], params) is cache.fit(
            A[:20], A[:20, 1], params, real(A[:20], A[:20, 1]))  # one memo key either way

    def test_loaded_template_seeds_fits(self, tmp_path, monkeypatch):
        """A saved->loaded pool as LOO template: only the positions it does
        not hold are fit, and the predictions are those of a cold run."""
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=2, seed=3)
        missing = {2, 9}
        contexts = trajectory_contexts(scene, traj, trace_trajectory(scene, traj))
        save_pool(tmp_path / "pool.json", build_pool(
            rows, contexts, Pool(forest_params=params), skip_positions=missing))
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

    def test_loaded_template_seeds_derivations(self, tmp_path, monkeypatch):
        """LOO from a saved->loaded pool runs importance only for the
        derivations the file does not hold, and predicts what a cold run does."""
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=2, seed=3)
        contexts = trajectory_contexts(scene, traj, trace_trajectory(scene, traj))
        save_pool(tmp_path / "pool.json", build_pool(rows, contexts, Pool(forest_params=params)))
        template = load_pool(tmp_path / "pool.json")
        stored = {(rows_sha256(e.train_X, e.train_y), e.source_sha256)
                  for e in template.entries.values()}
        derived, runs = [], []
        real_derive, real_importance = pool_module.derive_knowledge, forest.permutation_importance

        def derive(cache, X, y, params, source=None, digests=(None, None)):
            derived.append((rows_sha256(X, y), None if source is None else rows_sha256(*source)))
            return real_derive(cache, X, y, params, source, digests)

        def importance(*args, **kwargs):
            runs.append(1)
            return real_importance(*args, **kwargs)
        monkeypatch.setattr(pool_module, "derive_knowledge", derive)
        monkeypatch.setattr(forest, "permutation_importance", importance)
        cold, _ = loo_evaluate(scene, traj, rows, pool_template=Pool(forest_params=params))
        needed = set(derived)
        assert len(derived) == len(needed) == len(runs)
        derived.clear()
        runs.clear()
        seeded, _ = loo_evaluate(scene, traj, rows, pool_template=template)
        assert sorted(derived) == sorted(needed - stored)
        assert len(runs) == len(derived) < len(needed)
        assert seeded == cold

    def test_unread_template_stays_unread(self, monkeypatch):
        """A template built in this process lends its memo, and LOO derives
        none of its entries: each held-out pool fits what it reads.  A cell
        derives only on its first read, and no template cell is ever read."""
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=2, seed=3)
        contexts = trajectory_contexts(scene, traj, trace_trajectory(scene, traj))
        read, real_get = [], pool_module.Knowledge.get

        def get(cell):
            read.append(id(cell))
            return real_get(cell)
        monkeypatch.setattr(pool_module.Knowledge, "get", get)
        template = build_pool(rows, contexts, Pool(forest_params=params))
        lazy, _ = loo_evaluate(scene, traj, rows, pool_template=template)
        assert read  # the held-out pools' cells are read
        assert not {id(e.knowledge) for e in template.entries.values()} & set(read)
        cold, _ = loo_evaluate(scene, traj, rows, pool_template=Pool(forest_params=params))
        assert lazy == cold

    def test_held_out_pools_take_the_template_settings(self, monkeypatch):
        """Every held-out pool carries the template's capacity, thresholds
        and forest parameters, none of its entries, and never the held-out
        position."""
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        template = Pool(capacity=5, theta_high=0.9, theta_low=0.3,
                        forest_params=ForestParams(n_trees=3, max_depth=4, min_leaf=2,
                                                   seed=3))
        settings = ("capacity", "theta_high", "theta_low", "forest_params")
        seen = []
        real = pipeline.serve

        def record(pool, ctx, tr, **kw):
            seen.append(ctx.position_id)
            assert all(getattr(pool, s) == getattr(template, s) for s in settings)
            assert len(pool.entries) == 5
            assert ctx.position_id not in {e.context.position_id
                                           for e in pool.entries.values()}
            return real(pool, ctx, tr, **kw)
        monkeypatch.setattr(pipeline, "serve", record)
        loo_evaluate(scene, traj, rows, pool_template=template)
        assert seen == list(range(1, 16))
        assert template.entries == {} and template.next_entry_id == 1

    def test_traces_each_position_once(self, monkeypatch):
        """One trace per position gives its context, its truth and its
        features for every held-out round."""
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        traced = Counter()
        real = propagation.trace

        def counted(scene, rx):
            traced[tuple(rx)] += 1
            return real(scene, rx)
        for module in (pipeline, predict, propagation):
            monkeypatch.setattr(module, "trace", counted)
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=2, seed=3)
        loo_evaluate(scene, traj, rows, pool_template=Pool(forest_params=params))
        assert traced == Counter({tuple(rx): 1 for rx in traj.positions})


class TestSerialization:
    @pytest.mark.parametrize("params", [
        ForestParams(),
        ForestParams(n_trees=7, max_depth=3, min_leaf=2, features_per_split=4, seed=9)])
    def test_params_round_trip(self, params):
        d = json.loads(json.dumps(params.to_dict()))
        assert list(d) == ["n_trees", "max_depth", "min_leaf", "features_per_split", "seed"]
        assert ForestParams.from_dict(d) == params

    def test_round_trip_preserves_predictions(self):
        X, y = linear_benchmark(n=120)
        model = fit(X, y, ForestParams(n_trees=8, seed=6))
        blob = json.dumps(model.to_dict())
        assert list(json.loads(blob)) == ["oob_r2", "feature", "threshold", "value"]
        back = RandomForestModel.from_dict(json.loads(blob), model.params,
                                           model.feature_names)
        grid = np.random.default_rng(1).uniform(-1, 1, size=(40, 4))
        assert np.array_equal(model.predict(grid), back.predict(grid))
        assert back.oob_r2 == model.oob_r2
        assert back.params == model.params

    @pytest.mark.parametrize("oob_r2, ok", [(0.5, True), (None, True), ("0.5", False),
                                            (True, False), (math.nan, False)])
    def test_stored_oob_r2_checked(self, oob_r2, ok):
        d = {"oob_r2": oob_r2, **VALID_TREE}
        params, names = ForestParams(n_trees=1), ("a", "b", "c")
        if ok:
            assert RandomForestModel.from_dict(d, params, names).oob_r2 == oob_r2
        else:
            with pytest.raises(ValueError):
                RandomForestModel.from_dict(d, params, names)

    def test_tree_round_trip(self):
        tree = Trees.parse(np.array([2, -1, -1]), np.array([0.25, 0.0, 0.0]),
                           np.array([0.0, 1.5, -3.0]))
        d = json.loads(json.dumps(tree.to_dict()))

        def blob(dtype, items):
            data = base64.b64encode(np.array(items, dtype=dtype).tobytes()).decode()
            return {"dtype": dtype, "shape": [len(items)], "data": data}
        assert d == {"feature": blob("<i2", [2, -1, -1]), "threshold": blob("<f8", [0.25]),
                     "value": blob("<f8", [1.5, -3.0])}
        back = Trees.from_dict(d, n_features=3)
        assert back.to_dict() == tree.to_dict()
        for a in ("feature", "threshold", "value", "child", "roots"):
            assert np.array_equal(getattr(back, a), getattr(tree, a))
        X = np.array([[0.0, 0.0, 0.25], [0.0, 0.0, 0.3]])
        assert np.array_equal(back.value[tree_leaves(back, X)], [1.5, -3.0])

    def test_children_derived_from_preorder(self):
        # root splits on x2, its left child on x0; nodes 2, 3 and 4 are leaves
        t = Trees.from_dict(VALID_TREE, n_features=3)
        # (right, left) per node; a leaf points to itself
        assert t.child.tolist() == [4, 1, 3, 2, 2, 2, 3, 3, 4, 4]
        assert t.roots.tolist() == [0] and t.depth == 2
        X, y = linear_benchmark(n=150)
        t = fit(X, y, ForestParams(n_trees=8, seed=3)).trees
        for rows in tree_rows(t):
            left, right = reference_children(t.feature[rows].tolist())
            assert (children(t)[0][rows] - rows[0]).tolist() == left
            assert (children(t)[1][rows] - rows[0]).tolist() == right

    def test_fitted_inner_values_and_leaf_thresholds_zero(self):
        X, y = linear_benchmark(n=150)
        t = fit(X, y, ForestParams(n_trees=5, seed=3)).trees
        assert np.all(t.value[t.feature >= 0] == 0.0)
        assert np.all(t.threshold[t.feature < 0] == 0.0)
        back = Trees.from_dict(json.loads(json.dumps(t.to_dict())), n_features=4)
        for a in ("feature", "threshold", "value", "child", "roots"):
            assert getattr(back, a).tobytes() == getattr(t, a).tobytes()
        assert back.depth == t.depth

    @pytest.mark.parametrize("field, index, value", [
        ("feature", 1, 3),             # feature >= n_features
        ("feature", 4, -2),            # feature < -1
        ("feature", 0, 1.5),           # not an index: stored as floats
        ("feature", 1, False),         # equals 0, but is not an integer: stored as booleans
        ("threshold", 0, "0.25"),      # a string, not a number: stored as strings
        ("threshold", 0, math.nan),
        ("threshold", 1, math.inf),
        ("value", 0, math.nan),
        ("value", 2, -math.inf),
    ])
    def test_malformed_tree_rejected(self, field, index, value):
        d = copy.deepcopy(VALID_TREE)
        Trees.from_dict(d, n_features=3)
        items = from_blob(d, field, d[field]["dtype"]).tolist()
        items[index] = value
        # an integer keeps the stored dtype; anything else takes its own
        dtype = d[field]["dtype"] if type(value) is int else np.asarray(value).dtype.str
        d[field] = to_blob(np.array(items, dtype=dtype), dtype)
        with pytest.raises(ValueError):
            Trees.from_dict(d, n_features=3)

    @pytest.mark.parametrize("feature", [
        [-1, 0, -1, -1],               # leaf first, with trailing nodes
        [-1, 0, -1],                   # the same with the counts of one tree
        [2, -1],                       # truncated: the root's right child is missing
        [2, 0, -1, -1, -1, -1],        # one leaf too many
    ], ids=["trailing nodes", "closed early", "truncated", "extra leaf"])
    def test_unparsable_sequence_rejected(self, feature):
        """None of these is one tree: a model of one tree rejects them all.
        Trailing nodes and an extra leaf parse as a second tree, which the
        tree count rejects."""
        inner = sum(f >= 0 for f in feature)
        d = {"oob_r2": None, "feature": to_blob(feature, "<i2"),
             "threshold": to_blob([0.5] * inner, "<f8"),
             "value": to_blob([1.0] * (len(feature) - inner), "<f8")}
        with pytest.raises(ValueError):
            RandomForestModel.from_dict(d, ForestParams(n_trees=1), ("a", "b", "c"))

    def test_unequal_or_empty_arrays_rejected(self, edit_blob):
        for key in ("threshold", "value"):
            for grow in (lambda a: np.append(a, 0.0), lambda a: a[:-1]):
                d = copy.deepcopy(VALID_TREE)
                edit_blob(d, key, grow)
                with pytest.raises(ValueError):
                    Trees.from_dict(d, n_features=3)
        d = copy.deepcopy(VALID_TREE)
        for key in d:
            edit_blob(d, key, lambda a: a[:0])
        with pytest.raises(ValueError):
            Trees.from_dict(d, n_features=3)
