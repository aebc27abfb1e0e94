"""From-scratch random-forest regressor.

Bootstrap bagging, per-node feature subsampling, variance-reduction
splits with midpoint thresholds, out-of-bag R2 and permutation
importance.  Every random stream is derived from (seed, index) so a
refit with the same data and parameters is bit-identical, and trees
can be trained in any order.

Each tree is one `Tree`: three parallel node arrays in preorder,
`feature`, `threshold` and `value`.  Node 0 is the root and a leaf has
`feature == -1`.  The child arrays `left` and `right` (the layout of
scikit-learn's `children_left`/`children_right`; a leaf points to
itself) are derived from `feature` alone, because in preorder an inner
node's left child is the next node and its right child follows its left
subtree.  Fit, out-of-bag R2, prediction, permutation importance and
persistence all read these arrays; a pool file stores only `feature`,
the inner nodes' thresholds and the leaves' values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    features_per_split: int | None = None  # None -> ceil(p / 3)
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("n_trees, max_depth and min_leaf must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")

    def to_dict(self) -> dict:
        """The fields in declaration order, which is their order in a pool file."""
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ForestParams":
        return ForestParams(n_trees=int(d["n_trees"]), max_depth=int(d["max_depth"]),
                            min_leaf=int(d["min_leaf"]),
                            features_per_split=d["features_per_split"], seed=int(d["seed"]))

    def resolved_features_per_split(self, p: int) -> int:
        k = self.features_per_split if self.features_per_split is not None else math.ceil(p / 3)
        return min(k, p)


@dataclass(frozen=True, eq=False)
class Tree:
    feature: np.ndarray     # split feature per node; -1 marks a leaf
    threshold: np.ndarray   # go left when x[feature] <= threshold; 0 at leaves
    value: np.ndarray       # mean target of a leaf's training rows; 0 at inner nodes
    left: np.ndarray = field(init=False, repr=False)   # derived child indices;
    right: np.ndarray = field(init=False, repr=False)  # a leaf points to itself

    def __post_init__(self):
        # node i > 0 is the left child of node i - 1 if that is inner, else
        # the right child of the latest inner node still waiting for one
        n = len(self.feature)
        left, right = list(range(n)), list(range(n))
        waiting = []
        for i, f in enumerate(self.feature[:-1].tolist(), start=1):
            if f >= 0:
                left[i - 1] = i
                waiting.append(i - 1)
            else:
                right[waiting.pop()] = i
        object.__setattr__(self, "left", np.array(left))
        object.__setattr__(self, "right", np.array(right))

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each row of X."""
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=int)
        while True:
            nxt = np.where(X[rows, self.feature[node]] <= self.threshold[node],
                           self.left[node], self.right[node])
            if np.array_equal(nxt, node):
                return node
            node = nxt

    def predict(self, X) -> np.ndarray:
        return self.value[self.apply(X)]

    def to_dict(self) -> dict:
        inner = self.feature >= 0
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold[inner].tolist(),
                "value": self.value[~inner].tolist()}

    @staticmethod
    def from_dict(d: dict, n_features: int) -> "Tree":
        """Rebuild a tree from its stored preorder `feature` sequence, the
        inner nodes' thresholds and the leaves' values, rejecting any that
        do not form one binary tree over `n_features` features."""
        feature = np.array(d["feature"])
        if feature.ndim != 1 or len(feature) == 0 or feature.dtype.kind != "i":
            raise ValueError("tree feature must be a nonempty list of integers")
        if feature.min() < -1 or feature.max() >= n_features:
            raise ValueError(f"tree feature index outside [-1, {n_features})")
        inner = feature >= 0
        # open child slots after each node: the root fills the one slot, an
        # inner node opens two and a leaf none; the tree ends when none is open
        slots = 1 + np.cumsum(np.where(inner, 1, -1))
        if np.any(slots[:-1] <= 0) or slots[-1] != 0:
            raise ValueError("tree feature sequence is not one preorder binary tree")
        threshold, value = (np.array(d[k], dtype=float) for k in ("threshold", "value"))
        if threshold.shape != (inner.sum(),) or value.shape != ((~inner).sum(),):
            raise ValueError("tree needs one threshold per inner node and one value per leaf")
        if not (np.all(np.isfinite(threshold)) and np.all(np.isfinite(value))):
            raise ValueError("tree thresholds and values must be finite")
        full_threshold, full_value = np.zeros(len(feature)), np.zeros(len(feature))
        full_threshold[inner] = threshold
        full_value[~inner] = value
        return Tree(feature, full_threshold, full_value)


def _best_split(X, y, rows, candidates, min_leaf):
    """Best (feature, threshold, score) by variance reduction, or None.

    Ties are broken by lowest feature index then lowest threshold so the
    fit is deterministic regardless of candidate order.
    """
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
        # split after index k (left gets k+1 rows); only where the value
        # actually changes and both sides keep min_leaf rows
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
        k = int(np.argmin(sse))  # first minimum -> lowest threshold
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


def _grow(X, y, rows, depth, params, k_features, rng, nodes):
    """Append the subtree over `rows` to `nodes` in preorder.  Each row is
    [feature, threshold, value]; a leaf keeps threshold 0 and an inner
    node value 0."""
    i = len(nodes)
    nodes.append([-1, 0.0, float(y[rows].mean())])
    if depth >= params.max_depth or len(rows) < 2 * params.min_leaf:
        return
    p = X.shape[1]
    candidates = rng.choice(p, size=k_features, replace=False)
    split = _best_split(X, y, rows, candidates, params.min_leaf)
    if split is None:
        return
    f, thr = split
    mask = X[rows, f] <= thr
    left_rows = rows[mask]
    right_rows = rows[~mask]
    if len(left_rows) < params.min_leaf or len(right_rows) < params.min_leaf:
        return
    nodes[i] = [int(f), float(thr), 0.0]
    _grow(X, y, left_rows, depth + 1, params, k_features, rng, nodes)
    _grow(X, y, right_rows, depth + 1, params, k_features, rng, nodes)


@dataclass
class RandomForestModel:
    trees: list
    params: ForestParams
    feature_names: tuple
    n_train_rows: int
    oob_r2: float | None             # None when undefined (constant target)

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        preds = np.zeros(len(X))
        for t in self.trees:
            preds += t.predict(X)
        return preds / len(self.trees)

    def predict_one(self, x) -> float:
        return float(self.predict(np.asarray(x, dtype=float)[None, :])[0])

    def features_used(self) -> set:
        return {int(f) for t in self.trees for f in t.feature[t.feature >= 0]}

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "feature_names": list(self.feature_names),
            "n_train_rows": self.n_train_rows,
            "oob_r2": self.oob_r2,
            "trees": [t.to_dict() for t in self.trees],
        }

    @staticmethod
    def from_dict(d: dict) -> "RandomForestModel":
        if not d["trees"]:
            raise ValueError("a forest needs at least one tree")
        return RandomForestModel(
            trees=[Tree.from_dict(t, len(d["feature_names"])) for t in d["trees"]],
            params=ForestParams.from_dict(d["params"]),
            feature_names=tuple(d["feature_names"]),
            n_train_rows=int(d["n_train_rows"]),
            oob_r2=d["oob_r2"])


def _fit_tree(X, y, params: ForestParams, tree_index: int):
    n, p = X.shape
    rng = np.random.default_rng(np.random.SeedSequence(
        [params.seed & 0xFFFFFFFFFFFFFFFF, tree_index]))
    boot = rng.integers(0, n, size=n)
    k = params.resolved_features_per_split(p)
    nodes = []
    _grow(X, y, boot.copy(), 0, params, k, rng, nodes)
    return Tree(*map(np.array, zip(*nodes))), boot


def compute_oob_r2(trees, bootstraps, X, y) -> float | None:
    n = len(y)
    pred_sum = np.zeros(n)
    pred_cnt = np.zeros(n, dtype=int)
    for tree, boot in zip(trees, bootstraps):
        oob = np.ones(n, dtype=bool)
        oob[boot] = False
        if not oob.any():
            continue
        idx = np.flatnonzero(oob)
        pred_sum[idx] += tree.predict(X[idx])
        pred_cnt[idx] += 1
    covered = pred_cnt > 0
    if not covered.any():
        return None
    resid = y[covered] - pred_sum[covered] / pred_cnt[covered]
    ss_tot = float(((y[covered] - y[covered].mean()) ** 2).sum())
    if ss_tot == 0.0:
        return None  # constant target: R2 undefined
    return float(1.0 - (resid ** 2).sum() / ss_tot)


def fit(X, y, params: ForestParams, feature_names=None) -> RandomForestModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D with one target per row")
    if len(y) < 2 * params.min_leaf:
        raise ValueError(f"need at least {2 * params.min_leaf} rows, got {len(y)}")
    if not np.all(np.isfinite(y)):
        raise ValueError("target column must be finite")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix must be finite")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    trees = []
    bootstraps = []
    for t in range(params.n_trees):
        tree, boot = _fit_tree(X, y, params, t)
        trees.append(tree)
        bootstraps.append(boot)
    oob = compute_oob_r2(trees, bootstraps, X, y)
    return RandomForestModel(trees=trees, params=params,
                             feature_names=tuple(feature_names),
                             n_train_rows=len(y), oob_r2=oob)


#: Permutations of each feature column that `permutation_importance` averages.
IMPORTANCE_REPEATS = 5


def permutation_importance(model: RandomForestModel, X, y, seed: int = 0) -> np.ndarray:
    """Mean MSE increase per feature over IMPORTANCE_REPEATS column
    permutations, clipped at 0."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise ValueError("dataset must be nonempty")
    base_mse = float(((model.predict(X) - y) ** 2).mean())
    n, p = X.shape
    used = sorted(model.features_used())  # an unused feature cannot change predictions
    Xp = np.tile(X, (len(used), IMPORTANCE_REPEATS, 1, 1))  # one copy of X per (feature, repeat)
    for u, j in enumerate(used):
        for r in range(IMPORTANCE_REPEATS):
            rng = np.random.default_rng(np.random.SeedSequence(
                [seed & 0xFFFFFFFFFFFFFFFF, j, r]))
            Xp[u, r, :, j] = X[rng.permutation(n), j]
    # one predict over all the permuted copies, then one MSE per copy
    preds = model.predict(Xp.reshape(-1, p)).reshape(len(used), IMPORTANCE_REPEATS, n)
    importances = np.zeros(p)
    for j, block in zip(used, preds):
        deltas = [float(((pr - y) ** 2).mean()) - base_mse for pr in block]
        importances[j] = max(0.0, float(np.mean(deltas)))
    return importances
