"""From-scratch random-forest regressor.

Bootstrap bagging, per-node feature subsampling, variance-reduction
splits with midpoint thresholds, out-of-bag R2 and permutation
importance.  Every random stream is derived from (seed, index) so a
refit with the same data and parameters is bit-identical, and trees
can be trained in any order.

A forest is one `Trees` table: every tree's nodes in preorder, stacked
tree after tree, as three parallel arrays `feature`, `threshold` and
`value`; a leaf has `feature == -1`.  One child table `child` holds two
rows per node: node i goes right to `child[2i]` and left to
`child[2i + 1]`, and a leaf points to itself.  It, each tree's root row
and the largest depth are derived from `feature` alone: in preorder an
inner node's left child is the next node, its right child follows its
left subtree, and a leaf that leaves no inner node waiting for a right
child ends its tree.  Fit emits this table; prediction, out-of-bag R2,
permutation importance and persistence read it, and a pool file stores
only `feature`, the inner nodes' thresholds and the leaves' values.

A forest is grown with all its trees in lockstep.  Each step takes every
tree to its next node in preorder that is to be split, and scores all
(node, candidate feature) columns of all trees in one padded pass: one
stable sort, one cumulative sum and the same (sse, feature, threshold)
tie-break as a search over one feature at a time.  Each tree draws its
bootstrap and its candidate features from its own stream in its own
preorder, exactly as if it were grown alone by recursion, so a tree does
not depend on the other trees, on their number or on the order of the
steps, and the trees, thresholds and out-of-bag R2 are those of growing
each tree on its own.

Every walk moves its nodes by `Trees.step`, the one place that chooses
a side.  Prediction and out-of-bag R2 read `Trees.sums`, which walks all
trees at once, as many steps as the deepest tree is deep, rows in blocks
of at most TREE_ROW_BUDGET (tree, row) pairs to bound its memory, and
adds the tree outputs in tree order, as one tree at a time would.

Permutation importance does not predict each permuted copy of X.  A
permuted column j can change a row's leaf only in the trees whose path
for that row splits on j, so X is walked once, and each copy re-walks
just those (tree, row) pairs from the first node on j, in blocks of at
most TREE_ROW_BUDGET // 2 pairs.  The copies' leaf values are added in
tree order, so the importances are those that predicting every copy
would give, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .geometry import brief, from_blob, stream, to_blob

#: Most (tree, row) pairs one block of a `Trees` walk holds.
TREE_ROW_BUDGET = 1 << 14

#: How a pool file stores a split feature index, -1 for a leaf.
FEATURE_DTYPE = "<i2"


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    features_per_split: int | None = None  # None -> ceil(p / 3)
    seed: int = 0

    def __post_init__(self):
        for name, v in self.to_dict().items():
            if v is None and name == "features_per_split":
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise TypeError(f"forest parameter {name} must be an integer: {brief(v)}")
            object.__setattr__(self, name, int(v))  # as a pool file holds it
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("n_trees, max_depth and min_leaf must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")

    def to_dict(self) -> dict:
        """The fields in declaration order, which is their order in a pool
        file; not `asdict`, whose deep copy recurses into a nested value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "ForestParams":
        return ForestParams(n_trees=d["n_trees"], max_depth=d["max_depth"],
                            min_leaf=d["min_leaf"],
                            features_per_split=d["features_per_split"], seed=d["seed"])

    def resolved_features_per_split(self, p: int) -> int:
        k = self.features_per_split if self.features_per_split is not None else math.ceil(p / 3)
        return min(k, p)


@dataclass(frozen=True, eq=False)
class Trees:
    """Every tree of a forest in one table of preorder nodes.

    Tree t's nodes are rows `roots[t]` up to the next tree's root.
    `child` holds table rows, a node's right then left child, and a leaf
    points to itself; `step` walks it.  `depth` is the largest tree depth,
    so that many steps take every row to its leaf.  `len` gives the number
    of trees.  `sums` adds tree outputs for prediction and out-of-bag R2;
    `permutation_importance` adds them in the same tree order.
    """

    feature: np.ndarray     # split feature per node; -1 marks a leaf
    threshold: np.ndarray   # go left when x[feature] <= threshold; 0 at leaves
    value: np.ndarray       # mean target of a leaf's training rows; 0 at inner nodes
    child: np.ndarray       # node i's right child at 2i, its left at 2i + 1
    roots: np.ndarray
    depth: int              # edges on the longest root-leaf path of any tree

    @staticmethod
    def parse(feature, threshold, value) -> "Trees":
        """The table of the trees that the stacked preorder sequence
        `feature` holds; ValueError unless it ends on a whole tree."""
        # the child slots still to fill, the next on top: an inner node opens
        # its right then its left one, and a node that finds none open is
        # the root of the next tree
        n = len(feature)
        child, depth = [slot // 2 for slot in range(2 * n)], [0] * n
        roots, slots = [], []
        for i, f in enumerate(feature.tolist()):
            if slots:
                slot = slots.pop()
                child[slot] = i
                depth[i] = depth[slot // 2] + 1
            else:
                roots.append(i)
            if f >= 0:
                slots += [2 * i, 2 * i + 1]
        if not roots or slots:
            raise ValueError("tree feature sequence does not end on a whole preorder tree")
        return Trees(feature, threshold, value, np.array(child), np.array(roots), max(depth))

    def __len__(self) -> int:
        return len(self.roots)

    def __add__(self, other: "Trees") -> "Trees":
        """These trees followed by `other`'s, in one table."""
        shift = len(self.feature)
        return Trees(np.concatenate([self.feature, other.feature]),
                     np.concatenate([self.threshold, other.threshold]),
                     np.concatenate([self.value, other.value]),
                     np.concatenate([self.child, other.child + shift]),
                     np.concatenate([self.roots, other.roots + shift]),
                     max(self.depth, other.depth))

    def step(self, node, x) -> np.ndarray:
        """Each node's child on the side its row's value x of the node's
        feature takes: left where x <= the threshold.  A leaf stays."""
        return self.child.take(node + node + (x <= self.threshold.take(node)))

    def sums(self, X, keep=None) -> np.ndarray:
        """Each row of X's leaf values added up in tree order, undivided.
        With `keep`, a (trees, rows) mask, only the kept (tree, row) values
        are added.  Rows go through in blocks of at most
        TREE_ROW_BUDGET // trees rows."""
        out = np.zeros(len(X))
        step = max(1, TREE_ROW_BUDGET // len(self.roots))
        for lo in range(0, len(X), step):
            block = X[lo:lo + step]
            flat = block.ravel()  # row i's value of feature f is flat[i * p + f]
            at_row = np.arange(len(block)) * block.shape[1]
            node = np.repeat(self.roots[:, None], len(block), axis=1)
            for _ in range(self.depth):
                node = self.step(node, flat.take(at_row + self.feature.take(node)))
            leaves = self.value[node]
            if keep is not None:
                leaves = np.where(keep[:, lo:lo + step], leaves, 0.0)
            # cumsum adds tree by tree in tree order, from the first tree's value;
            # + 0.0 turns a -0.0 total into the 0.0 that adding from 0.0 gives
            out[lo:lo + step] = np.cumsum(leaves, axis=0)[-1] + 0.0
        return out

    def to_dict(self) -> dict:
        """`feature` as int16, the inner nodes' thresholds and the leaves'
        values as float64, each a `geometry.to_blob` object."""
        inner = self.feature >= 0
        return {"feature": to_blob(self.feature, FEATURE_DTYPE),
                "threshold": to_blob(self.threshold[inner], "<f8"),
                "value": to_blob(self.value[~inner], "<f8")}

    @staticmethod
    def from_dict(d: dict, n_features: int) -> "Trees":
        """Rebuild the table from its stored preorder `feature` sequence,
        the inner nodes' thresholds and the leaves' values, rejecting any
        that do not form whole binary trees over `n_features` features."""
        feature = from_blob(d, "feature", FEATURE_DTYPE).astype(int)  # as `_grow` makes it
        if feature.ndim != 1 or len(feature) == 0:
            raise ValueError("tree feature must be a nonempty 1-D array")
        if feature.min() < -1 or feature.max() >= n_features:
            raise ValueError(f"tree feature index outside [-1, {n_features})")
        inner = feature >= 0
        threshold, value = (from_blob(d, k, "<f8") for k in ("threshold", "value"))
        if threshold.shape != (inner.sum(),) or value.shape != ((~inner).sum(),):
            raise ValueError("tree needs one threshold per inner node and one value per leaf")
        full_threshold, full_value = np.zeros(len(feature)), np.zeros(len(feature))
        full_threshold[inner] = threshold
        full_value[~inner] = value
        return Trees.parse(feature, full_threshold, full_value)


def _best_splits(X_pad, y_pad, nodes, min_leaf):
    """Best (feature, threshold) by variance reduction of each node, or None.

    `nodes` holds (rows, sorted candidate features, sum of y, sum of y²)
    per node, every node with the same number of candidates.  All
    (node, candidate) columns are scored in one pass: each column holds
    its node's values of its feature, padded by the last row of `X_pad`,
    which sorts after every value, and of `y_pad`, which adds 0.  Ties are
    broken by lowest feature index then lowest threshold, so the result
    does not depend on candidate order.
    """
    sizes = [len(rows) for rows, _, _, _ in nodes]
    k = len(nodes[0][1])
    width = max(sizes)
    node_rows = np.full((width, len(nodes)), len(y_pad) - 1)
    for a, (rows, _, _, _) in enumerate(nodes):
        node_rows[:len(rows), a] = rows
    col_node = np.repeat(np.arange(len(nodes)), k)
    col_feature = np.concatenate([cands for _, cands, _, _ in nodes])
    col_rows = node_rows[:, col_node]
    x = X_pad[col_rows, col_feature]
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    ys = y_pad[np.take_along_axis(col_rows, order, axis=0)]
    csum = np.cumsum(ys, axis=0)[:-1]
    csq = np.cumsum(ys * ys, axis=0)[:-1]
    total_sum = np.array([s for _, _, s, _ in nodes])[col_node]
    total_sq = np.array([q for _, _, _, q in nodes])[col_node]
    n = np.array(sizes)[col_node]
    nl = np.arange(1, width)[:, None]
    nr = np.maximum(n - nl, 1)  # padding positions are never valid; keep them finite
    # split after sorted position nl - 1 (left gets nl rows); only where the
    # value actually changes and both sides keep min_leaf rows
    valid = (xs[1:] > xs[:-1]) & (nl >= min_leaf) & (nl <= n - min_leaf)
    sse = np.where(
        valid,
        (csq - csum * csum / nl) + ((total_sq - csq) - (total_sum - csum) ** 2 / nr),
        np.inf)
    at = np.argmin(sse, axis=0)  # first minimum -> lowest threshold
    cols = np.arange(len(col_node))
    # a column with no valid split scores inf; a node's candidates are
    # sorted, so its first minimum is its lowest feature
    win = np.argmin(sse[at, cols].reshape(len(nodes), k), axis=1) + np.arange(0, len(cols), k)
    at = at[win]
    best_sse = sse[at, win].tolist()
    best_thr = (0.5 * (xs[at, win] + xs[at + 1, win])).tolist()
    best_feature = col_feature[win].tolist()
    out = []
    for (rows, _, s, q), b_sse, f, thr in zip(nodes, best_sse, best_feature, best_thr):
        base_sse = q - s * s / len(rows)
        out.append(None if base_sse - b_sse <= 0.0 else (f, thr))
    return out


def _grow(X, y, params: ForestParams):
    """Grow every tree of the forest in lockstep; returns (`Trees`, bootstraps).

    Each step takes every tree to its next node in preorder that is to be
    split, and scores the candidates of all those nodes at once."""
    n, p = X.shape
    k = params.resolved_features_per_split(p)
    rngs = [stream(params.seed, t) for t in range(params.n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]  # each stream's first draw
    nodes = [[] for _ in boots]              # per tree: [feature, threshold, value] rows
    stacks = [[(boot, 0)] for boot in boots]  # per tree: (rows, depth) still to grow
    X_pad = np.vstack([X, np.full(p, np.inf)])
    y_pad = np.append(y, 0.0)
    while True:
        splitting = []  # (tree, node, depth) of each node to split this step
        scored = []     # and its (rows, candidates, sum, square sum)
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth = stack.pop()
                y_sub = y[rows]
                total = y_sub.sum()
                # the mean, as y_sub.mean() computes it
                nodes[t].append([-1, 0.0, float(total / len(rows))])
                if depth < params.max_depth and len(rows) >= 2 * params.min_leaf:
                    candidates = np.sort(rngs[t].choice(p, size=k, replace=False))
                    splitting.append((t, len(nodes[t]) - 1, depth))
                    scored.append((rows, candidates, total, (y_sub * y_sub).sum()))
                    break
        if not scored:
            break
        for (t, i, depth), (rows, *_), split in zip(
                splitting, scored, _best_splits(X_pad, y_pad, scored, params.min_leaf)):
            if split is None:
                continue
            f, thr = split
            mask = X[rows, f] <= thr
            left, right = rows[mask], rows[~mask]
            if len(left) < params.min_leaf or len(right) < params.min_leaf:
                continue
            nodes[t][i] = [f, thr, 0.0]
            stacks[t] += [(right, depth + 1), (left, depth + 1)]
    stacked = (node for tree in nodes for node in tree)
    return Trees.parse(*map(np.array, zip(*stacked))), boots


@dataclass
class RandomForestModel:
    trees: Trees
    params: ForestParams
    feature_names: tuple
    oob_r2: float | None             # None when undefined (constant target)

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        return self.trees.sums(X) / len(self.trees)

    def predict_one(self, x) -> float:
        return float(self.predict(np.asarray(x, dtype=float)[None, :])[0])

    def features_used(self) -> set:
        return set(self.trees.feature[self.trees.feature >= 0].tolist())

    def to_dict(self) -> dict:
        """The out-of-bag R2 and the stored trees; the parameters and
        feature names are the caller's to store."""
        return {"oob_r2": self.oob_r2, **self.trees.to_dict()}

    @staticmethod
    def from_dict(d: dict, params: ForestParams, feature_names) -> "RandomForestModel":
        """Rebuild a model fit with `params` over `feature_names`,
        rejecting one that does not hold `params.n_trees` trees."""
        trees = Trees.from_dict(d, len(feature_names))
        if len(trees) != params.n_trees:
            raise ValueError(f"forest holds {len(trees)} trees, not n_trees = {params.n_trees}")
        oob_r2 = d["oob_r2"]
        if oob_r2 is not None and not (isinstance(oob_r2, float) and math.isfinite(oob_r2)):
            raise ValueError(f"oob_r2 must be a finite float or null: {brief(oob_r2)}")
        return RandomForestModel(trees=trees, params=params,
                                 feature_names=tuple(feature_names), oob_r2=oob_r2)


def compute_oob_r2(trees: Trees, bootstraps, X, y) -> float | None:
    """R2 of each row's mean prediction over the trees whose bootstrap
    left it out; None when no row is left out or the target is constant."""
    n = len(y)
    oob = np.ones((len(trees), n), dtype=bool)
    oob[np.repeat(np.arange(len(trees)), n), np.concatenate(bootstraps)] = False
    pred_sum = trees.sums(X, keep=oob)
    pred_cnt = oob.sum(axis=0)
    covered = pred_cnt > 0
    if not covered.any():
        return None
    resid = y[covered] - pred_sum[covered] / pred_cnt[covered]
    ss_tot = float(((y[covered] - y[covered].mean()) ** 2).sum())
    if ss_tot == 0.0:
        return None  # constant target: R2 undefined
    return float(1.0 - (resid ** 2).sum() / ss_tot)


def check_rows(X, y, params: ForestParams | None, n_features: int | None = None):
    """(X, y) as float arrays if a forest can read them: X 2-D with
    `n_features` columns (any number if None), one target per row and
    every value finite and small enough for a fit's sums.  With `params`,
    at least 2 * `params.min_leaf` rows, the fewest a root can be split
    with, as fitting needs; without, at least one row.  ValueError otherwise."""
    min_rows = 1 if params is None else 2 * params.min_leaf
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, not shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"X has {X.shape[1]} columns for {n_features} feature names")
    if y.shape != (len(X),):
        raise ValueError(f"need one target per row: {len(X)} rows, targets of shape {y.shape}")
    if len(X) < min_rows:
        raise ValueError("dataset must be nonempty" if params is None
                         else f"need at least {min_rows} rows, got {len(X)}")
    # a split midpoint adds two x, and a fit adds up y and y * y over the
    # rows; NaN fails every comparison, and none of them overflows
    big = np.finfo(float).max
    if not (np.all(np.abs(X) <= big / 2) and np.all(np.abs(y) <= math.sqrt(big) / 4 / len(y))):
        raise ValueError("rows and targets must be finite, with |x| <= max float / 2 and "
                         "|y| <= sqrt(max float) / (4 * rows)")
    return X, y


def fit(X, y, params: ForestParams, feature_names=None) -> RandomForestModel:
    X, y = check_rows(X, y, params, None if feature_names is None else len(feature_names))
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    trees, bootstraps = _grow(X, y, params)
    oob = compute_oob_r2(trees, bootstraps, X, y)
    return RandomForestModel(trees=trees, params=params,
                             feature_names=tuple(feature_names), oob_r2=oob)


#: Permutations of each feature column that `permutation_importance` averages.
IMPORTANCE_REPEATS = 5


@lru_cache(maxsize=1024)
def _permutation(seed: int, j: int, r: int, n: int) -> np.ndarray:
    """The permutation of n rows for repeat r of feature j, read-only
    because every caller with the same key shares it."""
    order = stream(seed, j, r).permutation(n)
    order.flags.writeable = False
    return order


def permutation_importance(model: RandomForestModel, X, y, seed: int = 0) -> np.ndarray:
    """Mean MSE increase per feature over IMPORTANCE_REPEATS column
    permutations, clipped at 0; ValueError unless `check_rows` accepts
    (X, y) for the model's features.

    Permuting column j can change a tree's leaf for a row only if the
    row's path in that tree splits on j (Breiman 2001, Random Forests,
    section 10; Louppe 2014, Understanding Random Forests, ch. 6).  So X
    is walked once, noting where each path first splits on each feature,
    and each (feature, repeat) copy of X re-walks only the (tree, row)
    pairs whose path splits on its feature, from that node on; every
    other pair keeps its leaf.  All copies go through together, trees in
    order and at most TREE_ROW_BUDGET // 2 pairs a block, and each copy's
    leaf values are added in tree order from zero, as `predict` adds
    them, so every importance is bit for bit that of predicting each
    permuted copy of X."""
    t = model.trees
    X, y = check_rows(X, y, None, n_features=len(model.feature_names))
    n, p = X.shape
    n_trees, depth, repeats = len(t), t.depth, IMPORTANCE_REPEATS
    flat = X.ravel()  # row i's value of feature f is flat[i * p + f]
    # first[tree, row, j]: the node where that path first splits on feature j, or -1
    first = np.full((n_trees, n, p), -1, dtype=np.int32)
    by_pair = first.reshape(-1, p)  # pair tree * n + row, a view
    pairs = np.arange(n_trees * n)
    at_row = pairs % n * p
    node = np.repeat(t.roots, n)
    for _ in range(depth):
        f = t.feature[node]
        new = np.flatnonzero((f >= 0) & (by_pair[pairs, f] < 0))
        by_pair[new, f[new]] = node[new]
        node = t.step(node, flat[at_row + f])
    base = t.value[node].reshape(n_trees, n)

    used = sorted(model.features_used())  # an unused feature cannot change predictions
    slot = np.zeros(p, dtype=np.intp)  # each used feature's place in `used`
    slot[used] = np.arange(len(used))
    order = np.array([[_permutation(seed, j, r, n)
                       for r in range(repeats)] for j in used], dtype=np.intp)
    # copy (u, r) permutes column used[u] by order[u, r], and re-walks
    # every (tree, row) pair noted for used[u]; a group of trees at a time
    base_sum, totals = np.zeros(n), np.zeros((len(used) * repeats, n))
    block = max(1, TREE_ROW_BUDGET // 2)
    group = max(1, block // (repeats * n * p))  # trees whose pairs surely fit one block
    for k in range(0, n_trees, group):
        firsts = first[k:k + group]
        g, rows, feats = np.nonzero(firsts >= 0)
        leaves = np.tile(base[k:k + group], (len(totals), 1, 1))  # (copies, trees, rows)
        for lo in range(0, repeats * len(rows), block):
            r, e = np.divmod(np.arange(lo, min(lo + block, repeats * len(rows))), len(rows))
            i, j = rows[e], feats[e]
            node = firsts[g[e], i, j]
            # the copy holds, at row i, row order[slot[j], r, i]'s value of j
            at_i, at_src = i * p, order[slot[j], r, i] * p
            for _ in range(depth):
                f = t.feature.take(node)
                x = flat.take(np.where(f == j, at_src, at_i) + f)
                node = t.step(node, x)
            leaves[slot[j] * repeats + r, g[e], i] = t.value.take(node)
        for b, v in zip(base[k:k + group], leaves.transpose(1, 0, 2)):
            base_sum += b
            totals += v
    base_mse = float(((base_sum / n_trees - y) ** 2).mean())
    preds = (totals / n_trees).reshape(len(used), repeats, n)
    deltas = ((preds - y) ** 2).mean(axis=-1) - base_mse
    importances = np.zeros(p)
    for j, delta in zip(used, deltas.mean(axis=-1).tolist()):
        importances[j] = max(0.0, delta)
    return importances
