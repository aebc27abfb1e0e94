import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from rekpool import forest
from rekpool.features import FEATURE_NAMES, RealizationConfig
from rekpool.forest import ForestParams, fit, permutation_importance
from rekpool.geometry import canonical_street_scene
from rekpool.pipeline import (design_matrices, learn_positions, rows_by_position,
                              simulate_trajectory)
from rekpool.pool import (POOL_FORMAT_VERSION, Context, FitCache, Outcome, Pool,
                          PoolFileError, PoolVersionError, derive_knowledge, fnv1a_64,
                          load_pool, pool_from_dict, pool_to_dict, rows_sha256, save_pool,
                          similarity)
from rekpool.spectrum import GroupWeights, group_weights, spectrum

SMALL_PARAMS = ForestParams(n_trees=6, max_depth=4, min_leaf=2, seed=1)


def ctx(fp=1, pid=1, rx=(0, 0, 1.5), los=True, f=28e9):
    return Context(scene_fingerprint=fp, position_id=pid, rx=rx, los=los,
                   frequency_hz=f)


def data(seed=0, n=20):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, len(FEATURE_NAMES)))
    y = 4.0 * X[:, 0] + 0.1 * rng.normal(size=n)
    return X, y


def key_paths(doc, prefix=()):
    """Path of every object key in a JSON document, list indices included.
    Of each list only the first item is walked: entries all share one set
    of keys."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:1])
    for k, v in items:
        if isinstance(doc, dict):
            yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from key_paths(v, prefix + (k,))


def small_pool(capacity=8, forest_params=SMALL_PARAMS, **kw):
    return Pool(capacity=capacity, forest_params=forest_params, **kw)


class TestFnv1a:
    def test_reference_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8


class TestSimilarity:
    def test_identical_contexts(self):
        assert similarity(ctx(), ctx()) == pytest.approx(1.0)

    def test_los_mismatch(self):
        assert similarity(ctx(los=True), ctx(los=False)) == pytest.approx(0.8)

    def test_different_scene_10m_apart(self):
        a = ctx(fp=1, rx=(0, 0, 1.5))
        b = ctx(fp=2, rx=(10, 0, 1.5))
        expected = 0.3 * math.exp(-1.0) + 0.2 + 0.1
        assert similarity(a, b) == pytest.approx(expected, abs=1e-9)
        assert similarity(a, b) == pytest.approx(0.410, abs=5e-4)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = ctx(fp=int(rng.integers(0, 3)), rx=rng.uniform(-30, 30, 3),
                    los=bool(rng.integers(0, 2)),
                    f=float(rng.uniform(1e9, 1e11)))
            b = ctx(fp=int(rng.integers(0, 3)), rx=rng.uniform(-30, 30, 3),
                    los=bool(rng.integers(0, 2)),
                    f=float(rng.uniform(1e9, 1e11)))
            s = similarity(a, b)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(similarity(b, a), abs=1e-12)

    @pytest.mark.parametrize("fa, fb", [(1e-300, 1e300), (5e-324, 1.0), (1.0, 1.7e308),
                                        (28e9, 28e9)])
    def test_extreme_frequencies_exactly_symmetric(self, fa, fb):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = ctx(fp=int(rng.integers(0, 2)), rx=rng.uniform(-30, 30, 3), f=fa)
            b = ctx(fp=int(rng.integers(0, 2)), rx=rng.uniform(-30, 30, 3), f=fb,
                    los=bool(rng.integers(0, 2)))
            s = similarity(a, b)
            assert 0.0 <= s <= 1.0
            assert s == similarity(b, a)

    def test_frequency_term_equals_log_ratio_form(self):
        # scene, RX and LOS terms all 0: the similarity is the frequency term
        rng = np.random.default_rng(6)
        for _ in range(200):
            fa, fb = 10.0 ** rng.uniform(6, 12, 2)
            s = similarity(ctx(fp=1, f=fa), ctx(fp=2, rx=(1e6, 0, 0), los=False, f=fb))
            assert s == pytest.approx(0.1 * math.exp(-abs(math.log(fa / fb))), abs=1e-15)
        assert similarity(ctx(fp=1), ctx(fp=2, rx=(1e6, 0, 0), los=False)) == 0.1


class TestQuery:
    def test_empty_pool(self):
        assert small_pool().query(ctx()) is None

    def test_exact_hit_increments_utilization(self):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(), X, y, now=1.0)
        hit = pool.query(ctx())
        assert hit is not None
        entry, s = hit
        assert s == pytest.approx(1.0)
        assert entry.utilization_count == 1
        pool.query(ctx())
        assert entry.utilization_count == 2

    def test_below_theta_low_misses(self):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(fp=1, los=True), X, y, now=1.0)
        far = ctx(fp=2, rx=(500, 0, 1.5), los=False)
        assert pool.query(far) is None

    def test_tie_lowest_id_wins(self):
        pool = small_pool()
        X, y = data()
        # two entries equidistant from the probe context
        pool.ingest(ctx(pid=1, rx=(0, 0, 1.5)), X, y, now=1.0)
        pool.ingest(ctx(pid=2, rx=(20, 0, 1.5)), X, y, now=2.0)
        entry, _ = pool.query(ctx(pid=3, rx=(10, 0, 1.5)))
        assert entry.entry_id == 1


class TestIngest:
    def test_empty_pool_generates_new(self):
        pool = small_pool()
        X, y = data()
        outcome, eid = pool.ingest(ctx(), X, y, now=1.0)
        assert outcome is Outcome.GENERATED_NEW
        assert eid == 1
        assert not pool.entries[1].weights.degenerate

    def test_identical_context_answers_existing(self):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(), X, y, now=1.0)
        outcome, eid = pool.ingest(ctx(), *data(seed=1), now=2.0)
        assert outcome is Outcome.ANSWERED_EXISTING
        assert eid == 1
        assert len(pool.entries) == 1
        assert pool.entries[1].utilization_count == 1

    def test_force_refresh_refines(self):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(), X, y, now=1.0)
        X2, y2 = data(seed=1)
        outcome, eid = pool.ingest(ctx(), X2, y2, now=2.0, force_refresh=True)
        assert outcome is Outcome.REFINED
        assert eid == 1
        entry = pool.entries[1]
        assert entry.train_X.shape[0] == len(X) + len(X2)
        assert entry.updated_at == 2.0
        assert len(entry.train_y) == len(X) + len(X2)
        # the model is refit on the stored rows followed by the new ones
        refit = fit(np.vstack([X, X2]), np.concatenate([y, y2]), SMALL_PARAMS,
                    feature_names=FEATURE_NAMES)
        assert entry.model.to_dict() == refit.to_dict()

    def test_intermediate_similarity_transfers(self):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(rx=(0, 0, 1.5)), X, y, now=1.0)
        source = pool.entries[1].model
        # same scene, same LOS, 40 m away: 0.4 + 0.3 e^-4 + 0.2 + 0.1 = 0.705
        probe = ctx(pid=2, rx=(40, 0, 1.5))
        X2, y2 = data(seed=2)
        outcome, eid = pool.ingest(probe, X2, y2, now=2.0)
        assert outcome is Outcome.TRANSFERRED
        assert eid == 2
        entry = pool.entries[2]
        assert len(entry.model.trees) == SMALL_PARAMS.n_trees
        # knowledge is derived over the fresh trees followed by the
        # source's trees, evaluated on the new realizations
        combined = dataclasses.replace(entry.model, trees=entry.model.trees + source.trees)
        imp = permutation_importance(combined, X2, y2, seed=SMALL_PARAMS.seed)
        assert entry.weights == group_weights(imp)
        assert entry.weights.spectrum == spectrum(entry.weights)
        fresh_only = permutation_importance(entry.model, X2, y2, seed=SMALL_PARAMS.seed)
        assert entry.weights != group_weights(fresh_only)

    def test_dissimilar_generates_new(self):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(fp=1, los=True), X, y, now=1.0)
        X2, y2 = data(seed=3)
        outcome, eid = pool.ingest(ctx(fp=2, rx=(500, 0, 1.5), los=False),
                                   X2, y2, now=2.0)
        assert outcome is Outcome.GENERATED_NEW
        assert eid == 2
        entry = pool.entries[2]
        imp = permutation_importance(entry.model, X2, y2, seed=SMALL_PARAMS.seed)
        assert entry.weights == group_weights(imp)

    def test_transfer_prediction_uses_only_fresh_trees(self):
        pool = small_pool()
        pool.ingest(ctx(rx=(0, 0, 1.5)), *data(seed=0), now=1.0)
        X2, y2 = data(seed=2)
        pool.ingest(ctx(pid=2, rx=(40, 0, 1.5)), X2, y2, now=2.0)
        cold = fit(X2, y2, SMALL_PARAMS, feature_names=FEATURE_NAMES)
        probe = np.random.default_rng(8).uniform(-1, 1, size=(10, len(FEATURE_NAMES)))
        assert np.array_equal(pool.entries[2].model.predict(probe),
                              cold.predict(probe))

    def test_transfer_oob_not_worse_than_cold(self):
        # equal budget: the transferred entry's predictive forest is fit
        # with the same parameters as a cold start on the same data
        pool = small_pool()
        pool.ingest(ctx(rx=(0, 0, 1.5)), *data(seed=0, n=60), now=1.0)
        X2, y2 = data(seed=2, n=60)
        pool.ingest(ctx(pid=2, rx=(40, 0, 1.5)), X2, y2, now=2.0)
        cold = fit(X2, y2, SMALL_PARAMS, feature_names=FEATURE_NAMES)
        assert pool.entries[2].model.oob_r2 >= cold.oob_r2 - 0.02

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            small_pool().ingest(ctx(), np.zeros((0, 16)), np.zeros(0))


class TestKnowledgeMemo:
    """Every pool memoizes its fits and importance runs by content, and a
    position's knowledge is derived the same way wherever it is made."""

    @pytest.fixture
    def fits(self, monkeypatch):
        fitted = []

        def counted(X, y, params, feature_names=None):
            fitted.append((X.tobytes(), y.tobytes()))
            return fit(X, y, params, feature_names=feature_names)
        monkeypatch.setattr(forest, "fit", counted)
        return fitted

    def test_pool_fits_repeated_rows_once(self, fits):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(fp=1), X, y, now=1.0)
        # another scene, far away: generated new, on the same rows
        outcome, eid = pool.ingest(ctx(fp=2, rx=(500, 0, 1.5), los=False), X, y, now=2.0)
        assert outcome is Outcome.GENERATED_NEW
        pool.entries[eid].model  # knowledge is derived on first read
        assert len(fits) == 1
        assert pool.entries[eid].model is pool.entries[1].model
        assert pool.entries[eid].weights == pool.entries[1].weights

    def test_replace_shares_the_memo_and_load_seeds_it(self, fits, tmp_path):
        pool = small_pool()
        X, y = data()
        pool.ingest(ctx(), X, y, now=1.0)
        pool.entries[1].model  # knowledge is derived on first read
        copy = dataclasses.replace(pool, entries={}, next_entry_id=1)
        assert copy.cache is pool.cache
        copy.ingest(ctx(), X, y, now=1.0)
        copy.entries[1].model
        assert len(fits) == 1
        save_pool(tmp_path / "pool.json", pool)
        loaded = load_pool(tmp_path / "pool.json")
        assert loaded.cache is not pool.cache
        _, eid = loaded.ingest(ctx(fp=2, rx=(500, 0, 1.5), los=False), X, y, now=2.0)
        loaded.entries[eid].model  # rows the file stores: its forest is in the memo
        assert len(fits) == 1

    def test_transfer_from_a_loaded_source_fits_only_its_own_rows(self, fits, tmp_path):
        """The file's forest is the fit of the rows it stores, so the source
        of a transfer is not fit again, and the weights are an unsaved pool's."""
        X, y = data(seed=0)
        X2, y2 = data(seed=2)
        unsaved = small_pool()
        unsaved.ingest(ctx(rx=(0, 0, 1.5)), X, y, now=1.0)
        save_pool(tmp_path / "pool.json", unsaved)
        loaded = load_pool(tmp_path / "pool.json")
        fits.clear()
        for pool in (loaded, unsaved):
            outcome, eid = pool.ingest(ctx(pid=2, rx=(40, 0, 1.5)), X2, y2, now=2.0)
            assert outcome is Outcome.TRANSFERRED
        weights = loaded.entries[eid].weights
        assert fits == [(X2.tobytes(), y2.tobytes())]
        assert weights == unsaved.entries[eid].weights

    def test_learn_positions_matches_a_new_entry(self):
        scene, traj = canonical_street_scene()
        rows = simulate_trajectory(scene, traj, RealizationConfig(n_realizations=10, seed=3))
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=2, seed=3)
        knowledge = learn_positions(scene, traj, rows, params)
        by_pos = rows_by_position(rows)
        assert [k.position_id for k in knowledge] == sorted(by_pos)
        for k in knowledge:
            pool = Pool(forest_params=params)
            outcome, eid = pool.ingest(ctx(pid=k.position_id),
                                       *design_matrices(by_pos[k.position_id]))
            assert outcome is Outcome.GENERATED_NEW
            assert k.weights == pool.entries[eid].weights
            assert k.spectrum == pool.entries[eid].weights.spectrum


class TestIngestRows:
    """Every ingest checks its rows before it is routed, so a bad batch
    raises at the call on every outcome path and leaves the pool as it was."""

    # (probe context, force_refresh) reaching each outcome against entry 1
    PATHS = {Outcome.ANSWERED_EXISTING: (ctx(rx=(0, 0, 1.5)), False),
             Outcome.REFINED: (ctx(rx=(0, 0, 1.5)), True),
             Outcome.TRANSFERRED: (ctx(pid=2, rx=(40, 0, 1.5)), False),
             Outcome.GENERATED_NEW: (ctx(fp=2, rx=(500, 0, 1.5), los=False), False)}

    @staticmethod
    def bad(case):
        X, y = data(seed=5, n=12)
        if case == "nan":
            X[3, 4] = np.nan
        elif case == "inf target":
            y[0] = np.inf
        elif case == "15 columns":
            X = X[:, :-1]
        elif case == "1-D":
            X = X[:, 0]
        elif case == "targets":
            y = y[:-1]
        elif case == "rows":  # SMALL_PARAMS.min_leaf is 2
            X, y = X[:3], y[:3]
        return X, y

    @pytest.mark.parametrize("outcome", list(PATHS), ids=lambda o: o.value)
    @pytest.mark.parametrize("case", ["nan", "inf target", "15 columns", "1-D", "targets",
                                      "rows"])
    def test_bad_rows_raise_on_every_path(self, outcome, case):
        pool = small_pool()
        pool.ingest(ctx(rx=(0, 0, 1.5)), *data(), now=1.0)
        before = json.dumps(pool_to_dict(pool))
        probe, refresh = self.PATHS[outcome]
        with pytest.raises(ValueError):
            pool.ingest(probe, *self.bad(case), now=2.0, force_refresh=refresh)
        assert json.dumps(pool_to_dict(pool)) == before
        # the same call with good rows takes the path under test
        assert pool.ingest(probe, *data(seed=5, n=12), now=2.0,
                           force_refresh=refresh)[0] is outcome

    def test_fit_ingest_and_load_share_the_check(self):
        X, y = self.bad("rows")
        pool = small_pool()
        pool.ingest(ctx(), *data(), now=1.0)
        doc = pool_to_dict(pool)
        doc["entries"][0]["train_X"], doc["entries"][0]["train_y"] = X.tolist(), y.tolist()
        for call in (lambda: fit(X, y, SMALL_PARAMS, feature_names=FEATURE_NAMES),
                     lambda: small_pool().ingest(ctx(), X, y),
                     lambda: pool_from_dict(doc)):
            with pytest.raises(ValueError, match="need at least 4 rows, got 3"):
                call()


def force(pool):
    """Derive every entry's knowledge now."""
    for e in pool.entries.values():
        e.model, e.weights


class TestLazyKnowledge:
    """An entry fits and derives its knowledge only when something reads it,
    and derives what an eager pool would have."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"fit": [], "importance": 0}
        real_fit, real_importance = forest.fit, forest.permutation_importance

        def fit_(X, y, params, feature_names=None):
            calls["fit"].append(X.tobytes())
            return real_fit(X, y, params, feature_names=feature_names)

        def importance(*args, **kwargs):
            calls["importance"] += 1
            return real_importance(*args, **kwargs)
        monkeypatch.setattr(forest, "fit", fit_)
        monkeypatch.setattr(forest, "permutation_importance", importance)
        return calls

    def test_entry_evicted_by_its_ingest_is_never_fit(self, counted):
        pool = small_pool(capacity=1)
        X, y = data(seed=0)
        pool.ingest(ctx(rx=(0, 0, 1.5)), X, y, now=1.0)
        pool.query(ctx(rx=(0, 0, 1.5)))  # a used entry outscores the new one
        outcome, eid = pool.ingest(ctx(pid=2, rx=(40, 0, 1.5)), *data(seed=2), now=2.0)
        assert outcome is Outcome.TRANSFERRED and eid == 2
        assert sorted(pool.entries) == [1]
        assert counted == {"fit": [], "importance": 0}
        pool.entries[1].weights
        assert counted == {"fit": [X.tobytes()], "importance": 1}

    def test_a_transfer_read_fits_its_source_but_derives_none_of_its_weights(self, counted):
        pool = small_pool()
        X, y = data(seed=0)
        X2, y2 = data(seed=2)
        pool.ingest(ctx(rx=(0, 0, 1.5)), X, y, now=1.0)
        pool.ingest(ctx(pid=2, rx=(40, 0, 1.5)), X2, y2, now=2.0)
        pool.entries[2].weights
        assert counted == {"fit": [X2.tobytes(), X.tobytes()], "importance": 1}
        # entry 1's own derivation runs only now, so the transfer's read did not derive it
        pool.entries[1].weights  # its forest comes from the memo
        assert counted == {"fit": [X2.tobytes(), X.tobytes()], "importance": 2}

    @pytest.mark.parametrize("source_read", [False, True])
    def test_pending_transfer_keeps_its_source_as_ingested(self, counted, source_read):
        """A refine of the source before the transfer is first read leaves the
        transfer's weights as an eager pool derives them."""
        A, B = ctx(rx=(0, 0, 1.5)), ctx(pid=2, rx=(40, 0, 1.5))
        X, y = data(seed=0)
        X2, y2 = data(seed=2)
        steps = [(A, X, y, False), (B, X2, y2, False), (A, *data(seed=3), True)]
        lazy, eager = small_pool(), small_pool()
        for t, (c, Xs, ys, refresh) in enumerate(steps, start=1):
            lazy.ingest(c, Xs, ys, now=float(t), force_refresh=refresh)
            eager.ingest(c, Xs, ys, now=float(t), force_refresh=refresh)
            force(eager)
            if source_read and t == 1:
                force(lazy)
        runs = counted["importance"]
        assert lazy.entries[2].weights == eager.entries[2].weights
        assert counted["importance"] == runs + 1  # derived by this first read, not before
        assert json.dumps(pool_to_dict(lazy)) == json.dumps(pool_to_dict(eager))
        # the basis is the source's forest as ingested, not as refined
        model = lazy.entries[2].model
        source = fit(X, y, SMALL_PARAMS, feature_names=FEATURE_NAMES)
        basis = dataclasses.replace(model, trees=model.trees + source.trees)
        assert lazy.entries[2].weights == group_weights(
            permutation_importance(basis, X2, y2, seed=SMALL_PARAMS.seed))
        refined = dataclasses.replace(model, trees=model.trees + lazy.entries[1].model.trees)
        assert lazy.entries[2].weights != group_weights(
            permutation_importance(refined, X2, y2, seed=SMALL_PARAMS.seed))


class TestEviction:
    def fill(self, pool, contexts, utilization):
        for i, (c, u) in enumerate(zip(contexts, utilization), start=1):
            pool.ingest(c, *data(seed=i), now=1.0)
            pool.entries[i].utilization_count = u

    def test_lowest_utilization_evicted(self):
        # capacity 2, three identical-context entries with equal age:
        # the utilization-1 entry scores highest and goes
        pool = small_pool(capacity=3)
        # unreachable thresholds force every ingest down the GeneratedNew
        # path so the scenario is exactly three independent entries
        pool.theta_high, pool.theta_low = 2.0, 1.5
        self.fill(pool, [ctx(pid=i) for i in (1, 2, 3)], [5, 1, 3])
        pool.capacity = 2
        removed = pool.sort_and_evict()
        assert removed == [2]
        assert sorted(pool.entries) == [1, 3]

    def test_duplicate_evicted_before_distinct(self):
        pool = small_pool(capacity=3)
        pool.theta_high, pool.theta_low = 2.0, 1.5
        contexts = [ctx(pid=1, rx=(0, 0, 1.5)), ctx(pid=1, rx=(0, 0, 1.5)),
                    ctx(pid=9, rx=(200, 0, 1.5), los=False)]
        self.fill(pool, contexts, [0, 0, 0])
        pool.capacity = 2
        removed = pool.sort_and_evict()
        # both duplicates are maximally redundant; the first one carries
        # no age discount, so it scores highest and is evicted before
        # the distinct entry
        assert removed == [1]
        assert sorted(pool.entries) == [2, 3]

    def test_capacity_invariant_on_ingest(self):
        pool = small_pool(capacity=2)
        pool.theta_high, pool.theta_low = 2.0, 1.5
        for i in range(1, 6):
            pool.ingest(ctx(pid=i, rx=(30.0 * i, 0, 1.5)), *data(seed=i),
                        now=float(i))
            assert len(pool.entries) <= 2

    def test_within_capacity_noop(self):
        pool = small_pool(capacity=5)
        self.fill(pool, [ctx(pid=1)], [0])
        assert pool.sort_and_evict() == []
        assert len(pool.entries) == 1


class TestFuzz:
    def _op_stream(self, rng, n_ops):
        ops = []
        for _ in range(n_ops):
            c = ctx(fp=int(rng.integers(0, 3)),
                    pid=int(rng.integers(1, 10)),
                    rx=(float(rng.integers(0, 8)) * 25.0, 0.0, 1.5),
                    los=bool(rng.integers(0, 2)),
                    f=float(rng.choice([3.5e9, 28e9])))
            ops.append((c, int(rng.integers(0, 1000)),
                        bool(rng.random() < 0.1)))
        return ops

    def test_fuzz_capacity_and_replay(self, tmp_path):
        rng = np.random.default_rng(77)
        ops = self._op_stream(rng, 120)

        def run(ops):
            pool = small_pool(capacity=6)
            for t, (c, seed, refresh) in enumerate(ops, start=1):
                pool.ingest(c, *data(seed=seed, n=12), now=float(t),
                            force_refresh=refresh)
                assert len(pool.entries) <= pool.capacity
            return pool

        a = run(ops)
        b = run(ops)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_pool(pa, a)
        save_pool(pb, b)
        assert pa.read_bytes() == pb.read_bytes()


class TestPersistence:
    def build(self):
        pool = small_pool(capacity=4)
        pool.ingest(ctx(pid=1, rx=(0, 0, 1.5)), *data(seed=0), now=1.0)
        pool.ingest(ctx(pid=2, rx=(40, 0, 1.5)), *data(seed=1), now=2.0)  # transfer
        pool.query(ctx(pid=1, rx=(0, 0, 1.5)))
        return pool

    def test_round_trip_bytes(self, tmp_path):
        pool = self.build()
        p1 = tmp_path / "pool.json"
        save_pool(p1, pool)
        loaded = load_pool(p1)
        p2 = tmp_path / "pool2.json"
        save_pool(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_behavior(self, tmp_path):
        pool = self.build()
        path = tmp_path / "pool.json"
        save_pool(path, pool)
        loaded = load_pool(path)
        probe = np.random.default_rng(2).uniform(-1, 1, size=(5, len(FEATURE_NAMES)))
        for eid in pool.entries:
            assert np.array_equal(pool.entries[eid].model.predict(probe),
                                  loaded.entries[eid].model.predict(probe))
            assert loaded.entries[eid].weights == pool.entries[eid].weights
            assert loaded.entries[eid].utilization_count == \
                pool.entries[eid].utilization_count

    def test_version_bump_rejected(self, tmp_path):
        pool = self.build()
        doc = pool_to_dict(pool)
        doc["version"] = POOL_FORMAT_VERSION + 1
        with pytest.raises(PoolVersionError):
            pool_from_dict(doc)

    def test_only_read_back_state_saved(self, tmp_path):
        path = tmp_path / "pool.json"
        save_pool(path, self.build())  # includes a transferred entry
        text = path.read_text()
        for key in ("warm_trees", "bootstrap_indices", "left", "right", "spectrum",
                    "degenerate", "params", "feature_names", "n_train_rows", "trees"):
            assert f'"{key}"' not in text
        # every key that is stored is read back: without it loading fails
        doc = json.loads(text)
        paths = list(key_paths(doc))
        assert len(paths) == 13 + 23  # the pool's keys and one entry's
        for path in paths:
            broken = json.loads(text)
            parent = broken
            for k in path[:-1]:
                parent = parent[k]
            del parent[path[-1]]
            with pytest.raises(PoolFileError):
                pool_from_dict(broken)

    def test_v1_and_keyless_files_rejected(self):
        for version in (1, 2, 3, 4, 5, 6):
            with pytest.raises(PoolVersionError):
                pool_from_dict({"version": version})
        with pytest.raises(PoolFileError):
            pool_from_dict({"version": POOL_FORMAT_VERSION})

    def test_malformed_tree_is_pool_file_error(self):
        doc = json.loads(json.dumps(pool_to_dict(self.build())))
        model = doc["entries"][0]["model"]
        model["feature"].pop()  # truncated: the last right child is missing
        model["value"].pop()
        with pytest.raises(PoolFileError):
            pool_from_dict(doc)

    @pytest.mark.parametrize("weights,ok", [
        ((-3.0, 2.0, 1.0, 1.0), False),     # sums to 1 but one is negative
        ((0.5, 0.5, 0.5, 0.5), False),      # sums to 2
        ((0.25, 0.25, 0.25, 0.2), False),   # sums to 0.95
        ((1.0, 0.0, 0.0, math.inf), False),
        ((0.7, 0.1, 0.1, 0.1 + 1e-12), True),
        ((0.0, 0.0, 0.0, 0.0), True),       # degenerate
    ])
    def test_impossible_weights_rejected(self, weights, ok):
        doc = pool_to_dict(self.build())
        doc["entries"][0]["weights"] = dict(zip(("w_L", "w_V", "w_B", "w_D"), weights))
        if ok:
            assert pool_from_dict(doc).entries[1].weights == GroupWeights(*weights)
        else:
            with pytest.raises(PoolFileError, match="group weights"):
                pool_from_dict(doc)

    def test_truncated_file_rejected(self, tmp_path):
        pool = self.build()
        path = tmp_path / "pool.json"
        save_pool(path, pool)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(PoolFileError):
            load_pool(path)

    def test_not_a_pool_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("[1,2,3]\n")
        with pytest.raises(PoolFileError):
            load_pool(path)


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Pool(capacity=0)

    @pytest.mark.parametrize("capacity", [2.5, True])
    def test_capacity_must_be_an_integer(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            small_pool(capacity=capacity)

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            Pool(theta_low=0.9, theta_high=0.5)

    def test_ingest_time_must_be_finite(self):
        pool = small_pool()
        with pytest.raises(ValueError, match="now"):
            pool.ingest(ctx(), *data(), now=math.nan)
        assert pool.entries == {}

    @pytest.mark.parametrize("field, value", [
        ("created_at", math.nan), ("created_at", -math.inf),
        ("updated_at", math.inf), ("updated_at", math.nan)])
    def test_loaded_times_must_be_finite(self, field, value):
        """A time that a pool file cannot hold is rejected on loading, as
        `ingest` rejects it, so every pool that loads saves a file that loads."""
        pool = small_pool()
        pool.ingest(ctx(), *data(), now=1.0)
        doc = pool_to_dict(pool)
        doc["entries"][0][field] = value
        with pytest.raises(PoolFileError, match=field):
            pool_from_dict(doc)

    @pytest.mark.parametrize("pool_kw, ctx_kw, now", [
        ({}, {"f": 28_000_000_000}, 1.0),
        ({}, {}, 1),
        ({"theta_high": 1, "theta_low": 0}, {}, 1.0),
        ({"capacity": np.int64(3)}, {}, 1.0),
        ({"forest_params": ForestParams(n_trees=np.int64(3), max_depth=np.int32(4),
                                        min_leaf=np.int64(2), features_per_split=np.int64(5),
                                        seed=np.int64(2))}, {}, 1.0),
    ])
    def test_integer_values_replay_byte_exactly(self, tmp_path, pool_kw, ctx_kw, now):
        """Integers enter as the type the pool file reads back (floats for
        times, thresholds and frequencies), so save -> load -> save holds."""
        pool = small_pool(**pool_kw)
        pool.ingest(ctx(**ctx_kw), *data(), now=now)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_pool(first, pool)
        save_pool(second, load_pool(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("f", [0.0, -28e9, math.nan, math.inf])
    def test_bad_frequency(self, f):
        with pytest.raises(ValueError):
            ctx(f=f)

    @pytest.mark.parametrize("field,value", [
        ("scene_fingerprint", 1.5), ("scene_fingerprint", True), ("scene_fingerprint", "1"),
        ("position_id", True), ("position_id", np.float64(2.0)), ("position_id", None),
        ("los", 1), ("los", "yes"), ("los", None)])
    def test_context_takes_only_what_a_pool_file_holds(self, field, value):
        with pytest.raises(ValueError, match=field):
            Context(**{"scene_fingerprint": 1, "position_id": 1, "rx": (0, 0, 1.5),
                       "los": True, "frequency_hz": 28e9, field: value})

    def test_numpy_scalars_become_python_values(self, tmp_path):
        c = Context(scene_fingerprint=np.int64(3), position_id=np.int32(2),
                    rx=(0, 0, 1.5), los=np.True_, frequency_hz=28e9)
        assert [type(v) for v in (c.scene_fingerprint, c.position_id, c.los)] == \
            [int, int, bool]
        pool = small_pool()
        pool.ingest(c, *data(), now=1.0)
        save_pool(tmp_path / "pool.json", pool)
        back = load_pool(tmp_path / "pool.json").entries[1].context
        assert (back.scene_fingerprint, back.position_id, back.los) == (3, 2, True)


# ---------------------------------------------------------------------------
# Stateful property test
# ---------------------------------------------------------------------------

STATE_PARAMS = ForestParams(n_trees=3, max_depth=3, min_leaf=2, seed=2)

#: Contexts that reach every outcome against one another: a context
#: matches itself (1.0, answered or refined), contexts 0/1 and 2/3 are
#: close enough to transfer (0.81 and 0.51), and the two scenes are too
#: far apart to share knowledge (0.3 or less, generated new).
STATE_CONTEXTS = (ctx(fp=1, pid=1, rx=(0, 0, 1.5)), ctx(fp=1, pid=2, rx=(10, 0, 1.5)),
                  ctx(fp=2, pid=3, rx=(400, 0, 1.5)),
                  ctx(fp=2, pid=4, rx=(400, 30, 1.5), los=False))


def state_data(seed):
    """Realizations for one ingest; seed 0 has a constant target, which
    gives degenerate weights."""
    X, y = data(seed=seed, n=16)
    return (X, np.full(len(y), 3.0)) if seed == 0 else (X, y)


class PoolMachine(RuleBasedStateMachine):
    """Ingest, query, refresh, evict and save->load in any order; the pool
    stays within capacity, never reuses an entry id, answers as its
    thresholds say, and replays byte-exactly from its file."""

    def __init__(self):
        super().__init__()
        self.pool = Pool(capacity=3, forest_params=STATE_PARAMS)
        self.clock = 0.0
        self.next_id = self.pool.next_entry_id
        self.dir = tempfile.TemporaryDirectory()

    def teardown(self):
        self.dir.cleanup()

    def best_similarity(self, c):
        return max((similarity(e.context, c) for e in self.pool.entries.values()),
                   default=-1.0)

    @rule(i=st.integers(0, len(STATE_CONTEXTS) - 1), seed=st.integers(0, 4),
          refresh=st.booleans())
    def ingest(self, i, seed, refresh):
        c = STATE_CONTEXTS[i]
        best = self.best_similarity(c)
        self.clock += 1.0
        outcome, _ = self.pool.ingest(c, *state_data(seed), now=self.clock,
                                      force_refresh=refresh)
        if best >= self.pool.theta_high:
            assert outcome is (Outcome.REFINED if refresh else Outcome.ANSWERED_EXISTING)
        elif best >= self.pool.theta_low:
            assert outcome is Outcome.TRANSFERRED
        else:
            assert outcome is Outcome.GENERATED_NEW

    @rule(i=st.integers(0, len(STATE_CONTEXTS) - 1))
    def query(self, i):
        c = STATE_CONTEXTS[i]
        best = self.best_similarity(c)
        hit = self.pool.query(c)
        assert (hit is not None) == (best >= self.pool.theta_low)
        if hit is not None:
            assert hit[1] == best

    @rule(capacity=st.integers(1, 3))
    def evict(self, capacity):
        n = len(self.pool.entries)
        self.pool.capacity = capacity
        assert len(self.pool.sort_and_evict()) == max(0, n - capacity)

    @rule()
    def save_and_load(self):
        def derived(pool):
            return {eid: (e.weights.spectrum, e.weights.degenerate)
                    for eid, e in pool.entries.items()}
        before = derived(self.pool)
        path = os.path.join(self.dir.name, "pool.json")
        save_pool(path, self.pool)
        self.pool = load_pool(path)
        assert derived(self.pool) == before

    @invariant()
    def within_capacity(self):
        assert len(self.pool.entries) <= self.pool.capacity

    @invariant()
    def entry_ids_only_grow(self):
        assert self.pool.next_entry_id >= self.next_id
        assert all(eid < self.pool.next_entry_id for eid in self.pool.entries)
        self.next_id = self.pool.next_entry_id

    @invariant()
    def replay_is_byte_exact(self):
        text = json.dumps(pool_to_dict(self.pool), separators=(",", ":"))
        again = pool_to_dict(pool_from_dict(json.loads(text)))
        assert json.dumps(again, separators=(",", ":")) == text


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(max_examples=40, stateful_step_count=15, deadline=None)


POOL_OPS = st.lists(st.one_of(
    st.tuples(st.just("ingest"), st.integers(0, len(STATE_CONTEXTS) - 1),
              st.integers(0, 4), st.booleans()),
    st.tuples(st.just("query"), st.integers(0, len(STATE_CONTEXTS) - 1)),
    st.tuples(st.just("evict"), st.integers(1, 3))), max_size=20)


@settings(max_examples=60, deadline=None)
@given(ops=POOL_OPS)
@example(ops=[("ingest", 0, 1, False), ("ingest", 1, 2, False),  # a transfer from 0,
              ("ingest", 0, 3, True)])                           # then 0 is refined
def test_lazy_pool_saves_what_a_forced_pool_saves(ops):
    """The same ops on a lazy pool and on one whose every entry is derived
    after every op give byte-equal files, saved once at the end."""
    lazy, forced = (Pool(capacity=3, forest_params=STATE_PARAMS) for _ in range(2))
    for t, (op, *args) in enumerate(ops, start=1):
        for pool in (lazy, forced):
            if op == "ingest":
                i, seed, refresh = args
                pool.ingest(STATE_CONTEXTS[i], *state_data(seed), now=float(t),
                            force_refresh=refresh)
            elif op == "query":
                pool.query(STATE_CONTEXTS[args[0]])
            else:
                pool.capacity = args[0]
                pool.sort_and_evict()
        force(forced)
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, name) for name in ("lazy.json", "forced.json")]
        for path, pool in zip(paths, (lazy, forced)):
            save_pool(path, pool)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


@settings(max_examples=40, deadline=None)
@given(ops=POOL_OPS)
@example(ops=[("ingest", 0, 1, False), ("ingest", 1, 2, False),  # a transfer from 0,
              ("ingest", 0, 3, True)])                           # then 0 is refined
def test_stored_forest_is_the_fit_of_its_rows(ops):
    """What loading puts in the memo holds for every pool this program
    writes: each entry's stored forest is the one its stored rows give, and
    its stored weights and source digest those of a fresh derivation from
    its rows and its transfer source's rows as they were at ingest."""
    pool = Pool(capacity=3, forest_params=STATE_PARAMS)
    seen = {}        # rows_sha256 -> rows, of every entry's rows at any time
    transfer = {}    # entry id -> whether its knowledge came from a transfer
    for t, (op, *args) in enumerate(ops, start=1):
        if op == "ingest":
            i, seed, refresh = args
            outcome, eid = pool.ingest(STATE_CONTEXTS[i], *state_data(seed), now=float(t),
                                       force_refresh=refresh)
            if outcome is not Outcome.ANSWERED_EXISTING:
                transfer[eid] = outcome is Outcome.TRANSFERRED
        elif op == "query":
            pool.query(STATE_CONTEXTS[args[0]])
        else:
            pool.capacity = args[0]
            pool.sort_and_evict()
        seen.update({rows_sha256(e.train_X, e.train_y): (e.train_X, e.train_y)
                     for e in pool.entries.values()})
    with tempfile.TemporaryDirectory() as d:
        save_pool(os.path.join(d, "pool.json"), pool)
        loaded = load_pool(os.path.join(d, "pool.json"))
    for eid, e in loaded.entries.items():
        refit = fit(e.train_X, e.train_y, STATE_PARAMS, FEATURE_NAMES)
        assert e.model.trees.to_dict() == refit.trees.to_dict()
        assert e.model.oob_r2 == refit.oob_r2
        assert (e.source_sha256 is not None) == transfer[eid]
        source = None if e.source_sha256 is None else seen[e.source_sha256]
        model, weights = derive_knowledge(FitCache(), e.train_X, e.train_y, STATE_PARAMS,
                                          source)
        assert model.trees.to_dict() == refit.trees.to_dict()
        assert e.weights == weights
