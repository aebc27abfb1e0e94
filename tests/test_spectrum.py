import numpy as np
import pytest
from hypothesis import given, strategies as st

from rekpool.features import GROUP_MEMBER_INDEX
from rekpool.spectrum import (SUBSETS, DegenerateWeightsError, GroupWeights,
                              KnowledgeSpectrum, group_weights, knowledge_delta,
                              spectrum)


def weights_from(vals):
    w = np.asarray(vals, dtype=float)
    return GroupWeights(w_L=float(w[0]), w_V=float(w[1]),
                        w_B=float(w[2]), w_D=float(w[3]))


class TestSubsets:
    def test_count_and_order(self):
        assert SUBSETS == ("L", "V", "B", "D",
                           "LV", "LB", "LD", "VB", "VD", "BD",
                           "LVB", "LVD", "LBD", "VBD", "LVBD")

    def test_nonrepetitive(self):
        assert len(set(SUBSETS)) == 15


class TestGroupWeights:
    def test_normalization(self):
        imp = np.zeros(16)
        imp[GROUP_MEMBER_INDEX["L"][0]] = 2.0
        imp[GROUP_MEMBER_INDEX["V"][0]] = 1.0
        imp[GROUP_MEMBER_INDEX["B"][0]] = 0.5
        imp[GROUP_MEMBER_INDEX["D"][0]] = 0.5
        w = group_weights(imp)
        assert (w.w_L, w.w_V, w.w_B, w.w_D) == pytest.approx(
            (0.5, 0.25, 0.125, 0.125))
        assert not w.degenerate

    def test_members_summed_within_group(self):
        imp = np.zeros(16)
        for i in GROUP_MEMBER_INDEX["D"]:
            imp[i] = 1.0
        w = group_weights(imp)
        assert w.w_D == pytest.approx(1.0)
        assert w.w_L == w.w_V == w.w_B == 0.0

    def test_all_zero_degenerate(self):
        w = group_weights(np.zeros(16))
        assert w.degenerate
        assert (w.w_L, w.w_V, w.w_B, w.w_D) == (0, 0, 0, 0)

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError):
            group_weights(np.zeros(7))


class TestSpectrum:
    def test_full_combination_is_one(self):
        sp = spectrum(weights_from([0.4, 0.3, 0.2, 0.1]))
        assert sp.value("LVBD") == pytest.approx(1.0)

    def test_additive_example(self):
        sp = spectrum(weights_from([0.4, 0.3, 0.2, 0.1]))
        assert sp.value("LV") == pytest.approx(0.7)
        assert sp.value("BD") == pytest.approx(0.3)
        assert sp.value("L") == pytest.approx(0.4)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateWeightsError):
            spectrum(GroupWeights(0, 0, 0, 0))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4)
           .filter(lambda v: sum(v) > 1e-6))
    def test_monotone_and_bounded(self, raw):
        total = sum(raw)
        w = weights_from([v / total for v in raw])
        sp = spectrum(w)
        by_set = {s: sp.value(s) for s in SUBSETS}
        for a in SUBSETS:
            for b in SUBSETS:
                if set(a) <= set(b):
                    assert by_set[a] <= by_set[b] + 1e-12
        assert by_set["LVBD"] == pytest.approx(1.0, abs=1e-9)
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in by_set.values())


class TestKnowledgeDelta:
    def test_zero_for_identical(self):
        sp = spectrum(weights_from([0.25, 0.25, 0.25, 0.25]))
        assert knowledge_delta(sp, sp) == 0.0

    def test_symmetry(self):
        a = spectrum(weights_from([0.7, 0.1, 0.1, 0.1]))
        b = spectrum(weights_from([0.1, 0.1, 0.1, 0.7]))
        assert knowledge_delta(a, b) == pytest.approx(knowledge_delta(b, a))

    def test_disjoint_point_masses(self):
        # all weight on L vs all weight on V: the 15 subset values differ
        # by 1 in 8 cases (those containing exactly one of L, V)
        a = spectrum(weights_from([1, 0, 0, 0]))
        b = spectrum(weights_from([0, 1, 0, 0]))
        assert knowledge_delta(a, b) == pytest.approx(8.0 / 15.0)

    def test_triangle_inequality(self):
        a = spectrum(weights_from([0.6, 0.2, 0.1, 0.1]))
        b = spectrum(weights_from([0.1, 0.6, 0.2, 0.1]))
        c = spectrum(weights_from([0.25, 0.25, 0.25, 0.25]))
        assert knowledge_delta(a, b) <= (knowledge_delta(a, c)
                                         + knowledge_delta(c, b) + 1e-12)

    def test_value_lookup(self):
        sp = KnowledgeSpectrum(values=tuple(float(i) for i in range(15)))
        assert sp.value("L") == 0.0
        assert sp.value("LVBD") == 14.0
