"""Metric tests: hand traces, pairwise/step oracles, baselines, invariances."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xckit.errors import (
    DegenerateClassBalance,
    EmptySample,
    NoPositives,
    ShapeMismatch,
    XckitError,
)
from xckit.metrics import (
    FP_AS_POSITIVE,
    TP_AS_POSITIVE,
    MetricReport,
    _tie_grouped_counts,
    aupr,
    auroc,
    evaluate_feature,
    ks_statistic,
    render_table,
)

import oracles


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert auroc([0.4] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_hand_case_three_quarters(self):
        assert auroc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == 0.75

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(71)
        for trial in range(30):
            n = int(rng.integers(10, 500))
            # a mix of continuous scores and coarse ones (forces ties)
            if trial % 2:
                scores = rng.normal(size=n)
            else:
                scores = rng.integers(0, 8, size=n).astype(float) / 7.0
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            got = auroc(scores, labels)
            want = oracles.mann_whitney_auc(scores, labels)
            assert abs(got - want) <= 1e-9

    def test_negation_flips(self):
        rng = np.random.default_rng(73)
        scores = rng.normal(size=200)
        labels = rng.random(200) < 0.3
        a = auroc(scores, labels)
        b = auroc(-scores, labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_rank_invariance(self):
        rng = np.random.default_rng(79)
        scores = rng.uniform(0.1, 0.9, size=300)
        labels = rng.random(300) < 0.5
        base = auroc(scores, labels)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3):
            assert auroc(transform(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_one_class_rejected(self):
        with pytest.raises(DegenerateClassBalance):
            auroc([0.1, 0.2], [1, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(XckitError):
            auroc([0.1, np.inf], [1, 0])

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.2, 0.3], [1, 0]),
        ([0.1, 0.2], [1, 0, 1]),
        ([[0.1, 0.2], [0.3, 0.4]], [1, 0]),
        ([[0.1, 0.2], [0.3, 0.4]], [[1, 0], [0, 1]]),
        (0.5, 1),
    ], ids=["more-scores", "more-labels", "2d-scores", "2d-both", "0d"])
    def test_shape_mismatch_rejected(self, scores, labels):
        with pytest.raises(ShapeMismatch):
            auroc(scores, labels)
        with pytest.raises(ShapeMismatch):
            aupr(scores, labels)


class TestAupr:
    def test_perfect(self):
        assert aupr([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_hand_trace(self):
        # thresholds 0.9 (R=0.5, P=1) then 0.7 (R=1, P=2/3)
        got = aupr([0.9, 0.8, 0.7], [1, 0, 1])
        assert got == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-12)

    def test_matches_step_oracle(self):
        rng = np.random.default_rng(83)
        for trial in range(25):
            n = int(rng.integers(5, 120))
            scores = np.round(rng.uniform(size=n), 2)  # ties guaranteed
            labels = rng.random(n) < 0.35
            if not labels.any():
                continue
            got = aupr(scores, labels)
            want = oracles.ap_step_oracle(scores, labels)
            assert got == pytest.approx(want, abs=1e-12)

    def test_random_scores_approach_positive_rate(self):
        rng = np.random.default_rng(89)
        n = 100_000
        labels = np.zeros(n, dtype=bool)
        labels[: n // 4] = True
        scores = rng.uniform(size=n)
        assert aupr(scores, labels) == pytest.approx(0.25, abs=0.01)

    def test_op_view_is_negated_flip(self):
        rng = np.random.default_rng(97)
        scores = rng.uniform(size=150)
        labels = rng.random(150) < 0.4
        direct = aupr(scores, labels, FP_AS_POSITIVE)
        manual = aupr(-scores, ~labels, TP_AS_POSITIVE)
        assert direct == manual

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            aupr([0.5, 0.6], [0, 0], TP_AS_POSITIVE)
        with pytest.raises(NoPositives):
            aupr([0.5, 0.6], [1, 1], FP_AS_POSITIVE)

    def test_unknown_positive_class(self):
        with pytest.raises(XckitError):
            aupr([0.5], [1], "op")


class TestKs:
    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([1, 2, 3], [4, 5, 6]) == 1.0

    def test_hand_half(self):
        assert ks_statistic([1.0, 2.0], [1.0, 3.0]) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(101)
        a = rng.normal(size=40)
        b = rng.normal(0.5, 1.3, size=55)
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(103)
        a = rng.uniform(0.0, 1.0, size=60)
        b = rng.uniform(0.2, 1.2, size=45)
        base = ks_statistic(a, b)
        assert ks_statistic(np.exp(a), np.exp(b)) == pytest.approx(base, abs=1e-12)
        assert ks_statistic(2 * a + 1, 2 * b + 1) == pytest.approx(base, abs=1e-12)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(107)
        for _ in range(10):
            a = rng.normal(size=int(rng.integers(5, 80)))
            b = rng.normal(0.3, 1.0, size=int(rng.integers(5, 80)))
            want = scipy_stats.ks_2samp(a, b).statistic
            assert ks_statistic(a, b) == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_statistic([], [1.0])

    @pytest.mark.parametrize("a, b", [
        (np.ones((3, 2)), [1.0, 2.0]),
        ([1.0, 2.0], np.ones((2, 2))),
        (np.ones((0, 2)), [1.0]),
        (1.0, [1.0, 2.0]),
    ], ids=["2d-first", "2d-second", "2d-empty", "0d"])
    def test_not_1d_rejected(self, a, b):
        with pytest.raises(ShapeMismatch):
            ks_statistic(a, b)


# quantized draws force ties; -0.0 sits next to 0.0 and must share its group
TIED_SCORES = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestTieGrouping:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(TIED_SCORES, st.booleans()), min_size=1, max_size=60))
    @example([(0.5, True)])
    @example([(0.25, True), (0.25, False), (0.25, True)])
    @example([(-0.0, True), (0.0, False), (-0.0, False), (0.0, True)])
    def test_matches_loop_oracle(self, pairs):
        scores = np.array([p[0] for p in pairs], dtype=np.float64)
        labels = np.array([p[1] for p in pairs], dtype=bool)
        pos, tot = _tie_grouped_counts(scores, labels)
        want_pos, want_tot = oracles.tie_grouped_counts(scores, labels)
        assert pos.tolist() == want_pos
        assert tot.tolist() == want_tot


@dataclass
class Row:
    is_tp: bool
    top_score: float
    n_points: int = 50
    pred_label: str = "car"


class TestEvaluateFeature:
    def make_rows(self, rng, n=400, tp_rate=0.3, informative=True):
        rows = []
        for _ in range(n):
            tp = bool(rng.random() < tp_rate)
            if informative:
                score = float(np.clip(0.5 * tp + rng.normal(0.25, 0.15), 0, 1))
            else:
                score = float(rng.uniform())
            rows.append(Row(is_tp=tp, top_score=score))
        return rows

    def test_oracle_feature_saturates(self):
        rows = [Row(is_tp=bool(i % 3 == 0), top_score=float(i % 3 == 0)) for i in range(60)]
        rep = evaluate_feature(rows, "top_score")
        assert rep.auroc == 1.0 and rep.aupr == 1.0 and rep.aupr_op == 1.0

    def test_anti_feature_zero_auroc(self):
        rows = [Row(is_tp=bool(i % 3 == 0), top_score=-float(i % 3 == 0)) for i in range(60)]
        assert evaluate_feature(rows, "top_score").auroc == 0.0

    def test_random_baseline_tracks_positive_rate(self):
        rng = np.random.default_rng(109)
        rows = []
        for i in range(10_000):
            rows.append(Row(is_tp=i < 2320, top_score=0.0))
        rep = evaluate_feature(rows, "random", rng_seed=5)
        assert rep.aupr == pytest.approx(0.232, abs=0.02)
        assert rep.auroc == pytest.approx(0.5, abs=0.02)
        assert rep.n_pos == 2320 and rep.n_neg == 7680

    def test_group_filter(self):
        rng = np.random.default_rng(113)
        rows = self.make_rows(rng)
        for r in rows[:100]:
            r.n_points = 200
        group = [r for r in rows if r.n_points >= 100]
        rep = evaluate_feature(group, "top_score", group_name="pts>=100")
        assert rep.n_pos + rep.n_neg == 100
        assert rep.group == "pts>=100"

    def test_empty_group_rejected(self):
        with pytest.raises(EmptySample, match="group none"):
            evaluate_feature([], "top_score", group_name="none")

    def test_render_table_layout(self):
        rng = np.random.default_rng(127)
        rows = self.make_rows(rng)
        reports = [
            evaluate_feature(rows, "top_score"),
            evaluate_feature(rows, "random", rng_seed=1),
        ]
        text = render_table(reports)
        lines = text.splitlines()
        assert lines[0].split() == ["feature", "group", "n_pos", "n_neg", "AUROC", "AUPR", "AUPR_op"]
        assert len(lines) == 4
        assert "top_score" in lines[2] and "random" in lines[3]
        # all data rows share the header's column alignment
        assert lines[2].index("all") == lines[0].index("group")
