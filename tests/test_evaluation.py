import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import fcrcluster as fc


def symmetric_pair(eps=2.0):
    return fc.gaussian_separation_truth(2, 2, eps)


class TestBestPermutation:
    def test_identity_when_equal(self):
        perm, err = fc.best_permutation([0, 1, 2], [0, 1, 2], np.arange(3))
        assert perm == (0, 1, 2) and err == 0

    def test_swap_relabeling(self):
        perm, err = fc.best_permutation([0, 0, 1, 1], [1, 1, 0, 0], np.arange(4))
        assert perm == (1, 0) and err == 0

    def test_enumerated_example(self):
        perm, err = fc.best_permutation([0, 0, 1], [0, 1, 1], np.arange(3))
        assert perm == (0, 1) and err == 1

    def test_restricted_to_selection(self):
        true = [0, 0, 1, 1]
        pred = [0, 1, 1, 0]
        perm, err = fc.best_permutation(true, pred, np.array([0, 2]))
        assert err == 0 and perm == (0, 1)

    def test_assignment_solver_above_the_cap(self):
        # Q = 9 is past the exhaustive search; relabeled predictions still
        # score zero errors, and one moved item one error
        true = np.arange(18) % 9
        pred = (true + 4) % 9
        perm, err = fc.best_permutation(true, pred, np.arange(18))
        assert err == 0
        assert all(perm[p] == t for t, p in zip(true, pred))
        pred[0] = pred[1]
        assert fc.best_permutation(true, pred, np.arange(18))[1] == 1

    def test_lexicographic_tie_break(self):
        # empty selection: every permutation scores 0 errors
        perm, err = fc.best_permutation([0, 1], [1, 0], np.array([], dtype=int))
        assert perm == (0, 1) and err == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_matches_assignment_solver(self, seed, q):
        rng = np.random.default_rng(seed)
        n = 30
        true = rng.integers(0, q, n)
        pred = rng.integers(0, q, n)
        sel = np.flatnonzero(rng.random(n) < 0.7)
        perm, err = fc.best_permutation(true, pred, sel)
        confusion = np.zeros((q, q))
        if sel.size:
            np.add.at(confusion, (true[sel], pred[sel]), 1)
        rows, cols = linear_sum_assignment(-confusion)
        assert err == sel.size - confusion[rows, cols].sum()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(0, 40))
    def test_exhaustive_and_assignment_routes_agree(self, seed, q, n):
        # the exhaustive search is the oracle for the route taken above Q = 8
        rng = np.random.default_rng(seed)
        confusion = np.zeros((q, q), dtype=np.int64)
        np.add.at(confusion, (rng.integers(0, q, n), rng.integers(0, q, n)), 1)
        perm, matches = fc.evaluation._assignment(confusion)
        assert sorted(perm) == list(range(q))
        assert matches == confusion[np.asarray(perm), np.arange(q)].sum()
        assert matches == fc.evaluation._exhaustive(confusion)[1]


class TestSampleFcr:
    def test_empty_selection_is_zero(self):
        rep = fc.sample_fcr([0, 1, 0], [1, 1, 1], np.array([], dtype=int))
        assert rep.sample_fcr == 0.0 and rep.n_selected == 0

    def test_one_error_in_three(self):
        rep = fc.sample_fcr([0, 0, 1], [0, 1, 1], np.arange(3))
        assert rep.sample_fcr == pytest.approx(1 / 3)
        assert rep.n_errors_at_best_perm == 1
        assert rep.selection_frequency == pytest.approx(1.0)

    def test_any_global_relabeling_scores_zero(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 3, 40)
        for perm in itertools.permutations(range(3)):
            pred = np.asarray(perm)[true]
            rep = fc.sample_fcr(true, pred, np.arange(40))
            assert rep.sample_fcr == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_relabel_invariance(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 5))
        n = 25
        true = rng.integers(0, q, n)
        pred = rng.integers(0, q, n)
        sel = np.flatnonzero(rng.random(n) < 0.6)
        base = fc.sample_fcr(true, pred, sel).sample_fcr
        relab = rng.permutation(q)
        assert fc.sample_fcr(true, relab[pred], sel).sample_fcr == base
        assert fc.sample_fcr(relab[true], pred, sel).sample_fcr == base

    def test_min_can_only_help(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = int(rng.integers(2, 5))
            true = rng.integers(0, q, 30)
            pred = rng.integers(0, q, 30)
            sel = np.flatnonzero(rng.random(30) < 0.5)
            rep = fc.sample_fcr(true, pred, sel)
            identity_errors = int((true[sel] != pred[sel]).sum())
            assert rep.n_errors_at_best_perm <= identity_errors


class TestMfcrOracle:
    """``oracle_curve``'s mean risk conditional on the risk falling below each
    grid threshold."""

    def test_empty_event_is_zero(self):
        # nearly identical components: every sampled risk is close to 1/2
        truth = symmetric_pair(eps=0.01)
        curve = fc.oracle_curve(truth, 0.1, 20_000, np.random.default_rng(0))
        assert curve.mfcr_values[0] == 0.0 and curve.mfcr_ses[0] == 0.0
        assert curve.mfcr_values[-1] > 0.49

    def test_full_support_equals_unconditional_mean(self):
        # the last threshold is the largest possible risk, 1 - 1/Q, so
        # conditioning on the risk below it conditions on everything up to
        # a null boundary
        for q in (2, 3):
            truth = fc.gaussian_separation_truth(q, 2, 1.5)
            curve = fc.oracle_curve(truth, 0.1, 200_000, np.random.default_rng(1))
            assert curve.t_grid[-1] == pytest.approx(1.0 - 1.0 / q)
            assert curve.mfcr_values[-1] == pytest.approx(curve.alpha_bar, rel=1e-12)

    def test_estimate_below_threshold(self):
        truth = symmetric_pair(eps=1.5)
        curve = fc.oracle_curve(truth, 0.1, 100_000, np.random.default_rng(3))
        assert np.all(curve.mfcr_values < curve.t_grid)
        assert np.all(curve.mfcr_values > 0.0)


class TestTStar:
    """``oracle_curve``'s largest threshold whose conditional mean risk stays
    at or below the level."""

    def test_alpha_above_alpha_bar_gives_one(self):
        truth = symmetric_pair(eps=4.0)  # alpha_bar is small
        curve = fc.oracle_curve(truth, 0.4, 50_000, np.random.default_rng(0))
        assert curve.alpha_bar < 0.4 and curve.t_star == 1.0

    def test_alpha_below_range_gives_nan(self):
        # at or below the smallest sampled risk no threshold serves the level
        truth = symmetric_pair(eps=1.0)
        curve = fc.oracle_curve(truth, 1e-9, 50_000, np.random.default_rng(1))
        assert math.isnan(curve.t_star)
        assert curve.alpha_c > 1e-9

    def test_alpha_c_is_where_t_star_ends(self):
        # alpha_c is the smallest sampled risk: t_star is NaN at it and
        # finite just above it, on the same frozen sample
        truth = symmetric_pair(eps=1.0)
        alpha_c = fc.oracle_curve(truth, 0.1, 50_000, np.random.default_rng(1)).alpha_c
        at = fc.oracle_curve(truth, alpha_c, 50_000, np.random.default_rng(1))
        above = fc.oracle_curve(truth, np.nextafter(alpha_c, 1.0), 50_000,
                                np.random.default_rng(1))
        assert at.alpha_c == above.alpha_c == alpha_c > 0.0
        assert math.isnan(at.t_star)
        assert math.isfinite(above.t_star) and 0.0 < above.t_star < 1.0

    @pytest.mark.parametrize("mc_size", [0, -3])
    def test_mc_size_below_one_raises_before_any_draw(self, mc_size):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="mc_size must be >= 1"):
            fc.oracle_curve(symmetric_pair(eps=1.0), 0.1, mc_size, rng)
        assert rng.bit_generator.state == state

    def test_bracketing(self):
        # on the one frozen sample the curve is exactly non-decreasing, and
        # the bisection places t_star to within 1e-3: every grid point below
        # it keeps the level, every grid point above it exceeds the level
        truth = symmetric_pair(eps=math.sqrt(2.0))
        alpha = 0.1
        curve = fc.oracle_curve(truth, alpha, 400_000, np.random.default_rng(2))
        below = curve.t_grid <= curve.t_star - 1e-3
        above = curve.t_grid >= curve.t_star + 1e-3
        assert below.any() and above.any()
        assert np.all(curve.mfcr_values[below] <= alpha)
        assert np.all(curve.mfcr_values[above] > alpha)

    def test_t_star_exceeds_alpha(self):
        truth = symmetric_pair(eps=math.sqrt(2.0))
        curve = fc.oracle_curve(truth, 0.1, 200_000, np.random.default_rng(5))
        assert curve.t_star > 0.1


class TestOracleCurve:
    def test_curve_properties(self):
        truth = symmetric_pair(eps=math.sqrt(2.0))
        curve = fc.oracle_curve(truth, 0.1, mc_size=200_000,
                                rng=np.random.default_rng(6))
        values = curve.mfcr_values
        ses = curve.mfcr_ses
        for j in range(len(values) - 1):
            assert values[j] <= values[j + 1] + 3 * math.hypot(ses[j], ses[j + 1])
        nonempty = values > 0
        assert np.all(values[nonempty] < curve.t_grid[nonempty])
        assert curve.alpha_bar == pytest.approx(values[-1], abs=1e-12)
        assert 0.1 < curve.t_star < 0.5

    def test_csv_export(self, tmp_path):
        truth = symmetric_pair()
        curve = fc.oracle_curve(truth, 0.1, mc_size=20_000,
                                rng=np.random.default_rng(7))
        path = tmp_path / "curve.csv"
        from fcrcluster.evaluation import write_oracle_curve_csv

        write_oracle_curve_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,mfcr,se,mc_size"
        assert len(lines) == len(curve.t_grid) + 1


class TestGaussianTTail:
    def test_boundaries(self):
        truth = symmetric_pair(eps=2.0)
        assert fc.gaussian_t_tail(truth, truth, 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert fc.gaussian_t_tail(truth, truth, 0.5) == 0.0
        assert fc.gaussian_t_tail(truth, truth, 0.7) == 0.0

    def test_monotone_decreasing(self):
        truth = symmetric_pair(eps=2.0)
        grid = np.linspace(0.01, 0.49, 40)
        vals = [fc.gaussian_t_tail(truth, truth, t) for t in grid]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_matches_monte_carlo(self):
        truth = symmetric_pair(eps=2.0)
        _, x = fc.sample_mixture(truth, 100_000, np.random.default_rng(8))
        tv = fc.posterior_matrix(truth, x).t_values
        assert fc.gaussian_t_tail(truth, truth, 0.2) == pytest.approx(
            (tv > 0.2).mean(), abs=0.01
        )

    def test_mismatched_statistic_parameter(self):
        # the statistic may come from a different homoscedastic pair
        truth = symmetric_pair(eps=2.0)
        other = fc.gaussian_separation_truth(2, 2, 1.5)
        _, x = fc.sample_mixture(truth, 100_000, np.random.default_rng(9))
        tv = fc.posterior_matrix(other, x).t_values
        assert fc.gaussian_t_tail(other, truth, 0.25) == pytest.approx(
            (tv > 0.25).mean(), abs=0.01
        )

    def test_unequal_covariances_rejected(self):
        comps = (
            fc.ComponentParams("gaussian", np.zeros(2), np.eye(2)),
            fc.ComponentParams("gaussian", np.ones(2), 2 * np.eye(2)),
        )
        bad = fc.MixtureParams([0.5, 0.5], comps)
        good = symmetric_pair()
        with pytest.raises(ValueError, match="covariance"):
            fc.gaussian_t_tail(bad, good, 0.2)
        with pytest.raises(ValueError, match="covariance"):
            fc.gaussian_t_tail(good, bad, 0.2)


def test_oracle_fcr_identity():
    # with the true parameters, the expected sample FCR of the cumulative
    # procedure equals the expected selected-risk average
    truth = symmetric_pair(eps=math.sqrt(2.0))
    rng = np.random.default_rng(10)
    fcrs, risk_means = [], []
    for _ in range(400):
        z, x = fc.sample_mixture(truth, 100, rng)
        post = fc.posterior_matrix(truth, x)
        sc = fc.select_and_label(post, 0.1, "cumulative")
        fcrs.append(fc.sample_fcr(z, sc.labels, sc.selection.selected).sample_fcr)
        sel = sc.selection.selected
        risk_means.append(post.t_values[sel].mean() if sel.size else 0.0)
    fcrs = np.asarray(fcrs)
    risk_means = np.asarray(risk_means)
    se = math.hypot(fcrs.std(ddof=1), risk_means.std(ddof=1)) / math.sqrt(len(fcrs))
    assert fcrs.mean() == pytest.approx(risk_means.mean(), abs=3 * se)


def test_bayes_risk_equals_mean_t():
    # the Bayes (MAP under the truth) misclassification rate is the mean
    # MAP risk, which the oracle curve reports as alpha_bar
    truth = symmetric_pair(eps=2.0)
    n = 60_000
    z, x = fc.sample_mixture(truth, n, np.random.default_rng(2))
    bayes = fc.map_labels(fc.posterior_matrix(truth, x))
    rate = fc.sample_fcr(z, bayes, np.arange(n)).sample_fcr
    se = math.sqrt(rate * (1.0 - rate) / n)
    curve = fc.oracle_curve(truth, 0.1, 200_000, np.random.default_rng(3))
    tol = 3 * math.hypot(se, curve.mfcr_ses[-1]) + 1e-3
    assert rate == pytest.approx(curve.alpha_bar, abs=tol)
