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

    def test_report_csv_export(self, tmp_path):
        rep = fc.sample_fcr([0, 0, 1], [0, 1, 1], np.arange(3))
        path = tmp_path / "report.csv"
        from fcrcluster.evaluation import write_fcr_report_csv

        write_fcr_report_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("sample_fcr,selection_frequency")
        assert len(lines) == 2

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


class TestClusteringRisk:
    def test_separated_risk_tiny(self):
        truth = symmetric_pair(eps=100.0)

        def bayes(x):
            return fc.map_labels(fc.posterior_matrix(truth, x))

        est = fc.clustering_risk_mc(truth, bayes, n=50, reps=40,
                                    rng=np.random.default_rng(0))
        assert est.estimate < 0.001

    def test_weight_only_separation(self):
        # nearly identical components: Bayes risk approaches the minor weight
        delta = 0.05
        comps = (
            fc.ComponentParams("gaussian", np.zeros(1), np.eye(1)),
            fc.ComponentParams("gaussian", np.array([1e-6]), np.eye(1)),
        )
        truth = fc.MixtureParams([0.5 + delta, 0.5 - delta], comps)

        def bayes(x):
            return fc.map_labels(fc.posterior_matrix(truth, x))

        est = fc.clustering_risk_mc(truth, bayes, n=200, reps=60,
                                    rng=np.random.default_rng(1))
        assert est.estimate == pytest.approx(0.5 - delta, abs=3 * est.se + 0.01)

    def test_bayes_risk_equals_mean_t(self):
        truth = symmetric_pair(eps=2.0)

        def bayes(x):
            return fc.map_labels(fc.posterior_matrix(truth, x))

        rng = np.random.default_rng(2)
        est = fc.clustering_risk_mc(truth, bayes, n=200, reps=300, rng=rng)
        t_mean = fc.mfcr_oracle_mc(truth, 1.0, 200_000, np.random.default_rng(3))
        tol = 3 * math.hypot(est.se, t_mean.se) + 1e-3
        assert est.estimate == pytest.approx(t_mean.estimate, abs=tol)


class TestMfcrOracle:
    def test_empty_event_is_zero(self):
        truth = symmetric_pair(eps=20.0)
        est = fc.mfcr_oracle_mc(truth, 1e-12, 20_000, np.random.default_rng(0))
        assert est.estimate == 0.0

    def test_full_support_equals_unconditional_mean(self):
        truth = symmetric_pair(eps=1.5)
        rng = np.random.default_rng(1)
        full = fc.mfcr_oracle_mc(truth, 0.5, 200_000, rng)
        # T <= 1/2 for two components, so conditioning on T < 0.5 is
        # conditioning on everything up to a null boundary
        uncond = fc.mfcr_oracle_mc(truth, 1.0, 200_000, np.random.default_rng(2))
        assert full.estimate == pytest.approx(
            uncond.estimate, abs=3 * math.hypot(full.se, uncond.se)
        )

    def test_estimate_below_threshold(self):
        truth = symmetric_pair(eps=1.5)
        rng = np.random.default_rng(3)
        for t in (0.05, 0.1, 0.2, 0.4):
            est = fc.mfcr_oracle_mc(truth, t, 100_000, rng)
            assert est.estimate < t

    def test_invalid_t(self):
        truth = symmetric_pair()
        with pytest.raises(ValueError, match="t must"):
            fc.mfcr_oracle_mc(truth, 0.0, 100, np.random.default_rng(0))


class TestTStar:
    def test_alpha_above_alpha_bar_gives_one(self):
        truth = symmetric_pair(eps=4.0)  # alpha_bar is small
        t = fc.t_star_mc(truth, 0.4, 50_000, np.random.default_rng(0))
        assert t == 1.0

    def test_alpha_below_range_raises(self):
        truth = symmetric_pair(eps=1.0)
        with pytest.raises(ValueError, match="below the achievable range"):
            fc.t_star_mc(truth, 1e-9, 50_000, np.random.default_rng(1))

    def test_bracketing(self):
        truth = symmetric_pair(eps=math.sqrt(2.0))
        alpha = 0.1
        t_star = fc.t_star_mc(truth, alpha, 400_000, np.random.default_rng(2))
        below = fc.mfcr_oracle_mc(truth, t_star - 0.01, 400_000, np.random.default_rng(3))
        above = fc.mfcr_oracle_mc(truth, t_star + 0.01, 400_000, np.random.default_rng(4))
        assert below.estimate <= alpha + 3 * below.se
        assert above.estimate >= alpha - 3 * above.se

    def test_t_star_exceeds_alpha(self):
        truth = symmetric_pair(eps=math.sqrt(2.0))
        t_star = fc.t_star_mc(truth, 0.1, 200_000, np.random.default_rng(5))
        assert t_star > 0.1


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
