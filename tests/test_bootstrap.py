import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import fcrcluster as fc
from fcrcluster.bootstrap import (
    FullRefit,
    WarmStart,
    choose_level,
    clustering_at_calibrated_level,
    level_grid,
    write_curve_csv,
)
from fcrcluster.bootstrap import _score_block
from fcrcluster.mixtures import _map_rows, _t_values
from fcrcluster.selection import kstar_grid


def plugin_fcr_per_level(probs, ref_probs, levels):
    """Per-level FCR of one resample, minimized over label permutations by the
    assignment solver: the reference scorer.

    ``probs`` is the refit's posterior on the resample, whose risks and MAP
    labels the plug-in uses; ``ref_probs`` are the posterior probabilities
    of the resampled rows under the reference fit (the parameters estimated
    on the original data), which stand in for the truth.
    """
    n, qn = ref_probs.shape
    order, _, ks = kstar_grid(_t_values(probs), levels)
    # cumulative per-class posterior mass along the selection order:
    # cum[k-1, c, r] = sum over the k lowest-risk items with predicted class
    # c of the reference posterior for class r
    one_hot = np.zeros((n, qn))
    one_hot[np.arange(n), _map_rows(probs)[order]] = 1.0
    contrib = one_hot[:, :, None] * ref_probs[order][:, None, :]
    cum = np.cumsum(contrib, axis=0)
    values = np.zeros(len(levels))
    for j, k in enumerate(ks):
        if k == 0:
            continue
        gain = cum[k - 1]
        rows, cols = linear_sum_assignment(-gain)
        values[j] = (k - float(gain[rows, cols].sum())) / k
    return values


def fitted_pair(eps=4.0, n=200, seed=0):
    truth = fc.gaussian_separation_truth(2, 2, eps)
    rng = np.random.default_rng(seed)
    z, x = fc.sample_mixture(truth, n, rng)
    fit = fc.fit_mixture(x, 2, fc.EmConfig(n_starts=4), np.random.default_rng(seed + 1))
    return truth, z, x, fit.params


class TestResample:
    def test_nonparametric_single_row(self):
        truth = fc.gaussian_separation_truth(2, 2, 2.0)
        x = np.array([[1.5, -0.5]])
        out = fc.resample(x, truth, "nonparametric", np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_parametric_degenerate_weights(self):
        comps = (
            fc.ComponentParams("gaussian", np.zeros(2), 1e-6 * np.eye(2)),
            fc.ComponentParams("gaussian", np.full(2, 100.0), np.eye(2)),
        )
        params = fc.MixtureParams([1.0 - 1e-13, 1e-13], comps)
        out = fc.resample(np.zeros((200, 2)), params, "parametric",
                          np.random.default_rng(1))
        assert np.all(np.abs(out) < 1.0)

    def test_nonparametric_frequencies(self):
        row_a = np.array([0.0, 0.0])
        row_b = np.array([1.0, 1.0])
        x = np.vstack([np.tile(row_a, (5000, 1)), np.tile(row_b, (5000, 1))])
        truth = fc.gaussian_separation_truth(2, 2, 1.0)
        out = fc.resample(x, truth, "nonparametric", np.random.default_rng(2))
        frac_a = (out[:, 0] == 0.0).mean()
        assert abs(frac_a - 0.5) < 0.02

    def test_unknown_mode(self):
        truth = fc.gaussian_separation_truth(2, 2, 1.0)
        with pytest.raises(ValueError, match="mode"):
            fc.resample(np.zeros((3, 2)), truth, "jackknife", np.random.default_rng(0))


class TestEstimator:
    def test_single_component_estimate_is_zero(self):
        params = fc.MixtureParams(
            [1.0], (fc.ComponentParams("gaussian", np.zeros(1), np.eye(1)),)
        )
        x = np.random.default_rng(0).normal(size=(50, 1))
        cfg = fc.BootstrapConfig(b=5, grid=[0.1], refit=WarmStart(0))
        curve = fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1),
                                   np.random.default_rng(1))
        assert curve.fcr_hat.tolist() == [0.0]

    def test_identity_resample_reduces_to_plugin_risk_average(self):
        # one resample equal to the data, no refit: the estimator equals the
        # mean selected risk of the plug-in on the original data
        _, _, x, params = fitted_pair(eps=2.0, n=150, seed=3)
        post = fc.posterior_matrix(params, x)
        for alpha in (0.05, 0.1, 0.2):
            cm = post.probs.T[None]
            vals = _score_block(cm, cm, np.array([alpha]))[0]
            sel = fc.cumulative_select(post.t_values, alpha)
            expected = (
                post.t_values[sel.selected].mean() if sel.k_star else 0.0
            )
            assert vals[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_separated_case_small_estimate(self):
        _, _, x, params = fitted_pair(eps=4.0, n=200, seed=4)
        cfg = fc.BootstrapConfig(b=80, grid=[0.1], refit=WarmStart(5))
        curve = fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1),
                                   np.random.default_rng(5))
        assert curve.fcr_hat[0] < 0.05


def score_pairs(rng, m, n, q, pick=None):
    """m seeded (refit, reference) posterior pairs of shape (n, q); with
    ``pick``, every row of both is one of those rows, so risks tie."""
    def rows():
        if pick is None:
            return rng.dirichlet(np.ones(q), size=n)
        return np.asarray(pick, dtype=float)[rng.integers(0, len(pick), size=n)]
    return [(rows(), rows()) for _ in range(m)]


def assert_scores_match_reference(pairs, levels):
    """``_score_block`` on the stacked pairs equals the assignment-solver
    reference on each pair, bit for bit."""
    probs = np.stack([p.T for p, _ in pairs])
    ref = np.stack([r.T for _, r in pairs])
    expected = np.stack([plugin_fcr_per_level(p, r, levels) for p, r in pairs])
    assert np.array_equal(_score_block(probs, ref, levels), expected)
    return expected


@pytest.mark.bits
class TestBlockScorer:
    """The block scorer is the per-resample assignment-solver scorer, bit for bit."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_random_posteriors(self, q):
        rng = np.random.default_rng(40 + q)
        levels = np.concatenate([[1e-9], level_grid(0.3)])
        for n in (1, 7, 150):
            expected = assert_scores_match_reference(score_pairs(rng, 12, n, q), levels)
            if q > 1 and n > 1:
                assert (expected[:, 0] == 0.0).all() and (expected[:, -1] > 0.0).any()

    @pytest.mark.parametrize("q", [2, 3])
    def test_no_level_selects_anything(self, q):
        # every risk exceeds every level: k* = 0 everywhere scores 0
        rng = np.random.default_rng(7)
        flat = np.full(q, 1.0 / q) + rng.uniform(-1e-3, 1e-3, size=(20, q))
        pairs = [(flat / flat.sum(axis=1, keepdims=True), flat[::-1].copy())] * 3
        expected = assert_scores_match_reference(pairs, np.array([0.01, 0.05]))
        assert not expected.any()

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_tied_risks(self, q):
        # rows drawn from a few posteriors, two of them with equal risk: the
        # selection order among tied risks is the stable order
        rng = np.random.default_rng(11)
        base = rng.dirichlet(np.ones(q), size=3)
        pick = np.vstack([base, base[0][::-1], np.eye(q)[0]])
        assert_scores_match_reference(score_pairs(rng, 10, 60, q, pick), level_grid(0.4))

    @pytest.mark.parametrize("q", [2, 3])
    def test_label_permutations_of_equal_gain(self, q):
        # dyadic posteriors sum exactly, so several label permutations reach
        # the same best gain to the bit
        rng = np.random.default_rng(5)
        rows = [[0.75, 0.25], [0.875, 0.125]] if q == 2 else [[0.5, 0.25, 0.25],
                                                             [0.75, 0.125, 0.125]]
        pick = [np.roll(r, s) for r in rows for s in range(q)] + [[0.5, 0.5] + [0.0] * (q - 2)]
        pairs = score_pairs(rng, 16, 10 * q, q, pick)
        # and a constructed pair: the items predicted in classes 0 and 1 carry
        # equal reference mass of both, so swapping labels 0 and 1 ties
        ref_rows = np.eye(q)
        ref_rows[:2, :2] = 0.5
        pairs.append((np.tile(0.8 * np.eye(q) + 0.2 / q, (10, 1)), np.tile(ref_rows, (10, 1))))
        assert_scores_match_reference(pairs, level_grid(0.5))


def reference_case(family, structure, d):
    """Rows and a 3-component fit of them, for the reference-posterior pins."""
    rng = np.random.default_rng(d)
    centers = 3.0 * rng.normal(size=(3, d))
    x = centers[rng.integers(0, 3, size=90)] + rng.standard_t(5, size=(90, d))
    em = fc.EmConfig(family=family, structure=structure, n_starts=2, max_iter=30)
    return x, em, fc.fit_mixture(x, 3, em, np.random.default_rng(d)).params


REFERENCE_CASES = [("gaussian", "diagonal", 2), ("student", "full", 4),
                   ("gaussian", "diagonal", 20)]


def captured_references(monkeypatch):
    """The reference posteriors of every block the scorer sees, in draw order."""
    refs, score = [], fc.bootstrap._score_block

    def spy(probs, ref, levels):
        refs.extend(ref)
        return score(probs, ref, levels)

    monkeypatch.setattr(fc.bootstrap, "_score_block", spy)
    return refs


@pytest.mark.bits
class TestReferencePosteriors:
    """A resample's reference posterior, from one stacked density pass per
    block, is the bits of ``posterior_matrix`` under the original fit on that
    resample."""

    def test_far_row_in_a_reference_raises_at_its_resample(self, monkeypatch):
        # with no refit iterations only the original fit's posterior sees a
        # row that underflows under every component: the block's reference
        # posteriors raise, and redone one resample at a time the error comes
        # at the resample where it comes one at a time
        _, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 40,
                                 np.random.default_rng(0))
        em = fc.EmConfig(structure="diagonal", n_starts=2)
        params = fc.fit_mixture(x, 2, em, np.random.default_rng(1)).params
        x = np.vstack([x, [[1e160, 0.0]]])
        rng, scored = np.random.default_rng(18), 0
        with pytest.raises(ValueError, match="too far from every mixture component") as alone:
            for _ in range(30):
                fc.posterior_matrix(params, fc.resample(x, params, "nonparametric", rng))
                scored += 1
        assert scored > 0
        refs = captured_references(monkeypatch)
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=WarmStart(0))
        with pytest.raises(ValueError) as stacked:
            fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(18))
        assert str(stacked.value) == str(alone.value)
        assert len(refs) == scored

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    @pytest.mark.parametrize("family, structure, d", REFERENCE_CASES)
    def test_stacked_reference_posteriors(self, monkeypatch, family, structure, d, mode):
        x, em, params = reference_case(family, structure, d)
        refs = captured_references(monkeypatch)
        draws, resample = [], fc.bootstrap.resample

        def counted_resample(*args):
            draws.append(resample(*args))
            return draws[-1]

        monkeypatch.setattr(fc.bootstrap, "resample", counted_resample)
        cfg = fc.BootstrapConfig(mode=mode, b=8, refit=WarmStart(2))
        fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(3))
        assert len(refs) == len(draws) == 8
        for ref, xb in zip(refs, draws):
            assert np.array_equal(ref, fc.posterior_matrix(params, xb).probs.T)


class TestChooseLevel:
    def test_boundary_all_admissible(self):
        assert choose_level(np.array([0.01, 0.02, 0.03]), 0.1) == 2

    def test_none_admissible(self):
        assert choose_level(np.array([0.2, 0.3]), 0.1) is None

    def test_direct_scan(self):
        fcr_hat = np.array([0.04, 0.08, 0.12])
        assert choose_level(fcr_hat, 0.1) == 1

    def test_level_grid_default(self):
        g = level_grid(0.1)
        assert len(g) == 25
        assert g[-1] == pytest.approx(0.1)
        assert g[0] == pytest.approx(0.1 / 25)
        assert np.all(np.diff(g) > 0)


class TestCalibration:
    def test_scan_property_and_reproducibility(self):
        _, _, x, params = fitted_pair(eps=2.0, n=120, seed=6)
        cfg = fc.BootstrapConfig(b=40, refit=WarmStart(3))
        em = fc.EmConfig(n_starts=1)
        curve1 = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(7))
        curve2 = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(7))
        np.testing.assert_array_equal(curve1.fcr_hat, curve2.fcr_hat)
        assert curve1.chosen_index == curve2.chosen_index
        if curve1.chosen_index is not None:
            assert curve1.fcr_hat[curve1.chosen_index] <= 0.1
            if curve1.chosen_index + 1 < len(curve1.levels):
                assert np.all(curve1.fcr_hat[curve1.chosen_index + 1 :] > 0.1)

    def test_grid_monotone_without_refit(self):
        # with the original fit reused on every resample the per-level values
        # are prefix means of sorted risks, hence exactly non-decreasing
        _, _, x, params = fitted_pair(eps=2.0, n=150, seed=8)
        cfg = fc.BootstrapConfig(b=30, refit=WarmStart(0))
        curve = fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1),
                                   np.random.default_rng(9))
        assert np.all(np.diff(curve.fcr_hat) >= -1e-15)

    def test_curve_range(self):
        _, _, x, params = fitted_pair(eps=1.0, n=100, seed=10)
        cfg = fc.BootstrapConfig(b=25, refit=WarmStart(5))
        curve = fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1),
                                   np.random.default_rng(11))
        assert np.all(curve.fcr_hat >= 0.0)
        assert np.all(curve.fcr_hat <= 0.5 + 1e-12)

    def test_custom_grid_validated(self):
        cfg = fc.BootstrapConfig(grid=np.array([0.1, 0.05]))
        with pytest.raises(ValueError, match="increasing"):
            cfg.validate()

    @pytest.mark.parametrize("grid", [[np.nan], [0.05, np.nan]], ids=["nan", "then_nan"])
    def test_nan_grid_level_rejected(self, grid):
        # NaN fails every comparison, so it used to pass both range checks
        with pytest.raises(ValueError, match=r"grid levels must lie in \(0, 1\)"):
            fc.BootstrapConfig(grid=grid).validate()

    @pytest.mark.parametrize("refit", [WarmStart(2), FullRefit()], ids=["warm", "full"])
    def test_data_checked_before_resampling(self, monkeypatch, refit):
        # row resampling used to read the first d columns of wider rows, and
        # fewer rows than components failed every refit or divided by zero
        _, _, x, params = fitted_pair(eps=2.0, n=60, seed=12)

        def no_resample(*args, **kwargs):
            raise AssertionError("resampled before the data were checked")

        monkeypatch.setattr(fc.bootstrap, "resample", no_resample)
        cases = [(np.hstack([x, x[:, :1]]), "data has dimension 3, expected 2"),
                 (np.empty((0, 2)), "need at least q=2 rows, got 0"),
                 (x[:1], "need at least q=2 rows, got 1")]
        for mode in fc.bootstrap.MODES:
            cfg = fc.BootstrapConfig(mode=mode, b=3, refit=refit)
            for data, message in cases:
                with pytest.raises(ValueError, match=message):
                    fc.calibrate_level(data, params, 0.1, cfg, fc.EmConfig(n_starts=1))

    @pytest.mark.parametrize("level", [1.5, 0.0])
    @pytest.mark.parametrize("grid", [None, [0.05]], ids=["calibrate_level", "one_level"])
    def test_level_checked_before_resampling(self, monkeypatch, grid, level):
        _, _, x, params = fitted_pair(eps=2.0, n=60, seed=12)

        def no_resample(*args, **kwargs):
            raise AssertionError("resampled before the level was checked")

        monkeypatch.setattr(fc.bootstrap, "resample", no_resample)
        cfg = fc.BootstrapConfig(b=3, grid=grid, refit=WarmStart(1))
        with pytest.raises(ValueError, match="alpha must lie in"):
            fc.calibrate_level(x, params, level, cfg)

    def test_negative_warm_iters_rejected(self):
        for refit, message in ((WarmStart(-1), "iters must be >= 0"),
                               (WarmStart(2.5), "iters must be >= 0 and whole"),
                               (None, "refit must be a WarmStart or a FullRefit")):
            with pytest.raises(ValueError, match=message):
                fc.BootstrapConfig(refit=refit).validate()
        fc.BootstrapConfig(refit=WarmStart(0)).validate()

    def test_csv_export(self, tmp_path):
        curve = fc.BootstrapCurve(
            levels=np.array([0.05, 0.1]), fcr_hat=np.array([0.04, 0.09]), chosen_index=1
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,fcr_hat"
        assert len(lines) == 3


def sequential_curve(x, params, levels, mode, b, refit_cfg, seed, keep_original=()):
    """fcr_hat of a calibration that refits each resample right after drawing
    it, and the warnings it would log; a resample whose refit fails, or whose
    number is in ``keep_original``, is scored under ``params``."""
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(levels))
    logged = []
    for i in range(b):
        xb = fc.resample(x, params, mode, rng)
        try:
            theta_b = fc.fit_mixture(xb, params.q, refit_cfg, rng).params
        except (ValueError, np.linalg.LinAlgError) as exc:
            logged.append(f"bootstrap refit failed ({exc}); keeping original fit")
            theta_b = params
        if i in keep_original:
            theta_b = params
        probs = fc.posterior_matrix(theta_b, xb).probs
        sums += plugin_fcr_per_level(probs, fc.posterior_matrix(params, xb).probs, levels)
    return sums / b, logged


def sequential_warm_curve(x, params, levels, mode, b, em, iters, seed):
    """fcr_hat of a warm-start calibration done one resample at a time
    through public calls, and how many refits drew a reinit."""
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(levels))
    reinits = 0
    for _ in range(b):
        xb = fc.resample(x, params, mode, rng)
        state = rng.bit_generator.state
        probs = fc.posterior_matrix(fc.em_steps(xb, params, em, iters, rng), xb).probs
        reinits += rng.bit_generator.state != state
        sums += plugin_fcr_per_level(probs, fc.posterior_matrix(params, xb).probs, levels)
    return sums / b, reinits


class TestWarmRefits:
    @pytest.mark.bits
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    @pytest.mark.parametrize("family, structure",
                             [("gaussian", "diagonal"), ("gaussian", "spherical"),
                              ("student", "full")])
    def test_matches_sequential_reference(self, mode, family, structure):
        # a refit is scored from its last E-step's responsibilities; they must
        # give what building its parameters and their posterior gives.  One
        # far row holds a component of about 1/n that a resample can empty,
        # so refits draw reinits from the shared stream
        rng = np.random.default_rng(1)
        _, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 59, rng)
        x = np.vstack([x, [[40.0, -30.0]]])
        em = fc.EmConfig(family=family, structure=structure, n_starts=2, max_iter=50)
        params = fc.fit_mixture(x, 3, em, np.random.default_rng(1)).params
        cfg = fc.BootstrapConfig(mode=mode, b=15, refit=WarmStart(10))
        curve = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(1))
        expected, reinits = sequential_warm_curve(
            x, params, curve.levels, mode, 15, em, 10, 1)
        assert np.array_equal(curve.fcr_hat, expected)
        assert reinits > 0

    @pytest.mark.parametrize("refit", [WarmStart(3), FullRefit()])
    def test_refits_build_no_mixture_params(self, monkeypatch, refit):
        # B resamples drawn, no refit builds parameters, and no resample
        # makes a posterior call: a block's reference posteriors under the
        # original fit come from one stacked density pass
        _, _, x, params = fitted_pair(eps=2.0, n=60, seed=12)
        built, posteriors, draws = [], [], []
        post_init, posterior = fc.MixtureParams.__post_init__, fc.bootstrap.posterior_matrix
        resample = fc.bootstrap.resample

        def counting_init(self):
            built.append(self)
            post_init(self)

        def counting_posterior(theta, data):
            posteriors.append(theta)
            return posterior(theta, data)

        def counting_resample(*args):
            draws.append(resample(*args))
            return draws[-1]

        monkeypatch.setattr(fc.MixtureParams, "__post_init__", counting_init)
        monkeypatch.setattr(fc.bootstrap, "posterior_matrix", counting_posterior)
        monkeypatch.setattr(fc.bootstrap, "resample", counting_resample)
        cfg = fc.BootstrapConfig(b=6, refit=refit)
        fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=2, max_iter=20),
                           np.random.default_rng(1))
        assert built == []
        assert posteriors == [] and len(draws) == 6


def far_row_fit(family, structure):
    """TestWarmRefits' input: one far row holds a component of about 1/n that
    a resample can empty, so warm refits draw reinits."""
    rng = np.random.default_rng(1)
    _, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 59, rng)
    x = np.vstack([x, [[40.0, -30.0]]])
    em = fc.EmConfig(family=family, structure=structure, n_starts=2, max_iter=50)
    return x, em, fc.fit_mixture(x, 3, em, np.random.default_rng(1)).params


def warm_stacks(monkeypatch):
    """Per warm stack of several runs: its size and which of its runs drew a reinit."""
    stacks, warm_runs = [], fc.bootstrap._warm_runs

    def spy(x, theta, dof, cfg, n_iter, known, streams):
        runs = warm_runs(x, theta, dof, cfg, n_iter, known, streams)
        if len(runs) > 1:
            stacks.append((len(runs), [i for i, s in enumerate(streams) if s.drew]))
        return runs

    monkeypatch.setattr(fc.bootstrap, "_warm_runs", spy)
    return stacks


class TestSpeculativeWarmStacks:
    """Warm refits stack blocks of resamples on the guess that they draw no
    reinit; the curve is the one-at-a-time curve."""

    @pytest.mark.bits
    def test_reinit_positions_match_sequential_reference(self, monkeypatch):
        # blocks of at most four resamples: the first reinit of a block falls
        # at its first, a middle and its last position, and a block has two
        x, em, params = far_row_fit("gaussian", "diagonal")
        monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 4 * 60 * 3 * 3)
        stacks = warm_stacks(monkeypatch)
        cfg = fc.BootstrapConfig(mode="nonparametric", b=40, refit=WarmStart(10))
        curve = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(2))
        expected, _ = sequential_warm_curve(
            x, params, curve.levels, "nonparametric", 40, em, 10, 2)
        assert np.array_equal(curve.fcr_hat, expected)
        firsts = [(m, drew[0]) for m, drew in stacks if drew]
        assert any(k == 0 for _, k in firsts)
        assert any(0 < k < m - 1 for m, k in firsts)
        assert any(m > 2 and k == m - 1 for m, k in firsts)
        assert any(len(drew) > 1 for _, drew in stacks)
        assert max(m for m, _ in stacks) == 4

    @pytest.mark.bits
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    @pytest.mark.parametrize("family, structure",
                             [("gaussian", "diagonal"), ("student", "full")])
    def test_blocks_match_sequential_reference(self, monkeypatch, mode, family, structure):
        x, em, params = far_row_fit(family, structure)
        monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 4 * 60 * 3 * 3)
        stacks = warm_stacks(monkeypatch)
        cfg = fc.BootstrapConfig(mode=mode, b=40, refit=WarmStart(10))
        curve = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(2))
        expected, reinits = sequential_warm_curve(
            x, params, curve.levels, mode, 40, em, 10, 2)
        assert np.array_equal(curve.fcr_hat, expected)
        if (family, mode) == ("student", "nonparametric"):
            # every refit draws a reinit, so the first block, at the bound,
            # keeps only its first resample and every later block holds one
            assert reinits == 40 and stacks == [(4, [0, 1, 2, 3])]
        else:
            assert 0 < reinits < 40 and stacks

    @pytest.mark.bits
    def test_no_iterations_matches_sequential_reference(self):
        x, em, params = far_row_fit("gaussian", "diagonal")
        cfg = fc.BootstrapConfig(mode="nonparametric", b=20, refit=WarmStart(0))
        curve = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(2))
        expected, reinits = sequential_warm_curve(
            x, params, curve.levels, "nonparametric", 20, em, 0, 2)
        assert np.array_equal(curve.fcr_hat, expected)
        assert reinits == 0

    @pytest.mark.bits
    def test_far_row_in_a_stack_raises_at_its_resample(self, monkeypatch, caplog):
        # a row whose density underflows under every component ends the whole
        # stack it is in; its resamples are redone one at a time, and the
        # error comes at the resample where it comes one at a time, after the
        # same warnings
        _, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 40,
                                 np.random.default_rng(0))
        em = fc.EmConfig(structure="diagonal", n_starts=2)
        params = fc.fit_mixture(x, 2, em, np.random.default_rng(1)).params
        x = np.vstack([x, [[1e160, 0.0]]])
        rng, draws = np.random.default_rng(18), []
        with pytest.raises(ValueError, match="too far from every mixture component") as alone:
            for _ in range(30):
                draws.append(fc.resample(x, params, "nonparametric", rng))
                fc.em_steps(draws[-1], params, em, 5, rng)
        assert len(draws) == 5

        best, resample, warm_runs = (
            fc.bootstrap._best, fc.bootstrap.resample, fc.bootstrap._warm_runs)
        fits, drawn, raised = [], [], []

        def failing_best(runs):  # the fourth refit fails: one warning
            fits.append(None)
            if len(fits) == 4:
                raise np.linalg.LinAlgError("boom")
            return best(runs)

        def counted_resample(*args):
            drawn.append(resample(*args))
            return drawn[-1]

        def spy(x, theta, dof, cfg, n_iter, known, streams):
            try:
                return warm_runs(x, theta, dof, cfg, n_iter, known, streams)
            except ValueError:
                raised.append(len(streams))
                raise

        monkeypatch.setattr(fc.bootstrap, "_best", failing_best)
        monkeypatch.setattr(fc.bootstrap, "resample", counted_resample)
        monkeypatch.setattr(fc.bootstrap, "_warm_runs", spy)
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=WarmStart(5))
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            with pytest.raises(ValueError) as stacked:
                fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(18))
        assert str(stacked.value) == str(alone.value)
        assert len(drawn) == 30 and np.array_equal(drawn[len(draws) - 1], draws[-1])
        assert caplog.messages == ["bootstrap refit failed (boom); keeping original fit"]
        # the first block, all 30; then, one at a time, each of its resamples
        # that holds the far row
        assert raised == [30] + [1] * sum(bool((xb[:, 0] == 1e160).any()) for xb in drawn)

    @pytest.mark.bits
    def test_stack_error_after_a_reinit_redoes_runs_alone(self, monkeypatch):
        # a stack that raises is redone one resample at a time on its streams
        # rewound, its runs after the first reinit are dropped, and stacking
        # resumes after that reinit
        x, em, params = far_row_fit("gaussian", "diagonal")
        sizes, firsts, warm_runs = [], [], fc.bootstrap._warm_runs

        def spy(x, theta, dof, cfg, n_iter, known, streams):
            runs = warm_runs(x, theta, dof, cfg, n_iter, known, streams)
            sizes.append(len(runs))
            if len(sizes) == 1:
                firsts.append(next(i for i, s in enumerate(streams) if s.drew))
                raise ValueError("stack failed after its runs")
            return runs

        monkeypatch.setattr(fc.bootstrap, "_warm_runs", spy)
        cfg = fc.BootstrapConfig(mode="nonparametric", b=40, refit=WarmStart(10))
        curve = fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(2))
        expected, _ = sequential_warm_curve(
            x, params, curve.levels, "nonparametric", 40, em, 10, 2)
        assert np.array_equal(curve.fcr_hat, expected)
        (k,) = firsts
        assert sizes[:41] == [40] + [1] * 40 and k < 39
        assert max(sizes[41:]) > 1

    def test_calibration_iterates_warm_stacks(self, monkeypatch):
        _, _, x, params = fitted_pair(eps=2.0, n=80, seed=17)
        stacks = warm_stacks(monkeypatch)
        cfg = fc.BootstrapConfig(b=30, refit=WarmStart(5))
        fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1),
                           np.random.default_rng(3))
        assert stacks


class TestStackedRefits:
    """Full refits iterate as EM stacks; the curve is the one-at-a-time curve."""

    @pytest.mark.bits
    @pytest.mark.parametrize("blocks", ["one", "several"])
    @pytest.mark.parametrize("n_starts", [1, 2])
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_matches_sequential_reference(self, monkeypatch, mode, n_starts, blocks):
        _, _, x, params = fitted_pair(eps=2.0, n=80, seed=17)
        if blocks == "several":  # three resamples per block
            monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 3 * n_starts * 80 * 4)
        refit_cfg = fc.EmConfig(structure="diagonal", n_starts=n_starts, max_iter=30)
        cfg = fc.BootstrapConfig(mode=mode, b=10, refit=FullRefit(refit_cfg))
        curve = fc.calibrate_level(x, params, 0.1, cfg, rng=np.random.default_rng(18))
        expected, _ = sequential_curve(x, params, curve.levels, mode, 10, refit_cfg, 18)
        assert np.array_equal(curve.fcr_hat, expected)

    def test_start_failures_keep_original_fit(self, monkeypatch, caplog):
        # exactly q distinct rows: a resample that draws one of them only has
        # too few distinct rows for k-means++, so its refit fails at its start
        # and the original fit stands in, with no further draw
        x = np.array([[0.0, 0.0]] * 2 + [[3.0, 1.0]] * 2)
        em = fc.EmConfig(structure="known", known_covariances=(np.eye(2), 2.0 * np.eye(2)),
                         n_starts=2, max_iter=20)
        params = fc.fit_mixture(x, 2, em, np.random.default_rng(0)).params
        resample, draws = fc.bootstrap.resample, []

        def counted_resample(*args):
            draws.append(resample(*args))
            return draws[-1]

        monkeypatch.setattr(fc.bootstrap, "resample", counted_resample)
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=FullRefit())
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            curve = fc.calibrate_level(x, params, 0.2, cfg, em, np.random.default_rng(0))
        expected, logged = sequential_curve(x, params, curve.levels, "nonparametric",
                                            30, em, 0)
        assert np.array_equal(curve.fcr_hat, expected)
        assert caplog.messages == logged
        assert len(draws) == 30
        failed = sum(len(np.unique(xb, axis=0)) < 2 for xb in draws)
        assert failed > 0
        assert caplog.messages == [
            "bootstrap refit failed (need at least q=2 distinct rows); keeping original fit"
        ] * failed

    def test_duplicate_rows_refit_without_late_failures(self, caplog):
        # duplicate rows: refits used to end on identical components, which
        # only building their parameters detected; EM now re-seeds them
        rng = np.random.default_rng(23)
        x = np.vstack([3.0 * rng.normal(size=(3, 2))[rng.integers(0, 3, 12)],
                       rng.normal(size=(2, 2))])
        em = fc.EmConfig(structure="spherical", n_starts=2, max_iter=30)
        params = fc.fit_mixture(x, 3, em, np.random.default_rng(23)).params
        cfg = fc.BootstrapConfig(mode="nonparametric", b=20, refit=FullRefit())
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            curve = fc.calibrate_level(x, params, 0.2, cfg, em, np.random.default_rng(23))
        expected, logged = sequential_curve(x, params, curve.levels, "nonparametric",
                                            20, em, 23)
        assert np.array_equal(curve.fcr_hat, expected)
        assert caplog.messages == logged
        assert not any("identical" in m for m in logged)

    def test_block_size_does_not_move_the_curve(self, monkeypatch):
        # 8 rows from 3 points plus noise: refits that failed late were
        # retried after their block, so fcr_hat moved with the block size
        rng = np.random.default_rng(3)
        x = np.vstack([3.0 * rng.normal(size=(3, 2))[rng.integers(0, 3, 6)],
                       rng.normal(size=(2, 2))])
        em = fc.EmConfig(structure="spherical", n_starts=2, max_iter=30)
        params = fc.fit_mixture(x, 3, em, np.random.default_rng(3)).params
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=FullRefit())
        curve = fc.calibrate_level(x, params, 0.2, cfg, em, np.random.default_rng(3))
        monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 1)
        alone = fc.calibrate_level(x, params, 0.2, cfg, em, np.random.default_rng(3))
        assert np.array_equal(curve.fcr_hat, alone.fcr_hat)

    @pytest.mark.bits
    def test_raised_block_redoes_its_refits_on_their_spawn_keys(self, monkeypatch, caplog):
        # the reference posteriors of a far row raise in the first block,
        # whose refits run once, each on the streams spawned for its resample,
        # with the warnings and error of one at a time
        _, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 40,
                                 np.random.default_rng(0))
        em = fc.EmConfig(structure="diagonal", n_starts=2)
        params = fc.fit_mixture(x, 2, em, np.random.default_rng(1)).params
        x = np.vstack([x, [[1e160, 0.0]]])
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=FullRefit(
            fc.EmConfig(structure="diagonal", n_starts=1)))
        fit_runs = fc.em._fit_runs

        def run(budget):
            pairs, calls = set(), []

            def spy(xr, q, refit_cfg, known, streams):
                xr = np.broadcast_to(xr, (len(streams), *xr.shape[-2:]))
                pairs.update((g.bit_generator.seed_seq.spawn_key, xb.tobytes())
                             for g, xb in zip(streams, xr))
                calls.append(len(streams))
                return fit_runs(xr, q, refit_cfg, known, streams)

            monkeypatch.setattr(fc.em, "_fit_runs", spy)
            if budget is not None:
                monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", budget)
            caplog.clear()
            with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
                with pytest.raises(ValueError, match="too far from every") as error:
                    fc.calibrate_level(x, params, 0.1, cfg, rng=np.random.default_rng(18))
            return pairs, calls, list(caplog.messages), str(error.value)

        pairs, calls, logged, error = run(None)
        alone_pairs, alone_calls, alone_logged, alone_error = run(1)
        assert calls[0] == 30 and set(alone_calls) == {1}
        assert (logged, error) == (alone_logged, alone_error)
        assert any("rows lie too far apart" in m for m in logged)
        # every spawn key goes with one resample, the one it goes with alone
        assert len({key for key, _ in pairs}) == len({xb for _, xb in pairs}) == len(pairs)
        assert alone_pairs <= pairs

    @pytest.mark.bits
    def test_refit_raising_inside_em_raises_at_its_resample(self, monkeypatch, caplog):
        # exactly q distinct rows: some refits fail at their start, each with a
        # warning; a later resample's refit raises inside EM (the E-step,
        # stubbed on that resample's rows), which ends the stack it is in.
        # The error stays fatal and comes at that resample, with the same
        # warnings and scores before it as at one resample per block
        x = np.array([[0.0, 0.0]] * 2 + [[3.0, 1.0]] * 2)
        em = fc.EmConfig(structure="known", known_covariances=(np.eye(2), 2.0 * np.eye(2)),
                         n_starts=2, max_iter=20)
        params = fc.fit_mixture(x, 2, em, np.random.default_rng(0)).params
        rng = np.random.default_rng(0)
        draws = [fc.resample(x, params, "nonparametric", rng) for _ in range(30)]
        keys = [xb.tobytes() for xb in draws]
        failed = [len(np.unique(xb, axis=0)) < 2 for xb in draws]
        bad = next(i for i in range(30)
                   if any(failed[:i]) and not failed[i] and keys.count(keys[i]) == 1)
        e_step, fit_runs, score = fc.em._e_step, fc.em._fit_runs, fc.bootstrap._score_block

        def raising(theta, dof, xr):
            if any(xb.tobytes() == keys[bad] for xb in xr):
                raise ValueError("E-step failed")
            return e_step(theta, dof, xr)

        def run(budget):
            pairs, calls, scored = set(), [], []

            def spy(xr, q, refit_cfg, known, streams):
                xr = np.broadcast_to(xr, (len(streams), *xr.shape[-2:]))
                pairs.update((g.bit_generator.seed_seq.spawn_key, xb.tobytes())
                             for g, xb in zip(streams, xr))
                calls.append(len(streams))
                return fit_runs(xr, q, refit_cfg, known, streams)

            def counted_score(probs, ref, levels):
                scored.extend(zip(probs, ref))
                return score(probs, ref, levels)

            monkeypatch.setattr(fc.em, "_e_step", raising)
            monkeypatch.setattr(fc.em, "_fit_runs", spy)
            monkeypatch.setattr(fc.bootstrap, "_score_block", counted_score)
            if budget is not None:
                monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", budget)
            caplog.clear()
            cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=FullRefit())
            with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
                with pytest.raises(ValueError, match="E-step failed") as error:
                    fc.calibrate_level(x, params, 0.2, cfg, em, np.random.default_rng(0))
            return pairs, calls, list(caplog.messages), scored, error.value

        pairs, calls, logged, scored, error = run(None)
        alone_pairs, alone_calls, alone_logged, alone_scored, alone_error = run(1)
        assert calls[0] == 30 * 2 and set(alone_calls) == {2}
        assert type(error) is type(alone_error) and str(error) == str(alone_error)
        assert logged == alone_logged == [
            "bootstrap refit failed (need at least q=2 distinct rows); keeping original fit"
        ] * sum(failed[:bad])
        assert len(scored) == len(alone_scored) == bad
        for (p, r), (p_alone, r_alone) in zip(scored, alone_scored):
            assert np.array_equal(p, p_alone) and np.array_equal(r, r_alone)
        # every spawn key goes with one resample, the one it goes with alone
        assert len({key for key, _ in pairs}) == len(pairs)
        assert alone_pairs <= pairs

    @pytest.mark.parametrize("blocks", ["one", "several"])
    def test_late_failure_keeps_original_fit(self, monkeypatch, caplog, blocks):
        # a refit that fails after its starts is scored under the original
        # fit, with one warning, and draws no further resample
        _, _, x, params = fitted_pair(eps=2.0, n=80, seed=17)
        if blocks == "several":  # three resamples per block
            monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 3 * 2 * 80 * 4)
        best, resample = fc.bootstrap._best, fc.bootstrap.resample
        fits, draws = [], []

        def failing_best(runs):
            fits.append(None)
            if len(fits) == 5:
                raise np.linalg.LinAlgError("boom")
            return best(runs)

        def counted_resample(*args):
            draws.append(None)
            return resample(*args)

        monkeypatch.setattr(fc.bootstrap, "_best", failing_best)
        monkeypatch.setattr(fc.bootstrap, "resample", counted_resample)
        refit_cfg = fc.EmConfig(structure="diagonal", n_starts=2, max_iter=30)
        cfg = fc.BootstrapConfig(mode="parametric", b=10, refit=FullRefit(refit_cfg))
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            curve = fc.calibrate_level(x, params, 0.1, cfg, rng=np.random.default_rng(18))
        assert caplog.messages == ["bootstrap refit failed (boom); keeping original fit"]
        assert len(draws) == 10
        expected, _ = sequential_curve(x, params, curve.levels, "parametric", 10,
                                       refit_cfg, 18, keep_original=(4,))
        assert np.array_equal(curve.fcr_hat, expected)

    @pytest.mark.parametrize("grid", [None, [0.05]], ids=["calibrate_level", "one_level"])
    def test_refit_config_checked_before_resampling(self, monkeypatch, grid):
        # an invalid refit config used to fail every refit, each falling back
        # to the original fit, so nothing was refitted and nothing raised
        _, _, x, params = fitted_pair(eps=2.0, n=60, seed=12)

        def no_resample(*args, **kwargs):
            raise AssertionError("resampled before the refit config was checked")

        monkeypatch.setattr(fc.bootstrap, "resample", no_resample)
        cases = [
            (FullRefit(fc.EmConfig(n_starts=0)), None, "n_starts must be >= 1"),
            (FullRefit(), fc.EmConfig(max_iter=0), "max_iter must be >= 1"),
            (FullRefit(fc.EmConfig(n_starts=2.5)), None, "n_starts must be >= 1 and whole"),
            (FullRefit(), fc.EmConfig(max_iter=2.5), "max_iter must be >= 1 and whole"),
            (FullRefit(fc.EmConfig(structure="known", known_covariances=(np.eye(2),))),
             None, "known_covariances must hold q=2 matrices"),
            (None, None, "refit must be a WarmStart or a FullRefit"),
            (WarmStart(2.5), None, "iters must be >= 0 and whole"),
        ]
        for refit, em, message in cases:
            cfg = fc.BootstrapConfig(b=3, grid=grid, refit=refit)
            with pytest.raises(ValueError, match=message):
                fc.calibrate_level(x, params, 0.1, cfg, em)


class TestBootstrapProcedure:
    def test_single_component_selects_everything(self):
        x = np.random.default_rng(0).normal(size=(60, 1))
        cfg = fc.BootstrapConfig(b=10, refit=WarmStart(2))
        sc = fc.bootstrap_procedure(x, 1, 0.05, fc.EmConfig(n_starts=1), cfg,
                                    np.random.default_rng(1))
        assert sc.selection.k_star == 60
        assert np.all(sc.labels == 0)

    def test_single_point_grid_matches_plugin(self):
        _, _, x, params = fitted_pair(eps=4.0, n=150, seed=12)
        em = fc.EmConfig(n_starts=1)
        cfg = fc.BootstrapConfig(b=30, grid=np.array([0.1]), refit=WarmStart(5))
        rng = np.random.default_rng(13)
        fit = fc.fit_mixture(x, 2, em, rng)
        curve = fc.calibrate_level(x, fit.params, 0.1, cfg, em, rng)
        assert curve.chosen_index == 0  # separated case: estimate below alpha
        post = fc.posterior_matrix(fit.params, x)
        sc = clustering_at_calibrated_level(post, 0.1, curve)
        plugin = fc.select_and_label(post, 0.1)
        np.testing.assert_array_equal(sc.selection.selected, plugin.selection.selected)
        np.testing.assert_array_equal(sc.labels, plugin.labels)

    def test_no_admissible_level_keeps_labels_empty_selection(self):
        _, _, x, params = fitted_pair(eps=2.0, n=100, seed=14)
        curve = fc.BootstrapCurve(
            levels=np.array([0.05, 0.1]), fcr_hat=np.array([0.2, 0.3]), chosen_index=None
        )
        post = fc.posterior_matrix(params, x)
        sc = clustering_at_calibrated_level(post, 0.1, curve)
        assert sc.selection.k_star == 0
        assert sc.labels.shape == (100,)
        np.testing.assert_array_equal(sc.labels, fc.map_labels(post))

    def test_calibrated_selection_nested_in_plugin(self):
        # chosen level is at most alpha, so the calibrated selection is a
        # subset of the plug-in selection at alpha (same fit, same risks)
        truth = fc.gaussian_separation_truth(2, 2, 1.0)
        em = fc.EmConfig(structure="diagonal", n_starts=3)
        cfg = fc.BootstrapConfig(b=25, refit=WarmStart(10))
        for rep in range(5):
            rng = np.random.default_rng(np.random.SeedSequence([21, rep]))
            _, x = fc.sample_mixture(truth, 120, rng)
            fit = fc.fit_mixture(x, 2, em, rng)
            curve = fc.calibrate_level(x, fit.params, 0.1, cfg, em, rng)
            post = fc.posterior_matrix(fit.params, x)
            sc = clustering_at_calibrated_level(post, 0.1, curve)
            plugin = fc.select_and_label(post, 0.1)
            assert set(sc.selection.selected.tolist()) <= set(
                plugin.selection.selected.tolist()
            )

    def test_full_refit_runs(self):
        _, _, x, _ = fitted_pair(eps=3.0, n=80, seed=15)
        em = fc.EmConfig(n_starts=2, max_iter=30)
        cfg = fc.BootstrapConfig(b=8, refit=FullRefit())
        sc = fc.bootstrap_procedure(x, 2, 0.1, em, cfg, np.random.default_rng(16))
        assert sc.labels.shape == (80,)
