import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.bootstrap import (
    FullRefit,
    WarmStart,
    choose_level,
    clustering_at_calibrated_level,
    level_grid,
    write_curve_csv,
)
from fcrcluster.bootstrap import _plugin_fcr_per_level


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
        cfg = fc.BootstrapConfig(b=5, refit=WarmStart(0), seed=1)
        val = fc.bootstrap_fcr(x, params, 0.1, cfg, fc.EmConfig(n_starts=1))
        assert val == 0.0

    def test_identity_resample_reduces_to_plugin_risk_average(self):
        # one resample equal to the data, no refit: the estimator equals the
        # mean selected risk of the plug-in on the original data
        _, _, x, params = fitted_pair(eps=2.0, n=150, seed=3)
        post = fc.posterior_matrix(params, x)
        labels = fc.map_labels(post)
        for alpha in (0.05, 0.1, 0.2):
            vals = _plugin_fcr_per_level(
                post.t_values, labels, post.probs, np.array([alpha])
            )
            sel = fc.cumulative_select(post.t_values, alpha)
            expected = (
                post.t_values[sel.selected].mean() if sel.k_star else 0.0
            )
            assert vals[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_separated_case_small_estimate(self):
        _, _, x, params = fitted_pair(eps=4.0, n=200, seed=4)
        cfg = fc.BootstrapConfig(b=80, refit=WarmStart(5), seed=5)
        val = fc.bootstrap_fcr(x, params, 0.1, cfg, fc.EmConfig(n_starts=1))
        assert val < 0.05


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

    def test_level_grid_extension(self):
        g = level_grid(0.1, size=10, max_factor=1.5)
        assert g[-1] == pytest.approx(0.15)


class TestCalibration:
    def test_scan_property_and_reproducibility(self):
        _, _, x, params = fitted_pair(eps=2.0, n=120, seed=6)
        cfg = fc.BootstrapConfig(b=40, refit=WarmStart(3), seed=7)
        em = fc.EmConfig(n_starts=1)
        curve1 = fc.calibrate_level(x, params, 0.1, cfg, em)
        curve2 = fc.calibrate_level(x, params, 0.1, cfg, em)
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
        cfg = fc.BootstrapConfig(b=30, refit=WarmStart(0), seed=9)
        curve = fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1))
        assert np.all(np.diff(curve.fcr_hat) >= -1e-15)

    def test_curve_range(self):
        _, _, x, params = fitted_pair(eps=1.0, n=100, seed=10)
        cfg = fc.BootstrapConfig(b=25, refit=WarmStart(5), seed=11)
        curve = fc.calibrate_level(x, params, 0.1, cfg, fc.EmConfig(n_starts=1))
        assert np.all(curve.fcr_hat >= 0.0)
        assert np.all(curve.fcr_hat <= 0.5 + 1e-12)

    def test_custom_grid_validated(self):
        cfg = fc.BootstrapConfig(grid=np.array([0.1, 0.05]))
        with pytest.raises(ValueError, match="increasing"):
            cfg.validate()

    @pytest.mark.parametrize("level", [1.5, 0.0])
    @pytest.mark.parametrize("estimate", [fc.calibrate_level, fc.bootstrap_fcr])
    def test_level_checked_before_resampling(self, monkeypatch, estimate, level):
        _, _, x, params = fitted_pair(eps=2.0, n=60, seed=12)

        def no_resample(*args, **kwargs):
            raise AssertionError("resampled before the level was checked")

        monkeypatch.setattr(fc.bootstrap, "resample", no_resample)
        cfg = fc.BootstrapConfig(b=3, refit=WarmStart(1), seed=1)
        with pytest.raises(ValueError, match="alpha must lie in"):
            estimate(x, params, level, cfg)

    def test_negative_warm_iters_rejected(self):
        with pytest.raises(ValueError, match="iters must be >= 0"):
            fc.BootstrapConfig(refit=WarmStart(-1)).validate()
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
    it, retrying a failed refit once, and the warnings it would log; the
    resamples numbered in ``keep_original`` are scored under ``params``."""
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(levels))
    logged = []
    for i in range(b):
        for attempt in range(2):
            xb = fc.resample(x, params, mode, rng)
            try:
                theta_b = fc.fit_mixture(xb, params.q, refit_cfg, rng).params
                break
            except (ValueError, np.linalg.LinAlgError) as exc:
                if attempt == 0:
                    logged.append(f"bootstrap refit failed ({exc}); retrying once")
                else:
                    logged.append(
                        f"bootstrap refit failed twice ({exc}); keeping original fit")
                    theta_b = params
        if i in keep_original:
            theta_b = params
        post = fc.posterior_matrix(theta_b, xb)
        ref_probs = fc.posterior_matrix(params, xb).probs
        sums += _plugin_fcr_per_level(post.t_values, fc.map_labels(post), ref_probs, levels)
    return sums / b, logged


class TestStackedRefits:
    """Full refits iterate as EM stacks; the curve is the one-at-a-time curve."""

    @pytest.mark.parametrize("blocks", ["one", "several"])
    @pytest.mark.parametrize("n_starts", [1, 2])
    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_matches_sequential_reference(self, monkeypatch, mode, n_starts, blocks):
        _, _, x, params = fitted_pair(eps=2.0, n=80, seed=17)
        if blocks == "several":  # three resamples per block
            monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 3 * n_starts * 80 * 4)
        refit_cfg = fc.EmConfig(structure="diagonal", n_starts=n_starts, max_iter=30)
        cfg = fc.BootstrapConfig(mode=mode, b=10, refit=FullRefit(refit_cfg), seed=18)
        curve = fc.calibrate_level(x, params, 0.1, cfg)
        expected, _ = sequential_curve(x, params, curve.levels, mode, 10, refit_cfg, 18)
        assert np.array_equal(curve.fcr_hat, expected)

    def test_retries_match_sequential_reference(self, caplog):
        # exactly q distinct rows: a resample that draws one of them only has
        # too few distinct rows for k-means++, so its refit fails and is retried
        x = np.array([[0.0, 0.0]] * 2 + [[3.0, 1.0]] * 2)
        em = fc.EmConfig(structure="known", known_covariances=(np.eye(2), 2.0 * np.eye(2)),
                         n_starts=2, max_iter=20)
        params = fc.fit_mixture(x, 2, em, np.random.default_rng(0)).params
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=FullRefit(), seed=0)
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            curve = fc.calibrate_level(x, params, 0.2, cfg, em)
        expected, logged = sequential_curve(x, params, curve.levels, "nonparametric",
                                            30, em, 0)
        assert np.array_equal(curve.fcr_hat, expected)
        assert caplog.messages == logged
        assert any("retrying once" in m for m in logged)
        assert any("failed twice" in m for m in logged)

    def test_duplicate_rows_refit_without_late_failures(self, caplog):
        # duplicate rows: refits used to end on identical components, which
        # only building their parameters detected; EM now re-seeds them
        rng = np.random.default_rng(23)
        x = np.vstack([3.0 * rng.normal(size=(3, 2))[rng.integers(0, 3, 12)],
                       rng.normal(size=(2, 2))])
        em = fc.EmConfig(structure="spherical", n_starts=2, max_iter=30)
        params = fc.fit_mixture(x, 3, em, np.random.default_rng(23)).params
        cfg = fc.BootstrapConfig(mode="nonparametric", b=20, refit=FullRefit(), seed=23)
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            curve = fc.calibrate_level(x, params, 0.2, cfg, em)
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
        cfg = fc.BootstrapConfig(mode="nonparametric", b=30, refit=FullRefit(), seed=3)
        curve = fc.calibrate_level(x, params, 0.2, cfg, em)
        monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 1)
        alone = fc.calibrate_level(x, params, 0.2, cfg, em)
        assert np.array_equal(curve.fcr_hat, alone.fcr_hat)

    @pytest.mark.parametrize("blocks", ["one", "several"])
    def test_late_failure_keeps_original_fit(self, monkeypatch, caplog, blocks):
        # a refit that fails after its starts is scored under the original
        # fit, with one warning, and draws no further resample
        _, _, x, params = fitted_pair(eps=2.0, n=80, seed=17)
        if blocks == "several":  # three resamples per block
            monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 3 * 2 * 80 * 4)
        best, resample = fc.bootstrap._best, fc.bootstrap.resample
        fits, draws = [], []

        def failing_best(runs, cfg):
            fits.append(None)
            if len(fits) == 5:
                raise np.linalg.LinAlgError("boom")
            return best(runs, cfg)

        def counted_resample(*args):
            draws.append(None)
            return resample(*args)

        monkeypatch.setattr(fc.bootstrap, "_best", failing_best)
        monkeypatch.setattr(fc.bootstrap, "resample", counted_resample)
        refit_cfg = fc.EmConfig(structure="diagonal", n_starts=2, max_iter=30)
        cfg = fc.BootstrapConfig(mode="parametric", b=10, refit=FullRefit(refit_cfg), seed=18)
        with caplog.at_level("WARNING", logger="fcrcluster.bootstrap"):
            curve = fc.calibrate_level(x, params, 0.1, cfg)
        assert caplog.messages == ["bootstrap refit failed (boom); keeping original fit"]
        assert len(draws) == 10
        expected, _ = sequential_curve(x, params, curve.levels, "parametric", 10,
                                       refit_cfg, 18, keep_original=(4,))
        assert np.array_equal(curve.fcr_hat, expected)

    @pytest.mark.parametrize("estimate", [fc.calibrate_level, fc.bootstrap_fcr])
    def test_refit_config_checked_before_resampling(self, monkeypatch, estimate):
        # an invalid refit config used to fail every refit, each falling back
        # to the original fit, so nothing was refitted and nothing raised
        _, _, x, params = fitted_pair(eps=2.0, n=60, seed=12)

        def no_resample(*args, **kwargs):
            raise AssertionError("resampled before the refit config was checked")

        monkeypatch.setattr(fc.bootstrap, "resample", no_resample)
        cases = [
            (FullRefit(fc.EmConfig(n_starts=0)), None, "n_starts must be >= 1"),
            (FullRefit(), fc.EmConfig(max_iter=0), "max_iter must be >= 1"),
            (FullRefit(fc.EmConfig(structure="known", known_covariances=(np.eye(2),))),
             None, "known_covariances must hold q=2 matrices"),
        ]
        for refit, em, message in cases:
            cfg = fc.BootstrapConfig(b=3, refit=refit, seed=1)
            with pytest.raises(ValueError, match=message):
                estimate(x, params, 0.1, cfg, em)


class TestBootstrapProcedure:
    def test_single_component_selects_everything(self):
        x = np.random.default_rng(0).normal(size=(60, 1))
        cfg = fc.BootstrapConfig(b=10, refit=WarmStart(2), seed=1)
        sc = fc.bootstrap_procedure(x, 1, 0.05, fc.EmConfig(n_starts=1), cfg)
        assert sc.selection.k_star == 60
        assert np.all(sc.labels == 0)

    def test_single_point_grid_matches_plugin(self):
        _, _, x, params = fitted_pair(eps=4.0, n=150, seed=12)
        em = fc.EmConfig(n_starts=1, seed=33)
        cfg = fc.BootstrapConfig(
            b=30, grid=np.array([0.1]), refit=WarmStart(5), seed=13
        )
        rng = np.random.default_rng(13)
        fit = fc.fit_mixture(x, 2, em, rng)
        curve = fc.calibrate_level(x, fit.params, 0.1, cfg, em, rng)
        assert curve.chosen_index == 0  # separated case: estimate below alpha
        sc = clustering_at_calibrated_level(fit.params, x, 0.1, curve)
        plugin = fc.select_and_label(fc.posterior_matrix(fit.params, x), 0.1)
        np.testing.assert_array_equal(sc.selection.selected, plugin.selection.selected)
        np.testing.assert_array_equal(sc.labels, plugin.labels)

    def test_no_admissible_level_keeps_labels_empty_selection(self):
        _, _, x, params = fitted_pair(eps=2.0, n=100, seed=14)
        curve = fc.BootstrapCurve(
            levels=np.array([0.05, 0.1]), fcr_hat=np.array([0.2, 0.3]), chosen_index=None
        )
        sc = clustering_at_calibrated_level(params, x, 0.1, curve)
        assert sc.selection.k_star == 0
        assert sc.labels.shape == (100,)
        post = fc.posterior_matrix(params, x)
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
            sc = clustering_at_calibrated_level(fit.params, x, 0.1, curve)
            plugin = fc.select_and_label(fc.posterior_matrix(fit.params, x), 0.1)
            assert set(sc.selection.selected.tolist()) <= set(
                plugin.selection.selected.tolist()
            )

    def test_full_refit_runs(self):
        _, _, x, _ = fitted_pair(eps=3.0, n=80, seed=15)
        em = fc.EmConfig(n_starts=2, max_iter=30)
        cfg = fc.BootstrapConfig(b=8, refit=FullRefit(), seed=16)
        sc = fc.bootstrap_procedure(x, 2, 0.1, em, cfg)
        assert sc.labels.shape == (80,)
