"""Label-switching-invariant scoring and Monte-Carlo oracle curves.

Mixture components are identifiable only up to a permutation of the labels,
so every score here minimizes over all relabelings of the predictions.  The
permutation search is exhaustive for Q <= 8, which keeps it usable as an
independent oracle for the assignment-solver route used in the bootstrap;
above that, scoring takes the assignment-solver route too.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr

from .mixtures import (
    GAUSSIAN,
    MixtureParams,
    posterior_matrix,
    sample_mixture,
)

MAX_EXHAUSTIVE_Q = 8


@dataclass(frozen=True, eq=False)
class FcrReport:
    """Sample FCR of a selective clustering against reference labels."""

    sample_fcr: float
    selection_frequency: float
    best_perm: tuple[int, ...]
    n_selected: int
    n_errors_at_best_perm: int


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte-Carlo estimate with its standard error and sample size."""

    estimate: float
    se: float
    size: int

    def __float__(self) -> float:
        return self.estimate


@dataclass(frozen=True, eq=False)
class OracleCurve:
    """Monte-Carlo estimate of the selective risk curve of thresholding T.

    ``mfcr_values[j]`` estimates the mean MAP risk conditional on the risk
    falling below ``t_grid[j]``; ``t_star`` is the largest threshold keeping
    that conditional mean at or below the requested level, ``alpha_c`` and
    ``alpha_bar`` the endpoints of the level range the curve can serve.
    """

    t_grid: np.ndarray
    mfcr_values: np.ndarray
    mfcr_ses: np.ndarray
    t_star: float
    alpha_c: float
    alpha_bar: float
    mc_size: int


def _as_labels(values, n: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("label vectors must be 1-d")
    if n is not None and arr.size != n:
        raise ValueError("label vectors must have equal length")
    if arr.size and arr.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return arr


def best_permutation(true_labels, pred_labels, selection) -> tuple[tuple[int, ...], int]:
    """Relabeling of the predictions minimizing errors on the selected set.

    Returns ``(perm, error_count)`` where ``perm[c]`` is the class that
    predicted class ``c`` maps to.  Exhaustive over all Q! permutations up to
    ``MAX_EXHAUSTIVE_Q``, ties resolving to the lexicographically smallest
    permutation; above it the assignment solver finds an optimal relabeling.
    """
    true_arr = _as_labels(true_labels)
    pred_arr = _as_labels(pred_labels, true_arr.size)
    sel = np.asarray(selection, dtype=np.int64).reshape(-1)
    qn = int(max(true_arr.max(initial=0), pred_arr.max(initial=0))) + 1
    confusion = np.zeros((qn, qn), dtype=np.int64)
    if sel.size:
        np.add.at(confusion, (true_arr[sel], pred_arr[sel]), 1)
    search = _exhaustive if qn <= MAX_EXHAUSTIVE_Q else _assignment
    perm, matches = search(confusion)
    return perm, int(sel.size) - matches


def _exhaustive(confusion: np.ndarray) -> tuple[tuple[int, ...], int]:
    """The first permutation with the most matches ``confusion[perm[c], c]``, and those."""
    cols = np.arange(len(confusion))
    best_perm_found: tuple[int, ...] | None = None
    best_matches = -1
    for perm in itertools.permutations(range(len(confusion))):
        matches = int(confusion[np.asarray(perm), cols].sum())
        if matches > best_matches:
            best_matches = matches
            best_perm_found = perm
    return best_perm_found, best_matches


def _assignment(confusion: np.ndarray) -> tuple[tuple[int, ...], int]:
    """A permutation with the most matches by the assignment solver, and those."""
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    perm = np.empty(len(cols), dtype=np.int64)
    perm[cols] = rows
    return tuple(perm.tolist()), int(confusion[rows, cols].sum())


def sample_fcr(true_labels, pred_labels, selection) -> FcrReport:
    """Proportion of selected items misclassified, after the best relabeling.

    An empty selection scores 0 (the 0/0 convention).
    """
    true_arr = _as_labels(true_labels)
    sel = np.asarray(selection, dtype=np.int64).reshape(-1)
    perm, errors = best_permutation(true_labels, pred_labels, sel)
    k = int(sel.size)
    n = int(true_arr.size)
    return FcrReport(
        sample_fcr=errors / max(k, 1),
        selection_frequency=k / n if n else 0.0,
        best_perm=perm,
        n_selected=k,
        n_errors_at_best_perm=errors,
    )


def clustering_risk_mc(
    theta_star: MixtureParams,
    clustering_rule,
    n: int,
    reps: int,
    rng: np.random.Generator,
) -> MonteCarloEstimate:
    """Monte-Carlo clustering risk of ``clustering_rule`` under the truth.

    Each replication samples ``n`` labelled points, applies the rule to the
    data alone, and scores the permutation-minimized error proportion.
    """
    risks = np.empty(reps)
    everything = np.arange(n)
    for r in range(reps):
        z, x = sample_mixture(theta_star, n, rng)
        pred = clustering_rule(x)
        _, errors = best_permutation(z, pred, everything)
        risks[r] = errors / n
    se = float(risks.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return MonteCarloEstimate(estimate=float(risks.mean()), se=se, size=reps)


def _t_sample(theta_star: MixtureParams, mc_size: int, rng: np.random.Generator) -> np.ndarray:
    _, x = sample_mixture(theta_star, mc_size, rng)
    return posterior_matrix(theta_star, x).t_values


def mfcr_oracle_mc(
    theta_star: MixtureParams, t: float, mc_size: int, rng: np.random.Generator
) -> MonteCarloEstimate:
    """Mean MAP risk conditional on the risk falling strictly below ``t``.

    Returns 0 when the conditioning event never occurs in the sample.
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    values = _t_sample(theta_star, mc_size, rng)
    below = values[values < t]
    if below.size == 0:
        return MonteCarloEstimate(estimate=0.0, se=0.0, size=mc_size)
    se = float(below.std(ddof=1) / math.sqrt(below.size)) if below.size > 1 else 0.0
    return MonteCarloEstimate(estimate=float(below.mean()), se=se, size=mc_size)


def _bisect_threshold(sorted_t: np.ndarray, csum: np.ndarray, alpha: float, tol: float) -> float:
    """Largest t with conditional-mean(T | T < t) <= alpha, on a frozen sample."""

    def mfcr_at(t: float) -> float:
        k = int(np.searchsorted(sorted_t, t, side="left"))
        return 0.0 if k == 0 else float(csum[k - 1] / k)

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mfcr_at(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_star_mc(
    theta_star: MixtureParams,
    alpha: float,
    mc_size: int,
    rng: np.random.Generator,
    tol: float = 1e-3,
) -> float:
    """Largest threshold whose conditional mean risk stays at or below alpha.

    Bisection on one frozen Monte-Carlo sample of the risk statistic, whose
    conditional-mean curve is exactly non-decreasing.  Levels at or above
    the unconditional mean return 1.0; levels at or below the smallest
    achievable positive value raise ``ValueError``.
    """
    alpha = float(alpha)
    values = np.sort(_t_sample(theta_star, mc_size, rng))
    if values.size == 0:
        raise ValueError("mc_size must be positive")
    alpha_bar = float(values.mean())
    if alpha >= alpha_bar:
        return 1.0
    alpha_c = float(values[0])
    if alpha <= alpha_c:
        raise ValueError(
            f"alpha={alpha} is below the achievable range (alpha_c ~ {alpha_c:.4g})"
        )
    return _bisect_threshold(values, np.cumsum(values), alpha, tol)


def oracle_curve(
    theta_star: MixtureParams,
    alpha: float,
    mc_size: int = 1_000_000,
    t_grid=None,
    rng: np.random.Generator | None = None,
) -> OracleCurve:
    """Monte-Carlo selective-risk curve over a grid of thresholds."""
    if rng is None:
        rng = np.random.default_rng()
    t_max = 1.0 - 1.0 / theta_star.q
    if t_grid is None:
        t_grid = t_max * np.arange(1, 51) / 50
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.sort(_t_sample(theta_star, mc_size, rng))
    csum = np.cumsum(values)
    mfcr = np.zeros(t_grid.size)
    ses = np.zeros(t_grid.size)
    for j, t in enumerate(t_grid):
        k = int(np.searchsorted(values, t, side="left"))
        if k == 0:
            continue
        mfcr[j] = csum[k - 1] / k
        if k > 1:
            ses[j] = float(values[:k].std(ddof=1) / math.sqrt(k))
    alpha_bar = float(values.mean())
    positive = mfcr[mfcr > 0.0]
    alpha_c = float(positive.min()) if positive.size else 0.0
    if alpha >= alpha_bar:
        t_star = 1.0
    elif alpha <= values[0]:
        t_star = float("nan")
    else:
        t_star = _bisect_threshold(values, csum, alpha, 1e-3)
    return OracleCurve(
        t_grid=t_grid,
        mfcr_values=mfcr,
        mfcr_ses=ses,
        t_star=t_star,
        alpha_c=alpha_c,
        alpha_bar=alpha_bar,
        mc_size=mc_size,
    )


def gaussian_t_tail(theta: MixtureParams, theta_star: MixtureParams, t: float) -> float:
    """Closed-form tail P(T(X, theta) > t) for two homoscedastic Gaussians.

    ``theta`` defines the risk statistic, ``theta_star`` the generating
    two-component Gaussian mixture; each must share one covariance across
    its two components.  The event reduces to a band for a linear statistic
    of X, whose probability is a two-term normal-CDF expression.
    """
    for params, name in ((theta, "theta"), (theta_star, "theta_star")):
        if params.q != 2:
            raise ValueError(f"{name} must have exactly two components")
        c0, c1 = params.components
        if c0.kind != GAUSSIAN or c1.kind != GAUSSIAN:
            raise ValueError(f"{name} components must be Gaussian")
        if not np.allclose(c0.scatter, c1.scatter, rtol=0.0, atol=1e-12):
            raise ValueError(f"{name} components must share one covariance")
    t = float(t)
    if t <= 0.0:
        return 1.0
    if t >= 0.5:
        return 0.0
    mu1, mu2 = theta.components[0].mean, theta.components[1].mean
    sigma = theta.components[0].scatter
    delta = mu1 - mu2
    a = 2.0 * np.linalg.solve(sigma, delta)
    b = -float(delta @ np.linalg.solve(sigma, mu1 + mu2)) + 2.0 * math.log(
        theta.weights[0] / theta.weights[1]
    )
    c = 2.0 * math.log(1.0 / t - 1.0)
    sigma_star = theta_star.components[0].scatter
    spread = math.sqrt(float(a @ sigma_star @ a))
    total = 0.0
    for w, comp in zip(theta_star.weights, theta_star.components):
        m = float(a @ comp.mean) + b
        total += w * (ndtr((c - m) / spread) - ndtr((-c - m) / spread))
    return float(total)


def write_fcr_report_csv(report: FcrReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_fcr", "selection_frequency", "n_selected", "n_errors", "best_perm"]
        )
        writer.writerow(
            [
                repr(report.sample_fcr),
                repr(report.selection_frequency),
                report.n_selected,
                report.n_errors_at_best_perm,
                " ".join(str(p) for p in report.best_perm),
            ]
        )


def write_oracle_curve_csv(curve: OracleCurve, path) -> None:
    """CSV of the curve with one (estimate, standard error) pair per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mfcr", "se", "mc_size"])
        for t, v, s in zip(curve.t_grid, curve.mfcr_values, curve.mfcr_ses):
            writer.writerow([repr(float(t)), repr(float(v)), repr(float(s)), curve.mc_size])
