"""Label-switching-invariant scoring and Monte-Carlo oracle curves.

Mixture components are identifiable only up to a permutation of the labels,
so every score here minimizes over all relabelings of the predictions.  The
permutation search is exhaustive for Q <= 8, which keeps it usable as an
independent oracle for the assignment-solver route used in the bootstrap;
above that, scoring takes the assignment-solver route too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mixtures import (
    GAUSSIAN,
    MixtureParams,
    _write_csv,
    posterior_matrix,
    sample_mixture,
)

MAX_EXHAUSTIVE_Q = 8
_MC_SIZE = 1_000_000  # the default sample size of oracle_curve and of --mc-size


@dataclass(frozen=True, eq=False)
class FcrReport:
    """Sample FCR of a selective clustering against reference labels."""

    sample_fcr: float
    selection_frequency: float
    best_perm: tuple[int, ...]
    n_selected: int
    n_errors_at_best_perm: int


@dataclass(frozen=True, eq=False)
class OracleCurve:
    """Monte-Carlo estimate of the selective risk curve of thresholding T.

    ``mfcr_values[j]`` estimates the mean MAP risk conditional on the risk
    falling strictly below ``t_grid[j]`` (0 when no sampled risk does);
    ``t_star`` is the largest threshold keeping that conditional mean at or
    below the requested level, to within 1e-3, found by bisection on the one
    frozen sample.  ``t_star`` is 1.0 for a level at or above ``alpha_bar``,
    the unconditional mean risk, and NaN for a level at or below
    ``alpha_c``, the smallest sampled risk, which no threshold can serve.
    ``alpha_c`` and ``alpha_bar`` are the endpoints of the level range the
    curve can serve.
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
    from scipy.optimize import linear_sum_assignment

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


def _bisect_threshold(sorted_t: np.ndarray, csum: np.ndarray, alpha: float) -> float:
    """Largest t with conditional-mean(T | T < t) <= alpha, on a frozen
    sample, to within 1e-3."""

    def mfcr_at(t: float) -> float:
        k = int(np.searchsorted(sorted_t, t, side="left"))
        return 0.0 if k == 0 else float(csum[k - 1] / k)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if mfcr_at(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_curve(
    theta_star: MixtureParams,
    alpha: float,
    mc_size: int = _MC_SIZE,
    rng: np.random.Generator | None = None,
) -> OracleCurve:
    """Monte-Carlo selective-risk curve over 50 equally spaced thresholds up
    to the largest possible risk, ``1 - 1/Q``, from ``mc_size >= 1`` draws."""
    if mc_size < 1:
        raise ValueError(f"mc_size must be >= 1, got {mc_size}")
    if rng is None:
        rng = np.random.default_rng()
    t_grid = (1.0 - 1.0 / theta_star.q) * np.arange(1, 51) / 50
    # the sample is the largest array here: nothing keeps it past this line
    values = np.sort(
        posterior_matrix(theta_star, sample_mixture(theta_star, mc_size, rng)[1]).t_values
    )
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
    alpha_c = float(values[0])
    if alpha >= alpha_bar:
        t_star = 1.0
    elif alpha <= alpha_c:
        t_star = float("nan")
    else:
        t_star = _bisect_threshold(values, csum, alpha)
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
    from scipy.special import ndtr

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


def write_oracle_curve_csv(curve: OracleCurve, path) -> None:
    """CSV of the curve with one (estimate, standard error) pair per row."""
    _write_csv(path, ["t", "mfcr", "se", "mc_size"], zip(
        curve.t_grid, curve.mfcr_values, curve.mfcr_ses, itertools.repeat(curve.mc_size)
    ))
