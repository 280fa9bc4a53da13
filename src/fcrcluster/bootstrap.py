"""Bootstrap estimation of the plug-in FCR and level-grid calibration.

The plug-in procedure run at level ``alpha'`` can overshoot the target FCR
when parameter estimation is rough.  The calibration here estimates, by
parametric or non-parametric bootstrap, the FCR the plug-in would achieve at
each level of a grid, then runs the plug-in at the largest grid level whose
estimate stays at or below the target.

Resamples and refits are shared across grid levels: moving along the grid
only moves the selection threshold, which changes no expectation and cuts
the cost by a factor of the grid size.  One loop, ``_refits``, draws the
resamples in blocks under one budget and one size rule, iterates a block's
refits as one EM stack, with the draws and the estimates of refits done one
resample at a time, and takes the block's reference posteriors under the
original fit in one stacked density pass.  ``_score_block`` then scores the
plug-in FCR of all its resamples at every grid level from one cumulative sum
of the reference mass along each resample's selection order and, for at most
three components, the best of the label permutations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .em import (EmConfig, FitResult, _best, _check_rows, _each, _fit_datasets, _known_factors,
                 _warm_dof, _warm_runs, fit_mixture)
from .mixtures import (
    MixtureParams,
    PosteriorMatrix,
    _check_count,
    _check_width,
    _log_weighted,
    _map_rows,
    _normalize,
    _t_values,
    _theta,
    _write_csv,
    map_labels,
    posterior_matrix,
    sample_mixture,
    validate_data,
)
from .selection import (
    RULES,
    SelectiveClustering,
    _check_alpha,
    cumulative_select,
    empty_selection,
    kstar_grid,
    select_and_label,
)

logger = logging.getLogger(__name__)

MODES = ("parametric", "nonparametric")

# A block of datasets, kept whole, holds at most this many floats of each of
# two per-dataset kinds: the EM stack's data (rows times columns plus
# components, per start) and the scorer's cumulative gains (rows times Q**2).
# One budget and one rule, ``_block_size``, cut the resamples of a calibration
# and the replications of a sweep point.  Measured on the builtin scenarios,
# 2**18 and 2**20 ran ``typical`` about 15% slower and 2**16 slowed ``high-dim``.
_BLOCK_ELEMENTS = 1 << 17


def _block_size(n: int, d: int, q: int, starts: int) -> int:
    """How many datasets of n rows of width d a block holds, for Q-component
    fits of ``starts`` runs each: at least one."""
    return max(1, _BLOCK_ELEMENTS // max(1, n * max(starts * (d + q), q * q)))


@dataclass(frozen=True)
class WarmStart:
    """Refit each resample by a few EM iterations from the original fit."""

    iters: int = 20


@dataclass(frozen=True)
class FullRefit:
    """Refit each resample from scratch; ``em=None`` reuses the outer config."""

    em: EmConfig | None = None


@dataclass
class BootstrapConfig:
    """Bootstrap settings.

    The default refit re-runs the whole estimation on every resample, which
    is what makes the calibration account for estimation variability; the
    cheaper ``WarmStart`` refit understates it when EM converges slowly
    (overlapping components), and with ``iters=0`` reuses the original fit.
    """

    mode: str = "parametric"
    b: int = 1000
    grid: np.ndarray | None = None
    refit: WarmStart | FullRefit = field(default_factory=FullRefit)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        _check_count("b", self.b)
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 1 or g.size == 0:
                raise ValueError("grid must be a non-empty 1-d vector")
            if not np.all((g > 0.0) & (g < 1.0)):
                raise ValueError("grid levels must lie in (0, 1)")
            if np.any(np.diff(g) <= 0.0):
                raise ValueError("grid must be strictly increasing")
        if isinstance(self.refit, WarmStart):
            _check_count("warm-start iters", self.refit.iters, 0)
        elif not isinstance(self.refit, FullRefit):
            raise ValueError(f"refit must be a WarmStart or a FullRefit, got {self.refit!r}")
        elif self.refit.em is not None:
            self.refit.em.validate()


@dataclass(frozen=True, eq=False)
class BootstrapCurve:
    """Estimated plug-in FCR along the level grid.

    ``chosen_index`` is the largest index with ``fcr_hat <= alpha`` for the
    target level the curve was calibrated against, or ``None`` when no grid
    level is admissible.
    """

    levels: np.ndarray
    fcr_hat: np.ndarray
    chosen_index: int | None


def level_grid(alpha: float) -> np.ndarray:
    """The default calibration grid: the 25 levels ``alpha * k / 25``, k = 1..25."""
    return alpha * np.arange(1, 26) / 25


def resample(
    data, theta_hat: MixtureParams, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """One bootstrap sample: model draws (parametric) or row resampling."""
    x = validate_data(data)
    n = x.shape[0]
    if mode == "parametric":
        _, xb = sample_mixture(theta_hat, n, rng)
        return xb
    if mode == "nonparametric":
        idx = rng.integers(0, n, size=n)
        return x[idx]
    raise ValueError(f"mode must be one of {MODES}")


def choose_level(fcr_hat: np.ndarray, alpha: float) -> int | None:
    """Largest grid index whose estimated FCR is at or below ``alpha``."""
    admissible = np.flatnonzero(np.asarray(fcr_hat) <= alpha)
    return int(admissible[-1]) if admissible.size else None


def _score_block(probs: np.ndarray, ref: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per resample of a block, the plug-in FCR at each level, minimized over
    label permutations: an (m, L) array.

    ``probs`` (m, Q, n) holds the refits' posteriors on the resamples, whose
    risks and MAP labels the plug-in uses; ``ref`` (m, Q, n) the posteriors
    of the resampled rows under the reference fit (the parameters estimated
    on the original data), which stand in for the truth.  Each resample is
    scored on its own by the cumulative rule: its selection order and
    k* at each level from ``kstar_grid``, and at k* the gain
    ``G[c, r]``, the reference mass of class r summed in selection order over
    the selected items with MAP class c.  The estimate is
    ``(k* - max over permutations s of sum_c G[c, s(c)]) / k*``: the best of
    the Q! permutations, summed over c in order, for Q <= 3, and the
    assignment solver above.
    """
    m, q, n = ref.shape
    grids = [kstar_grid(t, levels) for t in _t_values(probs.transpose(0, 2, 1))]
    order = np.stack([g[0] for g in grids])
    ks = np.stack([g[2] for g in grids])
    values = np.zeros((m, len(levels)))
    if not ks.any():
        return values
    labels = np.take_along_axis(_map_rows(probs.transpose(0, 2, 1)), order, axis=1)
    block = np.arange(m)[:, None]
    # cum[i, j, c, r]: the class-r reference mass of the items of MAP class c
    # among the j + 1 lowest-risk items of resample i
    cum = np.zeros((m, n, q, q))
    cum[block, np.arange(n), labels] = np.take_along_axis(
        ref, order[:, None], axis=2).transpose(0, 2, 1)
    np.cumsum(cum, axis=1, out=cum)
    gain = cum[block, np.maximum(ks - 1, 0)]  # (m, L, Q, Q)
    if q <= 3:
        picked = gain[..., np.arange(q), np.array(list(permutations(range(q))))]
        best = picked[..., 0]
        for c in range(1, q):
            best = best + picked[..., c]
        best = best.max(axis=-1)
    else:
        from scipy.optimize import linear_sum_assignment

        best = np.zeros(ks.shape)
        for i, j in zip(*np.nonzero(ks)):
            best[i, j] = gain[i, j][linear_sum_assignment(-gain[i, j])].sum()
    np.divide(ks - best, ks, out=values, where=ks > 0)
    return values


def _refit_probs(runs):
    """The winning run's last responsibilities, or ``None`` when the refit
    failed: the original fit stands in."""
    try:
        return _best(runs).probs
    except (ValueError, np.linalg.LinAlgError) as exc:
        logger.warning("bootstrap refit failed (%s); keeping original fit", exc)
        return None


class _SavedStream:
    """A warm run's reinit stream: ``rng`` drawn from where it stood just after
    the run's resample was drawn, keeping where the run's draws leave it."""

    def __init__(self, rng):
        self.rng, self.saved = rng, rng.bit_generator.state
        self.rewind()

    def rewind(self):  # back to where the run's resample left rng, before it drew
        self.state, self.drew = self.saved, False
        return self

    def integers(self, n):
        self.rng.bit_generator.state, self.drew = self.state, True
        row = self.rng.integers(n)
        self.state = self.rng.bit_generator.state
        return row


def _refits(x, theta_hat, cfg, refit_cfg, known, rng):
    """Blocks of resamples in draw order, each as two (m, Q, n) stacks: the
    refits' posteriors on the resamples, and the resamples' reference
    posteriors under ``theta_hat``, the original fit, which stand in for a
    refit that failed.

    Every draw is the one a refit done right after its resample makes.  Full
    refits spawn each resample's start streams right after drawing it.  Warm
    refits draw reinits from ``rng``, so a block speculates that they draw
    none: each run draws from where ``rng`` stood after its own resample, so
    up to the first run k that drew, the runs made the sequential draws; the
    runs after it are dropped, and drawing resumes from where refit k left
    ``rng``.  One size rule serves both, with k = m, the block's size, for
    full refits: a block starts at ``_block_size``, is cut to max(1, k)
    after a reinit at k, and doubles, up to that bound, after a block with
    none.  A block's refits, and then its reference posteriors, run as one
    stack that gives each resample its outcome or its error (``em._each``).
    The resamples are taken in draw order, each refit's fallback warning
    logged; those before the first error, a refit's before its reference
    posterior's, are yielded and the error is raised, as one at a time does.
    """
    warm = isinstance(cfg.refit, WarmStart)
    (n, d), q = x.shape, theta_hat.q
    starts = 1 if warm else refit_cfg.n_starts
    bound = _block_size(n, d, q, starts)
    weights, means, _, chols, log_dets = theta = _theta(theta_hat)
    kernel = (np.log(weights), means, chols, log_dets)
    dofs = [c.dof for c in theta_hat.components]

    def reference(xs, _):
        block = (np.broadcast_to(a, (len(xs), *a.shape[1:])) for a in kernel)
        return _normalize(_log_weighted(xs, *block, dofs))[0]

    def warm_stack(xs, groups):
        block = tuple(np.repeat(a, len(xs), axis=0) for a in theta)
        return [[run] for run in _warm_runs(
            xs, block, dofs[0], refit_cfg, cfg.refit.iters, known, [s for s, in groups])]

    done, size = 0, bound
    while done < cfg.b:
        m = min(size, cfg.b - done)
        xs, groups = [], []
        for _ in range(m):
            xs.append(resample(x, theta_hat, cfg.mode, rng))
            groups.append([_SavedStream(rng)] if warm else rng.spawn(starts))
        xs = np.stack(xs)
        if not warm:
            fits = _fit_datasets(xs, q, refit_cfg, known, groups)
        elif cfg.refit.iters:
            fits = _each(warm_stack, xs, groups, lambda group: [s.rewind() for s in group])
        else:
            fits = [None] * m
        k = next((i for i, group in enumerate(groups) if warm and group[0].drew), m)
        refs = _each(reference, xs[:k + 1])
        probs, error = [], None
        for fit, ref in zip(fits, refs):
            # the refit's error, or else its posterior, None where the original fit stands in
            p = fit if fit is None or isinstance(fit, Exception) else _refit_probs(fit)
            error = next((e for e in (p, ref) if isinstance(e, Exception)), None)
            if error is not None:
                break
            probs.append(ref if p is None else p.T)
        if warm:  # where the last refit taken, or the one that raised, left rng
            rng.bit_generator.state = groups[len(probs) - (error is None)][0].state
        if probs:
            yield np.stack(probs), np.asarray(refs[:len(probs)])
        if error is not None:
            raise error
        size = max(1, k) if k < m else min(2 * m, bound)
        done += len(probs)


def _refit_settings(cfg: BootstrapConfig, em_cfg: EmConfig | None, q: int, x):
    """Check ``cfg`` and the rows ``x`` for a calibration of a Q-component
    fit; return the refit's EM settings (``FullRefit.em``, or the outer
    ones) and its known factors, checked against Q and the rows' width."""
    cfg.validate()
    _check_rows(x, q)
    em_cfg = em_cfg or EmConfig()
    refit_cfg = em_cfg if isinstance(cfg.refit, WarmStart) else cfg.refit.em or em_cfg
    refit_cfg.validate()
    return refit_cfg, _known_factors(refit_cfg, q, x.shape[1])


def calibrate_level(
    data,
    theta_hat: MixtureParams,
    alpha: float,
    cfg: BootstrapConfig,
    em_cfg: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> BootstrapCurve:
    """Estimate the FCR along the level grid and pick the working level.

    The same resamples and refits serve every grid level; they draw from
    ``rng`` (fresh OS entropy when ``None``).  The chosen index is the largest
    level whose estimate is at or below ``alpha`` (``None`` when even the
    smallest level overshoots).  A one-level grid, ``grid=[alpha_prime]``,
    gives the bootstrap estimate of the FCR the plug-in achieves at
    ``alpha_prime`` as ``fcr_hat[0]``.
    """
    alpha = _check_alpha(alpha)
    x = validate_data(data)
    _check_width(x, theta_hat.dim)
    refit_cfg, known = _refit_settings(cfg, em_cfg, theta_hat.q, x)
    warm = isinstance(cfg.refit, WarmStart)
    if warm:
        _warm_dof(theta_hat)
    levels = (
        np.asarray(cfg.grid, dtype=float) if cfg.grid is not None else level_grid(alpha)
    )
    rng = np.random.default_rng(rng)
    logger.info(
        "bootstrap FCR estimation: mode=%s B=%d refit=%s", cfg.mode, cfg.b,
        f"warm start, {cfg.refit.iters} EM iterations per resample" if warm
        else "full refit per resample",
    )
    sums = np.zeros(len(levels))
    for refit, ref in _refits(x, theta_hat, cfg, refit_cfg, known, rng):
        for v in _score_block(refit, ref, levels):
            sums += v
    fcr_hat = sums / cfg.b
    chosen = choose_level(fcr_hat, alpha)
    if chosen is None:
        logger.info("calibration: no admissible grid level at alpha=%g", alpha)
    else:
        logger.info(
            "calibration: level %g chosen (fcr_hat=%g) at alpha=%g",
            levels[chosen],
            fcr_hat[chosen],
            alpha,
        )
    return BootstrapCurve(levels=levels, fcr_hat=fcr_hat, chosen_index=chosen)


def bootstrap_procedure(
    data,
    q: int,
    alpha: float,
    em_cfg: EmConfig | None = None,
    boot_cfg: BootstrapConfig | None = None,
    rng: np.random.Generator | None = None,
) -> SelectiveClustering:
    """Fit, calibrate, then run the plug-in at the calibrated level.

    The fit and the calibration draw in turn from ``rng`` (fresh OS entropy
    when ``None``).  When no grid level is admissible the items keep their
    MAP labels but nothing is selected.
    """
    boot_cfg = boot_cfg or BootstrapConfig()
    run = _fitted_run(data, q, alpha, em_cfg, boot_cfg, rng, (boot_cfg.mode,))
    return run.selections[boot_cfg.mode]


@dataclass(frozen=True, eq=False)
class _CalibratedRun:
    """One fit of the data, the curve of each requested bootstrap mode and
    the selection of each requested rule and mode."""

    fit: FitResult
    curves: dict[str, BootstrapCurve]
    selections: dict[str, SelectiveClustering]


@dataclass(frozen=True, eq=False)
class _RunSettings:
    """The checked settings of a calibrated run: its rows, its level, the
    outer EM settings and, per requested kind, the bootstrap settings of a
    mode, or ``None`` for a selection rule."""

    x: np.ndarray
    alpha: float
    em_cfg: EmConfig | None
    kinds: dict[str, BootstrapConfig | None]


def _run_settings(data, q, alpha, em_cfg, boot_cfg, kinds) -> _RunSettings:
    """Check every setting of a calibrated run of ``kinds`` on ``data``,
    before its fit: each kind is a selection rule of ``RULES``, or a
    bootstrap mode, calibrated with ``boot_cfg`` in that mode."""
    alpha = _check_alpha(alpha)
    x = validate_data(data)
    checked = {k: None if k in RULES else replace(boot_cfg, mode=k) for k in kinds}
    for cfg in checked.values():
        if cfg is not None:
            _refit_settings(cfg, em_cfg, q, x)
    return _RunSettings(x, alpha, em_cfg, checked)


def _calibrated_run(fit: FitResult, settings: _RunSettings, rng) -> _CalibratedRun:
    """Run each kind of ``settings`` on ``fit``, the given fit of its rows:
    the fit's posterior is computed once, each rule selects from it, and
    each mode, in ``MODES`` order, calibrates, drawing in turn from ``rng``,
    and selects at its calibrated level."""
    s = settings
    post = posterior_matrix(fit.params, s.x)
    selections = {k: select_and_label(post, s.alpha, k)
                  for k, cfg in s.kinds.items() if cfg is None}
    curves = {m: calibrate_level(s.x, fit.params, s.alpha, s.kinds[m], s.em_cfg, rng)
              for m in MODES if s.kinds.get(m) is not None}
    selections.update(
        (m, clustering_at_calibrated_level(post, s.alpha, c)) for m, c in curves.items())
    return _CalibratedRun(fit, curves, selections)


def _fitted_run(data, q, alpha, em_cfg, boot_cfg, rng, kinds) -> _CalibratedRun:
    """A calibrated run of ``kinds`` on one dataset: every setting checked,
    then ``fit_mixture`` and the calibrations drawing in turn from
    ``default_rng(rng)``."""
    settings = _run_settings(data, q, alpha, em_cfg, boot_cfg, kinds)
    rng = np.random.default_rng(rng)
    return _calibrated_run(fit_mixture(settings.x, q, em_cfg, rng), settings, rng)


def clustering_at_calibrated_level(
    post: PosteriorMatrix, alpha: float, curve: BootstrapCurve
) -> SelectiveClustering:
    """Plug-in selection, from the fit's posterior ``post`` on the data, at
    the calibrated grid level of ``curve``: the cumulative rule at that
    level, or nothing when no level is admissible."""
    selection = (
        empty_selection(post.t_values)
        if curve.chosen_index is None
        else cumulative_select(post.t_values, curve.levels[curve.chosen_index])
    )
    return SelectiveClustering(
        labels=map_labels(post), t_values=post.t_values, selection=selection,
        alpha=float(alpha),
    )


def write_curve_csv(curve: BootstrapCurve, path) -> None:
    """CSV with columns level, fcr_hat."""
    _write_csv(path, ["level", "fcr_hat"], zip(curve.levels, curve.fcr_hat))
