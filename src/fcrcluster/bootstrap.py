"""Bootstrap estimation of the plug-in FCR and level-grid calibration.

The plug-in procedure run at level ``alpha'`` can overshoot the target FCR
when parameter estimation is rough.  The calibration here estimates, by
parametric or non-parametric bootstrap, the FCR the plug-in would achieve at
each level of a grid, then runs the plug-in at the largest grid level whose
estimate stays at or below the target.

Resamples and refits are shared across grid levels: moving along the grid
only moves the selection threshold, which changes no expectation and cuts
the cost by a factor of the grid size.  Full refits run the EM starts of a
block of resamples as one stack, with the draws and the estimates of refits
done one resample at a time.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .em import (
    EmConfig,
    _best,
    _fit_runs,
    _kmeanspp,
    _known_factors,
    em_steps,
    fit_mixture,
)
from .mixtures import (
    MixtureParams,
    map_labels,
    posterior_matrix,
    sample_mixture,
    validate_data,
)
from .selection import (
    SelectiveClustering,
    _check_alpha,
    empty_selection,
    kstar_grid,
    select_and_label,
)

logger = logging.getLogger(__name__)

MODES = ("parametric", "nonparametric")

# Full refits of a calibration iterate as stacks of at most this many floats
# of per-run data (rows times columns plus components), resamples whole.
_BLOCK_ELEMENTS = 1 << 20


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
    seed: int | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 1 or g.size == 0:
                raise ValueError("grid must be a non-empty 1-d vector")
            if g.min() <= 0.0 or g.max() >= 1.0:
                raise ValueError("grid levels must lie in (0, 1)")
            if np.any(np.diff(g) <= 0.0):
                raise ValueError("grid must be strictly increasing")
        if isinstance(self.refit, WarmStart) and self.refit.iters < 0:
            raise ValueError("warm-start iters must be >= 0")
        if isinstance(self.refit, FullRefit) and self.refit.em is not None:
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


def level_grid(alpha: float, size: int = 25, max_factor: float = 1.0) -> np.ndarray:
    """Equally spaced grid over ``(alpha*max_factor/size, alpha*max_factor]``.

    The default stays at or below the target level; ``max_factor > 1``
    extends the grid above it.
    """
    top = alpha * max_factor
    return top * np.arange(1, size + 1) / size


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


def _plugin_fcr_per_level(
    t_hat: np.ndarray,
    z_hat: np.ndarray,
    ref_probs: np.ndarray,
    levels: np.ndarray,
) -> np.ndarray:
    """Per-level FCR of one resample, minimized over label permutations.

    ``t_hat`` and ``z_hat`` come from the refitted parameters on the
    resample, ``ref_probs`` are the posterior probabilities of the resampled
    rows under the reference fit (the parameters estimated on the original
    data), which stand in for the truth.
    """
    n, qn = ref_probs.shape
    order, _, ks = kstar_grid(t_hat, levels)
    # cumulative per-class posterior mass along the selection order:
    # cum[k-1, c, r] = sum over the k lowest-risk items with predicted class
    # c of the reference posterior for class r
    one_hot = np.zeros((n, qn))
    one_hot[np.arange(n), z_hat[order]] = 1.0
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


def _draw(draw, start):
    """Draw a resample and start its refit, retrying once as a refit failure.

    ``start(xb)`` raises ``ValueError`` or ``LinAlgError`` when the refit
    fails.  Returns the resample and what ``start`` returned, or ``None``
    after two failures: the original fit stands in.
    """
    for attempt in range(2):
        xb = draw()
        try:
            return xb, start(xb)
        except (ValueError, np.linalg.LinAlgError) as exc:
            if attempt:
                logger.warning("bootstrap refit failed twice (%s); keeping original fit", exc)
            else:
                logger.warning("bootstrap refit failed (%s); retrying once", exc)
    return xb, None


def _warm_refits(draw, theta_hat, cfg, em_cfg, rng):
    """Warm-start refits, one resample at a time: their reinit draws share ``rng``."""
    def refit(xb):
        if cfg.refit.iters == 0:
            return theta_hat
        return em_steps(xb, theta_hat, em_cfg, cfg.refit.iters, rng)

    for _ in range(cfg.b):
        xb, theta_b = _draw(draw, refit)
        yield xb, theta_hat if theta_b is None else theta_b


def _full_refits(draw, shape, theta_hat, cfg, refit_cfg, known, rng):
    """Full refits, the starts of a block of resamples iterating as one EM stack.

    Each resample is drawn and its start streams spawned in order, and its
    k-means++ starts run at once, so the draws are those of a refit done
    right after its resample.  A refit that fails later, while iterating or
    when its parameters are built, keeps the original fit.
    """
    q, starts = theta_hat.q, refit_cfg.n_starts
    per_block = max(1, _BLOCK_ELEMENTS // (starts * shape[0] * (shape[1] + q)))

    def start(xb):
        streams = rng.spawn(starts)
        return streams, [_kmeanspp(xb, q, s) for s in streams]

    for first in range(0, cfg.b, per_block):
        drawn = [_draw(draw, start) for _ in range(min(per_block, cfg.b - first))]
        begun = [(xb, st) for xb, st in drawn if st is not None]
        runs = iter(_fit_runs(
            np.repeat(np.stack([xb for xb, _ in begun]), starts, axis=0),
            q, refit_cfg, known,
            [s for _, (streams, _) in begun for s in streams],
            [st for _, (_, sts) in begun for st in sts],
        ) if begun else ())
        for xb, started in drawn:
            theta_b = theta_hat
            if started is not None:
                try:
                    theta_b = _best([next(runs) for _ in range(starts)], refit_cfg).params
                except (ValueError, np.linalg.LinAlgError) as exc:
                    logger.warning("bootstrap refit failed (%s); keeping original fit", exc)
            yield xb, theta_b


def _fcr_curve(
    data,
    theta_hat: MixtureParams,
    levels: np.ndarray,
    cfg: BootstrapConfig,
    em_cfg: EmConfig,
    rng: np.random.Generator | None,
) -> np.ndarray:
    x = validate_data(data)
    if isinstance(cfg.refit, WarmStart):
        refit_note = f"warm start, {cfg.refit.iters} EM iterations per resample"
    else:
        refit_cfg = cfg.refit.em or em_cfg
        refit_cfg.validate()
        known = _known_factors(refit_cfg, theta_hat.q)
        refit_note = "full refit per resample"
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    logger.info(
        "bootstrap FCR estimation: mode=%s B=%d refit=%s", cfg.mode, cfg.b, refit_note
    )

    def draw():
        return resample(x, theta_hat, cfg.mode, rng)

    refits = (
        _warm_refits(draw, theta_hat, cfg, em_cfg, rng)
        if isinstance(cfg.refit, WarmStart)
        else _full_refits(draw, x.shape, theta_hat, cfg, refit_cfg, known, rng)
    )
    sums = np.zeros(len(levels))
    for xb, theta_b in refits:
        post_b = posterior_matrix(theta_b, xb)
        ref_probs = posterior_matrix(theta_hat, xb).probs
        sums += _plugin_fcr_per_level(
            post_b.t_values, map_labels(post_b), ref_probs, levels
        )
    return sums / cfg.b


def bootstrap_fcr(
    data,
    theta_hat: MixtureParams,
    alpha_prime: float,
    cfg: BootstrapConfig,
    em_cfg: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Bootstrap estimate of the FCR the plug-in achieves at ``alpha_prime``."""
    cfg.validate()
    levels = np.array([_check_alpha(alpha_prime)])
    curve = _fcr_curve(data, theta_hat, levels, cfg, em_cfg or EmConfig(), rng)
    return float(curve[0])


def calibrate_level(
    data,
    theta_hat: MixtureParams,
    alpha: float,
    cfg: BootstrapConfig,
    em_cfg: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> BootstrapCurve:
    """Estimate the FCR along the level grid and pick the working level.

    The same resamples and refits serve every grid level.  The chosen index
    is the largest level whose estimate is at or below ``alpha`` (``None``
    when even the smallest level overshoots).
    """
    cfg.validate()
    alpha = _check_alpha(alpha)
    levels = (
        np.asarray(cfg.grid, dtype=float) if cfg.grid is not None else level_grid(alpha)
    )
    fcr_hat = _fcr_curve(data, theta_hat, levels, cfg, em_cfg or EmConfig(), rng)
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

    When no grid level is admissible the items keep their MAP labels but
    nothing is selected.
    """
    em_cfg = em_cfg or EmConfig()
    boot_cfg = boot_cfg or BootstrapConfig()
    if rng is None:
        rng = np.random.default_rng(boot_cfg.seed)
    x = validate_data(data)
    fit = fit_mixture(x, q, em_cfg, rng)
    curve = calibrate_level(x, fit.params, alpha, boot_cfg, em_cfg, rng)
    return clustering_at_calibrated_level(fit.params, x, alpha, curve)


def clustering_at_calibrated_level(
    theta_hat: MixtureParams, data, alpha: float, curve: BootstrapCurve
) -> SelectiveClustering:
    """Plug-in selection at the calibrated grid level of ``curve``."""
    post = posterior_matrix(theta_hat, data)
    if curve.chosen_index is None:
        return SelectiveClustering(
            labels=map_labels(post),
            t_values=post.t_values,
            selection=empty_selection(post.t_values),
            alpha=float(alpha),
        )
    working = float(curve.levels[curve.chosen_index])
    sc = select_and_label(post, working, "cumulative")
    return SelectiveClustering(
        labels=sc.labels, t_values=sc.t_values, selection=sc.selection, alpha=float(alpha)
    )


def write_curve_csv(curve: BootstrapCurve, path) -> None:
    """CSV with columns level, fcr_hat."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "fcr_hat"])
        for lv, fh_val in zip(curve.levels, curve.fcr_hat):
            writer.writerow([repr(float(lv)), repr(float(fh_val))])
