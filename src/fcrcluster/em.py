"""EM fitting of Gaussian and Student-t mixtures under constraint regimes.

Initialization is multi-start k-means++ with the hard assignment converted to
one-hot responsibilities for the first M-step.  Constraint regimes:

* ``known``     -- weights and covariances are supplied and held fixed,
                   only the means are estimated;
* ``spherical`` -- each covariance is a scalar multiple of the identity;
* ``diagonal``  -- per-coordinate variances;
* ``full``      -- unconstrained covariance matrices.

Student-t fitting keeps the degrees of freedom fixed (default 4) and uses the
standard per-item precision weights in the M-step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .mixtures import (
    GAUSSIAN,
    STUDENT_T,
    ComponentParams,
    MixtureParams,
    _check_weights,
    _factorize,
    _log_weighted,
    _normalize,
    mixture_to_json,
    regularize_scatter,
    validate_data,
)

FAMILIES = (GAUSSIAN, "student")


@dataclass
class EmConfig:
    """Settings for multi-start EM.

    ``rel_tol`` enables an early stop on the relative log-likelihood gain;
    set it to ``None`` to always run ``max_iter`` iterations.  ``family``
    selects the component family for :func:`fit_mixture`.
    """

    family: str = GAUSSIAN
    structure: str = "full"
    max_iter: int = 100
    n_starts: int = 10
    rel_tol: float | None = 1e-8
    dof: float = 4.0
    known_weights: np.ndarray | None = None
    known_covariances: tuple[np.ndarray, ...] | None = None
    seed: int | None = None

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.structure not in ("known", "spherical", "diagonal", "full"):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.structure == "known" and self.known_covariances is None:
            raise ValueError("structure 'known' requires known_covariances")
        if self.family == "student" and not self.dof > 2.0:
            raise ValueError("Student-t dof must exceed 2")


@dataclass
class FitResult:
    """Best-of-starts EM outcome.

    ``loglik_trace`` is the per-iteration log-likelihood of the winning
    start (non-decreasing up to 1e-8 slack); ``n_reinits`` counts degenerate
    components that were re-seeded at a random data point.
    """

    params: MixtureParams
    loglik_trace: np.ndarray
    n_starts_run: int
    converged: bool
    n_reinits: int = 0

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


def _project_cov(cov: np.ndarray, structure: str) -> np.ndarray:
    d = cov.shape[0]
    if structure == "spherical":
        return (float(np.trace(cov)) / d) * np.eye(d)
    if structure == "diagonal":
        return np.diag(np.diag(cov))
    return cov


def _safe_cov(x: np.ndarray) -> np.ndarray:
    """Overall data covariance with an identity fallback for flat data."""
    d = x.shape[1]
    if x.shape[0] < 2:
        return np.eye(d)
    cov = np.cov(x, rowvar=False, ddof=0).reshape(d, d)
    if not np.all(np.isfinite(cov)) or np.trace(cov) <= 0:
        return np.eye(d)
    return cov


def _check_rows(data, q: int) -> np.ndarray:
    x = validate_data(data)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if x.shape[0] < q:
        raise ValueError(f"need at least q={q} rows, got {x.shape[0]}")
    return x


def _kmeanspp(x: np.ndarray, q: int, rng: np.random.Generator):
    """k-means++ centres (D^2 weighting; the sample mean if q=1), each row's nearest."""
    n = x.shape[0]
    if q == 1:
        centers = x.mean(axis=0, keepdims=True)
    else:
        chosen = [int(rng.integers(n))]
        d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
        for _ in range(q - 1):
            total = float(d2.sum())
            if total <= 0.0:  # every row equals a chosen centre
                raise ValueError(f"need at least q={q} distinct rows")
            pick = int(rng.choice(n, p=d2 / total))
            chosen.append(pick)
            d2 = np.minimum(d2, ((x - x[pick]) ** 2).sum(axis=1))
        centers = x[np.array(chosen)]
    dist2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return centers, np.argmin(dist2, axis=1)


def _pooled(x: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    diff = x - centers[assign]
    pooled = (diff.T @ diff) / x.shape[0]
    if np.trace(pooled) <= 0:
        pooled = _safe_cov(x)
    return pooled


def kmeanspp_init(
    data,
    q: int,
    rng: np.random.Generator,
    structure: str = "full",
    known_covariances: tuple[np.ndarray, ...] | None = None,
    family: str = GAUSSIAN,
    dof: float = 4.0,
) -> MixtureParams:
    """k-means++ seeded mixture initialization.

    Centers are chosen by D^2 weighting (the single-center case uses the
    sample mean, the one-step fixed point).  Weights start uniform and every
    component starts at the pooled within-assignment covariance, projected
    onto the active structure.
    """
    x = _check_rows(data, q)
    centers, assign = _kmeanspp(x, q, rng)
    scatters = (known_covariances if structure == "known"
                else [_project_cov(_pooled(x, centers, assign), structure)] * q)
    dof = float(dof) if family == "student" else None
    return _to_params((np.full(q, 1.0 / q), centers, scatters), dof, structure)


# The EM iterate is a plain tuple (weights, means, scatters, chols, log_dets)
# with shapes (Q,), (Q, d), (Q, d, d), (Q, d, d), (Q,), plus one dof (None for
# Gaussian).  Scatters are regularized once when they are made; mixture
# parameters are built, and so validated, only when a fit returns.


def _factored(scatters: np.ndarray):
    chols, log_dets = zip(*map(_factorize, scatters))
    return scatters, np.stack(chols), np.array(log_dets)


def _theta(params: MixtureParams):
    comps = params.components
    means = np.stack([c.mean for c in comps])
    return (params.weights, means, *_factored(np.stack([c.scatter for c in comps])))


def _to_params(theta, dof: float | None, structure: str) -> MixtureParams:
    weights, means, scatters = theta[:3]
    kind = GAUSSIAN if dof is None else STUDENT_T
    comps = tuple(
        ComponentParams(kind=kind, mean=m, scatter=s, dof=dof)
        for m, s in zip(means, scatters)
    )
    return MixtureParams(weights=weights, components=comps, structure=structure)


def _e_step(theta, dof: float | None, x: np.ndarray):
    """Responsibilities, squared Mahalanobis (Student-t only), log-likelihood."""
    weights, means, _, chols, log_dets = theta
    mahal = None if dof is None else np.empty((x.shape[0], len(weights)))
    lw = _log_weighted(
        x, np.log(weights), means, chols, log_dets, (dof,) * len(weights), mahal
    )
    probs, loglik = _normalize(lw)
    return np.maximum(probs, 1e-300), mahal, loglik


def _m_step(
    x: np.ndarray,
    resp: np.ndarray,
    mahal: np.ndarray | None,
    cfg: EmConfig,
    dof: float | None,
    known,
    rng: np.random.Generator,
):
    """One constrained M-step; returns the new iterate and the reinit count.

    A component is re-seeded at a random data point when its responsibility
    mass collapses below 1/n or its updated scatter degenerates (EM driving
    a covariance to singularity).  ``known`` holds the factored known
    covariances, or ``None`` when covariances are estimated.
    """
    n, d = x.shape
    qn = resp.shape[1]
    mass = resp.sum(axis=0)
    w = resp if dof is None else resp * ((dof + d) / (dof + mahal))
    means = (w.T @ x) / w.sum(axis=0)[:, None]

    reinit: list[int] = []
    scatters = np.empty((qn, d, d))
    for q in range(qn):
        ok = mass[q] >= 1.0 / n
        if ok and known is None:
            diff = x - means[q]
            cov = (w[:, q, None] * diff).T @ diff / mass[q]
            try:
                scatters[q] = regularize_scatter(_project_cov(cov, cfg.structure))
            except ValueError:
                ok = False
        if not ok:
            reinit.append(q)
            means[q] = x[int(rng.integers(n))]
            if known is None:
                scatters[q] = regularize_scatter(_project_cov(_safe_cov(x), cfg.structure))
    scatters, chols, log_dets = known or _factored(scatters)

    if cfg.known_weights is not None:
        weights = np.asarray(cfg.known_weights, dtype=float)
    else:
        weights = mass / n
        if reinit:
            weights[reinit] = np.maximum(weights[reinit], 1.0 / n)
            weights = weights / weights.sum()
    return (weights, means, scatters, chols, log_dets), len(reinit)


def _known_factors(cfg: EmConfig, q: int):
    """Check the known weights and covariances against ``q``, once per fit.

    Returns the known covariances regularized and factored, or ``None`` when
    covariances are estimated.
    """
    if cfg.known_weights is not None:
        _check_weights(np.asarray(cfg.known_weights, dtype=float), q)
    if cfg.structure != "known":
        return None
    if len(cfg.known_covariances) != q:
        raise ValueError(f"known_covariances must hold q={q} matrices")
    return _factored(np.stack([regularize_scatter(c) for c in cfg.known_covariances]))


def _run_start(x: np.ndarray, q: int, cfg: EmConfig, known, rng: np.random.Generator):
    centers, assign = _kmeanspp(x, q, rng)
    dof = float(cfg.dof) if cfg.family == "student" else None
    # first M-step from the hard k-means++ assignment; only the Student-t
    # M-step reads the Mahalanobis distances under the initial scatter: the
    # known one, or the projected pooled one, factored once for all components
    mahal0 = None
    if dof is not None:
        if known is None:
            pooled = _project_cov(_pooled(x, centers, assign), cfg.structure)
            chol, log_det = _factorize(regularize_scatter(pooled))
            chols, log_dets = (chol,) * q, (log_det,) * q
        else:
            _, chols, log_dets = known
        mahal0 = np.empty((x.shape[0], q))
        _log_weighted(x, np.zeros(q), centers, chols, log_dets, (dof,) * q, mahal0)
    theta, n_reinit = _m_step(x, np.eye(q)[assign], mahal0, cfg, dof, known, rng)

    trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iter):
        resp, mahal, ll = _e_step(theta, dof, x)
        trace.append(ll)
        if (
            len(trace) > 1
            and cfg.rel_tol is not None
            and ll - trace[-2] <= cfg.rel_tol * max(abs(trace[-2]), 1e-300)
        ):
            converged = True
            break
        theta, k = _m_step(x, resp, mahal, cfg, dof, known, rng)
        n_reinit += k
    if not converged:
        trace.append(_e_step(theta, dof, x)[2])
    return theta, dof, trace, converged, n_reinit


def fit_mixture(
    data, q: int, config: EmConfig | None = None, rng: np.random.Generator | None = None
) -> FitResult:
    """Multi-start EM fit; the start with the highest log-likelihood wins.

    Start-level RNG streams are split deterministically from the seed, so
    the result does not depend on evaluation order.
    """
    cfg = config or EmConfig()
    cfg.validate()
    x = _check_rows(data, q)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    streams = rng.spawn(cfg.n_starts)
    known = _known_factors(cfg, q)
    best = None
    for s in range(cfg.n_starts):
        theta, dof, trace, converged, n_re = _run_start(x, q, cfg, known, streams[s])
        if best is None or trace[-1] > best[2][-1]:
            best = (theta, dof, trace, converged, n_re)
    theta, dof, trace, converged, n_re = best
    return FitResult(
        params=_to_params(theta, dof, cfg.structure),
        loglik_trace=np.asarray(trace, dtype=float),
        n_starts_run=cfg.n_starts,
        converged=converged,
        n_reinits=n_re,
    )


def em_fit(data, q: int, config: EmConfig | None = None,
           rng: np.random.Generator | None = None) -> FitResult:
    """Gaussian-mixture EM (family forced to Gaussian)."""
    cfg = replace(config or EmConfig(), family=GAUSSIAN)
    return fit_mixture(data, q, cfg, rng)


def student_em_fit(data, q: int, config: EmConfig | None = None,
                   rng: np.random.Generator | None = None) -> FitResult:
    """Student-t mixture EM with fixed dof (family forced to Student)."""
    cfg = replace(config or EmConfig(), family="student")
    return fit_mixture(data, q, cfg, rng)


def em_steps(
    data,
    params: MixtureParams,
    cfg: EmConfig,
    n_iter: int,
    rng: np.random.Generator,
) -> MixtureParams:
    """Run ``n_iter`` EM iterations from ``params`` (warm start, one start)."""
    x = validate_data(data)
    known = _known_factors(cfg, params.q)
    theta, dof = _theta(params), params.components[0].dof
    for _ in range(n_iter):
        resp, mahal, _ = _e_step(theta, dof, x)
        theta, _ = _m_step(x, resp, mahal, cfg, dof, known, rng)
    return _to_params(theta, dof, cfg.structure)


def save_fit(result: FitResult, params_path, trace_path=None) -> None:
    """Write fitted parameters as JSON and, optionally, the trace as CSV."""
    with open(params_path, "w") as fh:
        json.dump(mixture_to_json(result.params), fh, indent=2)
        fh.write("\n")
    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loglik"])
            for i, v in enumerate(result.loglik_trace):
                writer.writerow([i, repr(float(v))])
