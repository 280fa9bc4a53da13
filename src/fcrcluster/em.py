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
from dataclasses import dataclass, field, replace

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
    _regularize,
    mixture_to_json,
    regularize_scatter,
    validate_data,
)

FAMILIES = (GAUSSIAN, "student")


@dataclass
class EmConfig:
    """Settings for multi-start EM.

    ``rel_tol`` enables an early stop once the log-likelihood changes by at
    most that much relative (a larger drop does not stop); set it to
    ``None`` to always run ``max_iter`` iterations.  ``family`` selects the
    component family for :func:`fit_mixture`.
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
    start (non-decreasing up to 1e-8 slack, except that it may drop at a
    step that re-seeded a component); ``n_reinits`` counts degenerate
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
    """Project a covariance, or a stack of them (..., d, d), onto ``structure``."""
    d = cov.shape[-1]
    if structure == "spherical":
        return (np.trace(cov, axis1=-2, axis2=-1) / d)[..., None, None] * np.eye(d)
    if structure == "diagonal":
        out = np.zeros_like(cov)
        i = np.arange(d)
        out[..., i, i] = cov[..., i, i]
        return out
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


# The EM iterate is a stack of R independent runs: a tuple (weights, means,
# scatters, chols, log_dets) with shapes (R, Q), (R, Q, d), (R, Q, d, d),
# (R, Q, d, d), (R, Q), plus one dof shared by the runs (None for Gaussian).
# The data are shared, (n, d), or per run, (R, n, d).  Each step makes one
# pass of numpy calls for the whole stack; the triangular solves go slice by
# slice, and stacked products and factorizations make one LAPACK or BLAS call
# per slice, so every run computes the bits it would compute alone.  Scatters
# are regularized once when they are made; mixture parameters are built, and
# so validated, only when a fit returns.


@dataclass(eq=False)
class _Run:
    """One EM run of a stack: its own stream, its trace and its outcome."""

    rng: np.random.Generator
    trace: list[float] = field(default_factory=list)
    n_reinits: int = 0
    converged: bool = False
    theta: tuple | None = None  # the final iterate, without the run axis
    error: Exception | None = None


def _dof(cfg: EmConfig) -> float | None:
    return float(cfg.dof) if cfg.family == "student" else None


def _rows(x: np.ndarray, r: int) -> np.ndarray:
    return x if x.ndim == 2 else x[r]


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of an (R, n, Q) stack, bit for bit.

    For Q >= 2 numpy adds the rows in order, one short inner loop per row;
    the same order over a transposed copy runs ~10x faster.  For Q = 1 it
    sums each run pairwise, which the plain reduction does fast.
    """
    if a.shape[2] == 1:
        return a.sum(axis=1)
    return np.ascontiguousarray(a.transpose(1, 0, 2)).sum(axis=0)


def _theta(params: MixtureParams):
    comps = params.components
    scatters = np.stack([c.scatter for c in comps])[None]
    means = np.stack([c.mean for c in comps])[None]
    return (params.weights[None], means, scatters, *_factorize(scatters))


def _to_params(theta, dof: float | None, structure: str) -> MixtureParams:
    weights, means, scatters = theta[:3]
    kind = GAUSSIAN if dof is None else STUDENT_T
    comps = tuple(
        ComponentParams(kind=kind, mean=m, scatter=s, dof=dof)
        for m, s in zip(means, scatters)
    )
    return MixtureParams(weights=weights, components=comps, structure=structure)


def _e_step(theta, dof: float | None, x: np.ndarray):
    """Responsibilities, squared Mahalanobis (Student-t only), log-likelihoods."""
    weights, means, _, chols, log_dets = theta
    runs, qn = weights.shape
    mahal = None if dof is None else np.empty((runs, x.shape[-2], qn))
    lw = _log_weighted(
        x, np.log(weights), means, chols, log_dets, (dof,) * qn, mahal
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
    runs: list[_Run],
):
    """One constrained M-step on a stack; returns the new iterate.

    A component is re-seeded at a random row of its run's data, drawn from
    the run's own stream in component order, when its responsibility mass
    collapses below 1/n or its updated scatter fails a check of
    ``regularize_scatter`` (EM driving a covariance to singularity), then
    until none is left when it duplicates another (``_duplicates``).  Each
    run counts its reinits; a run whose factorization fails gets the error.
    ``known`` holds the factored known covariances, or ``None`` when
    covariances are estimated.
    """
    n_runs, n, qn = resp.shape
    d = x.shape[-1]
    mass = _sum_rows(resp)
    if dof is None:
        w, w_sum = resp, mass
    else:
        w = resp * ((dof + d) / (dof + mahal))
        w_sum = _sum_rows(w)
    means = np.matmul(w.transpose(0, 2, 1), x) / w_sum[..., None]
    ok = mass >= 1.0 / n
    if known is None:
        # one (d, n) @ (n, d) product per run and component, as one matmul
        diff = (x if x.ndim == 2 else x[:, None]) - means[:, :, None, :]
        wdiff = w.transpose(0, 2, 1)[..., None] * diff
        covs = np.matmul(wdiff.swapaxes(-1, -2), diff)
        covs /= np.where(ok, mass, 1.0)[..., None, None]
        del diff, wdiff
        scatters, fail = _regularize(_project_cov(covs, cfg.structure))
        ok &= fail == 0
    else:
        scatters, chols, log_dets = (
            np.broadcast_to(a, (n_runs, *a.shape)) for a in known
        )

    redo = ~ok
    while redo is not None:
        if redo.any():
            for r in np.flatnonzero(redo.any(axis=1)):
                xr = _rows(x, r)
                for q in np.flatnonzero(redo[r]):
                    means[r, q] = xr[int(runs[r].rng.integers(n))]
                    if known is None:
                        scatters[r, q] = regularize_scatter(
                            _project_cov(_safe_cov(xr), cfg.structure)
                        )
                runs[r].n_reinits += int(redo[r].sum())
            ok &= ~redo
        redo = _duplicates(x, means, scatters, runs)
    if known is None:
        chols, log_dets = _factor_runs(scatters, runs)

    if cfg.known_weights is not None:
        weights = np.tile(np.asarray(cfg.known_weights, dtype=float), (n_runs, 1))
    else:
        weights = mass / n
        for r in np.flatnonzero(~ok.all(axis=1)):
            lifted = ~ok[r]
            weights[r, lifted] = np.maximum(weights[r, lifted], 1.0 / n)
            weights[r] = weights[r] / weights[r].sum()
    return weights, means, scatters, chols, log_dets


def _duplicates(x, means: np.ndarray, scatters: np.ndarray, runs: list[_Run]):
    """Per run and component of a stack, whether it equals an earlier one
    of its run in mean and scatter; ``None`` when none does.

    A run with fewer than Q distinct rows cannot be rid of its duplicates:
    it gets that as its error instead.
    """
    n_runs, qn, d = means.shape
    eq = means[:, :, None] == means[:, None]
    if np.count_nonzero(eq) == n_runs * qn * d:  # no two means share a coordinate
        return None
    same = eq.all(axis=-1) & np.tri(qn, k=-1, dtype=bool)
    r, j, i = np.nonzero(same)
    same[r, j, i] = (scatters[r, j] == scatters[r, i]).all(axis=(-2, -1))
    dup = same.any(axis=2)
    for r in np.flatnonzero(dup.any(axis=1)):
        if runs[r].error is None and len(np.unique(_rows(x, r), axis=0)) < qn:
            runs[r].error = ValueError(f"need at least q={qn} distinct rows")
        dup[r] &= runs[r].error is None
    return dup if dup.any() else None


def _factor_runs(scatters: np.ndarray, runs: list[_Run]):
    """``_factorize`` per run of a stack; a run whose factorization fails gets the error."""
    try:
        return _factorize(scatters)
    except np.linalg.LinAlgError:
        pass
    chols = np.zeros_like(scatters)
    log_dets = np.zeros(scatters.shape[:2])
    for r, run in enumerate(runs):
        try:
            chols[r], log_dets[r] = _factorize(scatters[r])
        except np.linalg.LinAlgError as exc:
            run.error = exc
    return chols, log_dets


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
    scatters = np.stack([regularize_scatter(c) for c in cfg.known_covariances])
    return (scatters, *_factorize(scatters))


def _iterate(
    x, theta, dof, cfg: EmConfig, known, runs: list[_Run], n_iter: int, fit: bool
):
    """EM on a stack of runs, each run on its own; fills in each run's ``theta``.

    With ``fit`` each E-step's log-likelihood goes into the run's trace, a run
    leaves the stack once it meets ``cfg.rel_tol`` or after ``n_iter``
    M-steps and a last E-step; without it every run makes exactly ``n_iter``
    E- and M-steps.  A run whose step fails leaves the stack with its error.
    """
    live = list(runs)

    def leave(stop, *stacks):
        nonlocal x, live
        keep = ~stop
        x = x if x.ndim == 2 else x[keep]
        live = [run for run, k in zip(live, keep) if k]
        return [None if a is None else a[keep] for a in stacks]

    for step in range(n_iter + 1):
        failed = np.array([run.error is not None for run in live])
        if failed.any():
            theta = tuple(leave(failed, *theta))
        if not live or (step == n_iter and not fit):
            break
        resp, mahal, ll = _e_step(theta, dof, x)
        if fit:
            done = np.full(len(live), step == n_iter)
            for i, (run, v) in enumerate(zip(live, ll.tolist())):
                trace = run.trace
                trace.append(v)
                if (
                    not done[i]
                    and len(trace) > 1
                    and cfg.rel_tol is not None
                    and abs(v - trace[-2]) <= cfg.rel_tol * max(abs(trace[-2]), 1e-300)
                ):
                    run.converged = done[i] = True
            if done.any():
                for i in np.flatnonzero(done):
                    live[i].theta = tuple(a[i] for a in theta)
                *theta, resp, mahal = leave(done, *theta, resp, mahal)
            if not live:
                break
        theta = _m_step(x, resp, mahal, cfg, dof, known, live)
    for i, run in enumerate(live):
        run.theta = tuple(a[i] for a in theta)


def _fit_runs(x, q: int, cfg: EmConfig, known, streams, starts) -> list[_Run]:
    """EM runs from k-means++ starts ``(centers, assign)``, one per stream, stacked."""
    runs = [_Run(s) for s in streams]
    dof = _dof(cfg)
    centers = np.stack([c for c, _ in starts])
    assign = np.stack([a for _, a in starts])
    # first M-step from the hard k-means++ assignment; only the Student-t
    # M-step reads the Mahalanobis distances under the initial scatter: the
    # known one, or the projected pooled one, factored once for all components
    mahal = None
    if dof is not None:
        if known is None:
            pooled = np.stack([
                regularize_scatter(_project_cov(
                    _pooled(_rows(x, r), centers[r], assign[r]), cfg.structure))
                for r in range(len(runs))
            ])
            chols, log_dets = (np.repeat(a[:, None], q, axis=1) for a in _factorize(pooled))
        else:
            chols, log_dets = (np.broadcast_to(a, (len(runs), *a.shape)) for a in known[1:])
        mahal = np.empty((len(runs), x.shape[-2], q))
        _log_weighted(
            x, np.zeros((len(runs), q)), centers, chols, log_dets, (dof,) * q, mahal
        )
    theta = _m_step(x, np.eye(q)[assign], mahal, cfg, dof, known, runs)
    _iterate(x, theta, dof, cfg, known, runs, cfg.max_iter, fit=True)
    return runs


def _best(runs: list[_Run], cfg: EmConfig) -> FitResult:
    """The run with the highest final log-likelihood, the first on ties.

    The error of the first failed run is raised.
    """
    best = None
    for run in runs:
        if run.error is not None:
            raise run.error
        if best is None or run.trace[-1] > best.trace[-1]:
            best = run
    return FitResult(
        params=_to_params(best.theta, _dof(cfg), cfg.structure),
        loglik_trace=np.asarray(best.trace, dtype=float),
        n_starts_run=len(runs),
        converged=best.converged,
        n_reinits=best.n_reinits,
    )


def fit_mixture(
    data, q: int, config: EmConfig | None = None, rng: np.random.Generator | None = None
) -> FitResult:
    """Multi-start EM fit; the start with the highest log-likelihood wins.

    Start-level RNG streams are split deterministically from the seed, and
    the starts iterate as one stack in which each computes what it would
    alone, so the result does not depend on evaluation order.
    """
    cfg = config or EmConfig()
    cfg.validate()
    x = _check_rows(data, q)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    streams = rng.spawn(cfg.n_starts)
    known = _known_factors(cfg, q)
    starts = [_kmeanspp(x, q, s) for s in streams]
    return _best(_fit_runs(x, q, cfg, known, streams, starts), cfg)


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
    dof = params.components[0].dof
    run = _Run(rng)
    _iterate(x, _theta(params), dof, cfg, known, [run], n_iter, fit=False)
    if run.error is not None:
        raise run.error
    return _to_params(run.theta, dof, cfg.structure)


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
