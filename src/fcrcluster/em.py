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

import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .mixtures import (
    GAUSSIAN,
    STRUCTURES,
    STUDENT_T,
    ComponentParams,
    MixtureParams,
    _check_count,
    _check_weights,
    _check_width,
    _factorize,
    _log_weighted,
    _normalize,
    _regularize,
    _regularize_diagonal,
    _regularized,
    _theta,
    _write_csv,
    regularize_scatter,
    save_mixture_json,
    validate_data,
)

FAMILIES = (GAUSSIAN, "student")


@dataclass
class EmConfig:
    """Settings for multi-start EM.

    ``rel_tol`` enables an early stop once the log-likelihood changes by at
    most that much relative (a larger drop does not stop); set it to
    ``None`` to always run ``max_iter`` iterations; otherwise it is a finite
    number >= 0.  ``family`` selects the component family for
    :func:`fit_mixture`, and a Student-t ``dof`` is finite and exceeds 2.
    """

    family: str = GAUSSIAN
    structure: str = "full"
    max_iter: int = 100
    n_starts: int = 10
    rel_tol: float | None = 1e-8
    dof: float = 4.0
    known_weights: np.ndarray | None = None
    known_covariances: tuple[np.ndarray, ...] | None = None

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        for name in ("max_iter", "n_starts"):
            _check_count(name, getattr(self, name))
        if self.structure == "known" and self.known_covariances is None:
            raise ValueError("structure 'known' requires known_covariances")
        tol = self.rel_tol
        if tol is not None and not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
            raise ValueError(f"rel_tol must be None or a finite number >= 0, got {tol!r}")
        if self.family == "student" and not 2.0 < self.dof < math.inf:
            raise ValueError(f"Student-t dof must exceed 2 and be finite, got {self.dof!r}")


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


_FAR_ROWS = "rows lie too far apart: their squared distances overflow (rescale the data)"


def _kmeanspp(x: np.ndarray, q: int, rng: np.random.Generator):
    """k-means++ centres (D^2 weighting; the sample mean if q=1), each row's nearest.

    Rows so far apart that their squared distances overflow raise ``ValueError``.
    """
    n = x.shape[0]
    with np.errstate(over="ignore"):
        if q == 1:
            centers = x.mean(axis=0, keepdims=True)
        else:
            chosen = [int(rng.integers(n))]
            d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
            for _ in range(q - 1):
                total = float(d2.sum())
                if total <= 0.0:  # every row equals a chosen centre
                    raise ValueError(f"need at least q={q} distinct rows")
                if not np.isfinite(total):
                    raise ValueError(_FAR_ROWS)
                pick = int(rng.choice(n, p=d2 / total))
                chosen.append(pick)
                d2 = np.minimum(d2, ((x - x[pick]) ** 2).sum(axis=1))
            centers = x[np.array(chosen)]
        dist2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    if not np.isfinite(dist2).all():
        raise ValueError(_FAR_ROWS)
    return centers, np.argmin(dist2, axis=1)


def _pooled(x: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    diff = x - centers[assign]
    pooled = (diff.T @ diff) / x.shape[0]
    if np.trace(pooled) <= 0:
        pooled = _safe_cov(x)
    return pooled


# The EM iterate is a stack of R independent runs: a tuple (weights, means,
# scatters, chols, log_dets) with shapes (R, Q), (R, Q, d), (R, Q, d, d),
# (R, Q, d, d), (R, Q), plus one dof shared by the runs (None for Gaussian).
# The data are each run's rows, (R, n, d): a zero-stride view of one (n, d)
# array when the runs share them, as the starts of a fit do.  The per-item arrays
# (responsibilities, Mahalanobis distances) are component-major, (R, Q, n),
# so elementwise work and reductions over components run over whole rows.
# Each step makes one pass of numpy calls for the whole stack: elementwise
# operations over whole component rows (Mahalanobis distances, pair moments),
# reductions over rows or coordinates in a fixed order, and stacked products
# and factorizations that make one BLAS or LAPACK call per slice (the means,
# Cholesky, the eigenvalue floor); so every run computes the bits it would
# compute alone, and a large stack of fresh starts can be split into pieces
# of runs that iterate in threads (``_fit_runs``).  A warm stack is never
# split: its runs' saved streams share the bootstrap generator.  Diagonal and
# spherical scatters are estimated, floored and factored from their
# diagonals alone.  Scatters are regularized once when they are made;
# mixture parameters are built, and so validated, only when a fit returns.


@dataclass(eq=False)
class _Run:
    """One EM run of a stack: its own stream, its trace and its outcome."""

    rng: np.random.Generator
    trace: list[float] = field(default_factory=list)
    n_reinits: int = 0
    converged: bool = False
    theta: tuple | None = None  # the final iterate, without the run axis
    probs: np.ndarray | None = None  # the responsibilities of its last E-step
    error: Exception | None = None


def _dof(cfg: EmConfig) -> float | None:
    return float(cfg.dof) if cfg.family == "student" else None


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
    mahal = None if dof is None else np.empty((runs, qn, x.shape[-2]))
    lw = _log_weighted(
        x, np.log(weights), means, chols, log_dets, (dof,) * qn, mahal
    )
    probs, loglik = _normalize(lw)
    return np.maximum(probs, 1e-300, out=probs), mahal, loglik


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
    n_runs, qn, n = resp.shape
    d = x.shape[-1]
    diagonal = known is None and cfg.structure != "full"
    mass = resp.sum(axis=2)
    if dof is None:
        w, w_sum = resp, mass
    else:
        w = np.add(mahal, dof)
        np.divide(dof + d, w, out=w)
        w *= resp
        w_sum = w.sum(axis=2)
    means = np.matmul(w, x) / w_sum[..., None]
    ok = mass >= 1.0 / n
    if known is not None:
        scatters, chols, log_dets = (
            np.broadcast_to(a, (n_runs, *a.shape)) for a in known
        )
    else:
        # weighted pair moments sum_i w_i (x_ij - mu_j)(x_ik - mu_k), one reduction
        # over (R, Q, n) deviations per pair k <= j; diagonal structures take the
        # pairs j = k and carry their scatters as diagonals until they are factored
        dev = np.empty((d, *w.shape))
        wdj = np.empty_like(w)
        moments = np.empty((n_runs, qn, d, d))
        denom = np.where(ok, mass, 1.0)
        for j in range(d):
            np.subtract(x[:, None, :, j], means[..., j, None], out=dev[j])
            np.multiply(w, dev[j], out=wdj)
            for k in (j,) if diagonal else range(j + 1):
                moments[..., j, k] = moments[..., k, j] = (
                    np.einsum("...i,...i->...", wdj, dev[k]) / denom)
        if diagonal:
            moments = np.diagonal(moments, axis1=-2, axis2=-1).copy()
        if cfg.structure == "spherical":
            moments[:] = moments.sum(axis=-1, keepdims=True) / d
        scatters, fail = (_regularize_diagonal if diagonal else _regularize)(moments)
        ok &= fail == 0

    redo = ~ok
    while redo is not None:
        if redo.any():
            for r in np.flatnonzero(redo.any(axis=1)):
                for q in np.flatnonzero(redo[r]):
                    means[r, q] = x[r, int(runs[r].rng.integers(n))]
                    if known is None:
                        scatter = _regularized(_project_cov(_safe_cov(x[r]), cfg.structure))
                        scatters[r, q] = np.diagonal(scatter) if diagonal else scatter
                runs[r].n_reinits += int(redo[r].sum())
            ok &= ~redo
        redo = _duplicates(x, means, scatters, runs)
    if diagonal:
        scatters, chols, log_dets = _diagonal_factors(scatters)
    elif known is None:
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
    of its run in mean and scatter (full, or as its diagonal); ``None``
    when none does.

    A run with fewer than Q distinct rows cannot be rid of its duplicates:
    it gets that as its error instead.
    """
    n_runs, qn, d = means.shape
    eq = means[:, :, None] == means[:, None]
    if np.count_nonzero(eq) == n_runs * qn * d:  # no two means share a coordinate
        return None
    same = eq.all(axis=-1) & np.tri(qn, k=-1, dtype=bool)
    r, j, i = np.nonzero(same)
    cov_axes = tuple(range(1, scatters.ndim - 1))
    same[r, j, i] = (scatters[r, j] == scatters[r, i]).all(axis=cov_axes)
    dup = same.any(axis=2)
    for r in np.flatnonzero(dup.any(axis=1)):
        if runs[r].error is None and len(np.unique(x[r], axis=0)) < qn:
            runs[r].error = ValueError(f"need at least q={qn} distinct rows")
        dup[r] &= runs[r].error is None
    return dup if dup.any() else None


def _diagonal_factors(var: np.ndarray):
    """Scatters, lower Cholesky factors and log-determinants of a stack of
    floored diagonals (..., d): ``sqrt`` is what the Cholesky factorization
    of a diagonal matrix computes, bit for bit."""
    sd = np.sqrt(var)
    eye = np.eye(var.shape[-1])
    return var[..., None] * eye, sd[..., None] * eye, 2.0 * np.log(sd).sum(axis=-1)


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


def _known_factors(cfg: EmConfig, q: int, d: int):
    """Check the known weights and covariances against ``q`` and the data's
    dimension ``d``, once per fit.

    Returns the known covariances regularized and factored, or ``None`` when
    covariances are estimated.
    """
    if cfg.known_weights is not None:
        _check_weights(np.asarray(cfg.known_weights, dtype=float), q)
    if cfg.structure != "known":
        return None
    if len(cfg.known_covariances) != q:
        raise ValueError(f"known_covariances must hold q={q} matrices")
    if any(np.shape(c) != (d, d) for c in cfg.known_covariances):
        raise ValueError(f"known_covariances must be {d}x{d}, the data's dimension")
    scatters = np.stack([regularize_scatter(c) for c in cfg.known_covariances])
    return (scatters, *_factorize(scatters))


def _iterate(x, theta, dof, cfg: EmConfig, known, runs: list[_Run]):
    """EM on a stack of runs, each run on its own; fills in each run's
    ``theta`` and ``probs``.

    Each E-step's log-likelihood goes into the run's trace.  A run leaves the
    stack after an E-step, once it meets ``cfg.rel_tol`` or after
    ``cfg.max_iter`` M-steps, with a copy of that E-step's responsibilities
    (a view would keep the whole stack alive), handed out as the (n, Q) view
    of its component-major rows.  A run whose step fails leaves the stack
    with its error.
    """
    live = list(runs)
    x = np.broadcast_to(x, (len(runs), *x.shape[-2:]))

    def leave(stop, *stacks):
        nonlocal x, live
        keep = ~stop
        x = x[keep]
        live = [run for run, k in zip(live, keep) if k]
        return [None if a is None else a[keep] for a in stacks]

    for step in range(cfg.max_iter + 1):
        failed = np.array([run.error is not None for run in live])
        if failed.any():
            theta = tuple(leave(failed, *theta))
        if not live:
            break
        resp, mahal, ll = _e_step(theta, dof, x)
        done = np.full(len(live), step == cfg.max_iter)
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
                live[i].probs = resp[i].copy().T
            *theta, resp, mahal = leave(done, *theta, resp, mahal)
            if not live:
                break
        theta = _m_step(x, resp, mahal, cfg, dof, known, live)


# A stack of at least this many (run, component, row) elements is split
# across threads by ``_fit_runs``.  Below it the threads cost more than they
# save: split in two, 10 Gaussian full runs at n = 1000, d = 2, Q = 2 ran
# 0.84x as fast, and stacks of 132,000-240,000 elements 1.3-1.7x faster.
_THREAD_ELEMENTS = 1 << 17


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_runs(x, q: int, cfg: EmConfig, known, streams) -> list[_Run]:
    """EM runs from k-means++ starts, one per stream, stacked (``_fit_piece``),
    handed back in stream order.

    A stack of R runs on n rows is large when R * q * n reaches
    ``_THREAD_ELEMENTS``.  A large stack is cut into min(R, usable CPUs)
    contiguous pieces of runs, and each piece is a stack of its own in its
    own thread, the first in the calling thread; numpy releases the GIL in
    its loops over whole rows.  A run computes the same bits alone as in any
    stack, so the split moves none.  Each thread runs in a copy of the
    caller's context, which carries numpy's error state, and every thread is
    joined before the call returns.  When pieces raise, the error of the
    first of them is raised.
    """
    n_runs = len(streams)
    pieces = 1
    if n_runs * q * x.shape[-2] >= _THREAD_ELEMENTS:
        pieces = min(n_runs, _usable_cpus())
    if pieces == 1:
        return _fit_piece(x, q, cfg, known, streams)
    cuts = [i * n_runs // pieces for i in range(pieces + 1)]
    out: list = [None] * pieces

    def piece(i):
        a, b = cuts[i], cuts[i + 1]
        try:
            out[i] = _fit_piece(x if x.ndim == 2 else x[a:b], q, cfg, known, streams[a:b])
        except BaseException as exc:  # noqa: BLE001 - raised below, in piece order
            out[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(piece, i))
               for i in range(1, pieces)]
    for thread in threads:
        thread.start()
    try:
        piece(0)
    finally:
        for thread in threads:
            thread.join()
    for runs in out:
        if isinstance(runs, BaseException):
            raise runs
    return [run for runs in out for run in runs]


def _fit_piece(x, q: int, cfg: EmConfig, known, streams) -> list[_Run]:
    """EM runs from k-means++ starts, one per stream, as one stack.

    A run whose data have fewer than q distinct rows gets that as its error
    at its start and does not iterate.
    """
    runs, starts = [_Run(s) for s in streams], []
    x = np.broadcast_to(x, (len(runs), *x.shape[-2:]))
    for run, xr in zip(runs, x):
        try:
            starts.append(_kmeanspp(xr, q, run.rng))
        except ValueError as exc:
            run.error = exc
    begun = [run for run in runs if run.error is None]
    if not begun:
        return runs
    if len(begun) < len(runs):
        x = x[[run.error is None for run in runs]]
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
                _regularized(_project_cov(_pooled(*start), cfg.structure))
                for start in zip(x, centers, assign)
            ])
            chols, log_dets = (np.repeat(a[:, None], q, axis=1) for a in _factorize(pooled))
        else:
            chols, log_dets = (np.broadcast_to(a, (len(begun), *a.shape)) for a in known[1:])
        mahal = np.empty((len(begun), q, x.shape[-2]))
        _log_weighted(
            x, np.zeros((len(begun), q)), centers, chols, log_dets, (dof,) * q, mahal
        )
    one_hot = (assign[:, None, :] == np.arange(q)[:, None]).astype(float)
    theta = _m_step(x, one_hot, mahal, cfg, dof, known, begun)
    _iterate(x, theta, dof, cfg, known, begun)
    return runs


def _each(stack, xs: np.ndarray, groups=None, rewind=None) -> list:
    """Per dataset of ``xs``, what ``stack(xs, groups)`` gives it, or the error
    it raises alone; ``groups`` holds each dataset's streams.  A run computes
    the same bits alone as in a stack, so a stack raises only where one of its
    datasets raises alone: a stack that raised is redone one dataset at a
    time, on its streams rewound by ``rewind``.  A stack that did not raise
    is handed back as it is."""
    try:
        return stack(xs, groups)
    except Exception as exc:  # noqa: BLE001 - each dataset gets its own error below
        if len(xs) == 1:
            return [exc]
    out = []
    for i, x in enumerate(xs):
        try:
            out.extend(stack(x[None], groups and [rewind(groups[i])]))
        except Exception as exc:  # noqa: BLE001 - the dataset's own error
            out.append(exc)
    return out


def _fit_datasets(xs: np.ndarray, q: int, cfg: EmConfig, known, groups) -> list:
    """Multi-start EM on each dataset of ``xs`` (m, n, d), all starts in one
    stack, on each dataset's start streams in ``groups``: per dataset, its
    runs, from which ``_best`` picks its fit, or its error (``_each``, which
    redoes a stack on generators rebuilt from its streams' seed sequences).
    A dataset alone shares its rows among its starts as one view."""
    def stack(xs, groups):
        starts = len(groups[0])
        x = xs[0] if len(xs) == 1 else np.repeat(xs, starts, axis=0)
        runs = _fit_runs(x, q, cfg, known, [s for group in groups for s in group])
        return [runs[i:i + starts] for i in range(0, len(runs), starts)]

    return _each(stack, xs, groups, lambda group: [
        np.random.Generator(type(g.bit_generator)(g.bit_generator.seed_seq)) for g in group])


def _best(runs: list[_Run]) -> _Run:
    """The run with the highest final log-likelihood, the first on ties.

    The error of the first failed run is raised.
    """
    best = None
    for run in runs:
        if run.error is not None:
            raise run.error
        if best is None or run.trace[-1] > best.trace[-1]:
            best = run
    return best


def _check_rows(x: np.ndarray, q: int) -> None:
    """Raise ``ValueError`` unless ``1 <= q <= n`` for the rows ``x`` (n, d)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if x.shape[0] < q:
        raise ValueError(f"need at least q={q} rows, got {x.shape[0]}")


def _fit_settings(data, q: int, config: EmConfig | None):
    """The checks of a fit, made before it draws: returns its rows, its
    settings and its known factors (``_known_factors``)."""
    cfg = config or EmConfig()
    cfg.validate()
    x = validate_data(data)
    _check_rows(x, q)
    return x, cfg, _known_factors(cfg, q, x.shape[1])


def _fit_result(best: _Run, cfg: EmConfig) -> FitResult:
    """The fit whose winning run is ``best``; building its parameters validates them."""
    return FitResult(
        params=_to_params(best.theta, _dof(cfg), cfg.structure),
        loglik_trace=np.asarray(best.trace, dtype=float),
        n_starts_run=cfg.n_starts,
        converged=best.converged,
        n_reinits=best.n_reinits,
    )


def fit_mixture(
    data, q: int, config: EmConfig | None = None, rng: np.random.Generator | None = None
) -> FitResult:
    """Multi-start EM fit; the start with the highest log-likelihood wins.

    Start-level RNG streams are spawned from ``rng`` (fresh OS entropy when
    ``None``), and the starts iterate as one stack in which each computes
    what it would alone, so the result does not depend on evaluation order.
    This is the one-dataset call of the stack that fits a block of datasets.
    """
    x, cfg, known = _fit_settings(data, q, config)
    streams = np.random.default_rng(rng).spawn(cfg.n_starts)
    (runs,) = _fit_datasets(x[None], q, cfg, known, [streams])
    if isinstance(runs, Exception):
        raise runs
    return _fit_result(_best(runs), cfg)


def em_steps(
    data,
    params: MixtureParams,
    cfg: EmConfig,
    n_iter: int,
    rng: np.random.Generator,
) -> MixtureParams:
    """Run ``n_iter`` EM iterations from ``params`` (warm start, one start):
    the fit loop with ``max_iter=n_iter`` and no early stop."""
    x = validate_data(data)
    _check_width(x, params.dim)
    dof = _warm_dof(params)
    known = _known_factors(cfg, params.q, x.shape[1])
    runs = _warm_runs(x, _theta(params), dof, cfg, n_iter, known, [rng])
    return _to_params(_best(runs).theta, dof, cfg.structure)


def _warm_dof(params: MixtureParams) -> float | None:
    """The one dof of every component, ``None`` for Gaussians, that a warm start keeps."""
    dofs = {c.dof for c in params.components}
    if len(dofs) > 1:
        raise ValueError("a warm start needs components of one kind and dof")
    return dofs.pop()


def _warm_runs(x, theta, dof, cfg: EmConfig, n_iter: int, known, streams) -> list[_Run]:
    """Warm starts, stacked: one run per stream of ``n_iter`` EM iterations
    from its slice of ``theta``, with no early stop.  The stack is never split
    across threads: the bootstrap's saved streams set and read the state of
    one shared generator."""
    runs = [_Run(s) for s in streams]
    _iterate(x, theta, dof, replace(cfg, max_iter=n_iter, rel_tol=None), known, runs)
    return runs


def save_fit(result: FitResult, params_path, trace_path=None) -> None:
    """Write fitted parameters as JSON and, optionally, the trace as CSV."""
    save_mixture_json(result.params, params_path)
    if trace_path is not None:
        _write_csv(trace_path, ["iteration", "loglik"], enumerate(result.loglik_trace))
