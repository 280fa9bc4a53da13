"""Finite mixtures of Gaussian and Student-t components.

Parameter containers are immutable dataclasses over numpy arrays.  All
density work happens in log space and mixture normalization goes through
log-sum-exp, so posterior class probabilities stay finite even hundreds of
standard deviations away from every component.

Cluster labels are integers ``0 .. Q-1`` everywhere in this package.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"
COMPONENT_KINDS = (GAUSSIAN, STUDENT_T)

# Covariance structures, used both as estimation constraints and as metadata
# on fitted parameters.
STRUCTURES = ("known", "spherical", "diagonal", "full")

_LOG_2PI = math.log(2.0 * math.pi)


_SCATTER_ERRORS = (
    None,
    "scatter must be finite",
    "scatter must be symmetric",
    "scatter must be positive definite",
)


def regularize_scatter(scatter) -> np.ndarray:
    """Symmetrize ``scatter`` and lift its eigenvalues to the stability floor.

    Near-singular matrices (as produced by EM on degenerate clusters) are
    repaired silently, with low eigenvalues lifted to twice the floor
    ``1e-8 * trace / d`` so the result is a fixed point of this function;
    materially asymmetric or non-positive-definite input, or a scatter so
    small that its floor is not a normal float, raises ``ValueError``.
    """
    s = np.asarray(scatter, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"scatter must be a square matrix, got shape {s.shape}")
    return _regularized(s)


def _regularized(s: np.ndarray) -> np.ndarray:
    """``regularize_scatter`` of one float (d, d) matrix, for callers inside
    the package: the threads of a split EM stack call no public function,
    since a wrapper around one (the benchmark's tracer keeps one span stack)
    may assume one thread."""
    out, fail = _regularize(s[None])
    if fail[0]:
        raise ValueError(_SCATTER_ERRORS[fail[0]])
    return out[0]


def _regularize(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``regularize_scatter`` over a stack (..., d, d) of matrices, with one ``eigh``.

    Returns the regularized stack and, per matrix, 0 or the index in
    ``_SCATTER_ERRORS`` of the first check it fails; a failed matrix comes
    back as the identity.
    """
    eye = np.eye(s.shape[-1])
    fail = np.where(np.isfinite(s).all(axis=(-2, -1)), 0, 1)
    s = np.where(fail[..., None, None] == 0, s, eye)
    t = s.swapaxes(-1, -2)
    scale = np.abs(s).max(axis=(-2, -1))
    asym = np.abs(s - t).max(axis=(-2, -1)) > 1e-8 * np.maximum(scale, 1.0)
    fail[(fail == 0) & asym] = 2
    sym = 0.5 * (s + t)
    evals, evecs = np.linalg.eigh(sym)
    fire, lam = _floor(evals, evals[..., 0], np.trace(sym, axis1=-2, axis2=-1), fail)
    if lam is not None:
        v = evecs[fire]
        lifted = (v * lam[:, None, :]) @ v.swapaxes(-1, -2)
        sym[fire] = 0.5 * (lifted + lifted.swapaxes(-1, -2))
    sym[fail != 0] = eye
    return sym, fail


def _regularize_diagonal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_regularize`` for a stack of diagonal scatters, given as their
    diagonals (..., d): the same checks, fail codes and floor, elementwise.

    The eigenvalues of a diagonal matrix are its diagonal, so the floor is a
    clamp and needs no ``eigh``.  A failed diagonal comes back as ones.  The
    result is ``_regularize``'s bit for bit, except where LAPACK rescales a
    matrix with a norm beyond about 1e146 and its eigenvalues come back an
    ulp off: the clamp keeps the diagonal exact.
    """
    fail = np.where(np.isfinite(v).all(axis=-1), 0, 1)
    v = np.where(fail[..., None] == 0, v, 1.0)
    fire, lam = _floor(v, v.min(axis=-1), v.sum(axis=-1), fail)
    if lam is not None:
        v[fire] = lam
    v[fail != 0] = 1.0
    return v, fail


def _floor(evals: np.ndarray, low: np.ndarray, tr: np.ndarray, fail: np.ndarray):
    """The floor rule of both regularizers, on the eigenvalues (..., d), the
    lowest eigenvalues and the traces of a stack: code 3 into ``fail`` for a
    trace <= 0, a materially negative eigenvalue or a subnormal floor
    ``1e-8 * trace / d`` (the Cholesky factor would fail); returns where the
    floor fires and the eigenvalues there lifted to at least twice it
    (``None`` when it fires nowhere)."""
    d = evals.shape[-1]
    fail[(fail == 0) & (tr <= 0.0)] = 3
    fail[(fail == 0) & (low < -1e-8 * np.maximum(tr / d, 1.0))] = 3
    floor = 1e-8 * tr / d
    fail[(fail == 0) & (floor < np.finfo(float).tiny)] = 3
    fire = (fail == 0) & (low < floor)
    if not fire.any():
        return fire, None
    return fire, np.maximum(evals[fire], 2.0 * floor[fire][:, None])


@dataclass(frozen=True, eq=False)
class ComponentParams:
    """One mixture component: a Gaussian or a fixed-dof Student-t.

    ``scatter`` is the covariance matrix for Gaussians and the scale matrix
    for Student-t components.  ``dof`` applies to Student-t only, is never
    estimated, and must exceed 2.
    """

    kind: str
    mean: np.ndarray
    scatter: np.ndarray
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError("mean must be a 1-d vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", mean)
        scatter = regularize_scatter(self.scatter)
        if scatter.shape[0] != mean.size:
            raise ValueError("mean and scatter dimensions disagree")
        object.__setattr__(self, "scatter", scatter)
        if self.kind == STUDENT_T:
            dof = 4.0 if self.dof is None else float(self.dof)
            if not dof > 2.0:
                raise ValueError("Student-t dof must exceed 2")
            object.__setattr__(self, "dof", dof)
        else:
            object.__setattr__(self, "dof", None)

    @property
    def dim(self) -> int:
        return self.mean.size


def _factorize(scatters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and log-determinants of regularized scatters (..., d, d)."""
    chols = np.linalg.cholesky(scatters)
    return chols, 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)


def _same_component(a: ComponentParams, b: ComponentParams) -> bool:
    return (
        a.kind == b.kind
        and a.dof == b.dof
        and np.array_equal(a.mean, b.mean)
        and np.array_equal(a.scatter, b.scatter)
    )


def _check_weights(weights: np.ndarray, q: int) -> None:
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-d vector")
    if weights.size != q:
        raise ValueError("weights and components lengths disagree")
    if not np.all(weights > 0.0):
        raise ValueError("all mixture weights must be positive")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("mixture weights must sum to 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Weights and per-component parameters of a Q-component mixture."""

    weights: np.ndarray
    components: tuple[ComponentParams, ...]
    structure: str = "full"

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        components = tuple(self.components)
        _check_weights(weights, len(components))
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown covariance structure {self.structure!r}")
        d = components[0].dim
        for comp in components[1:]:
            if comp.dim != d:
                raise ValueError("all components must share one dimension")
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                if _same_component(components[i], components[j]):
                    raise ValueError(f"components {i} and {j} are identical")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    @property
    def q(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The scatters' lower Cholesky factors (Q, d, d) and log-determinants
        (Q,), factored once: a calibration samples and scores under them.
        Read-only, since every caller shares them."""
        factors = _factorize(np.stack([c.scatter for c in self.components]))
        for a in factors:
            a.flags.writeable = False
        return factors


@dataclass(frozen=True, eq=False)
class PosteriorMatrix:
    """Posterior class probabilities plus the per-item MAP risk.

    ``probs[i, q]`` is the posterior probability that item ``i`` belongs to
    component ``q``; ``t_values[i] = 1 - max_q probs[i, q]`` is the posterior
    misclassification probability of the MAP label, always in
    ``[0, 1 - 1/Q]``.
    """

    probs: np.ndarray
    t_values: np.ndarray


def validate_data(data) -> np.ndarray:
    """Coerce to an (n, d) float matrix with finite entries."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-d (n rows, d columns), got ndim={x.ndim}")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("data rows must be finite")
    return x


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is a whole number >= ``least``."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be >= {least} and whole, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def _check_width(x: np.ndarray, d: int) -> None:
    """Raise ``ValueError`` unless the rows of ``x`` (n, d) have ``d`` columns."""
    if x.size and x.shape[1] != d:
        raise ValueError(f"data has dimension {x.shape[1]}, expected {d}")


_NONFINITE = "array must not contain infs or NaNs"


# The Mahalanobis kernel's row blocks hold at most this many floats: 2 MB,
# about a core's L2 cache, where its passes ran faster than in larger blocks.
# Each row is computed on its own, so the bits do not depend on the blocks.
_BLOCK_ELEMENTS = 1 << 18


def _squared_distances(x, means, chols, out) -> None:
    """Squared Mahalanobis distances of the rows ``x`` (R, n, d) to ``means``
    (R, Q, d) under lower factors ``chols`` (R, Q, d, d), into ``out`` (R, Q, n).

    Forward substitution ``z_j = (x_j - mu_j - sum_{k<j} L_jk z_k) * (1 / L_jj)``
    and ``sum_j z_j**2`` in coordinate order, elementwise over whole component
    rows, in blocks of rows: O(d**2) passes.  When every factor is diagonal
    the off-diagonal terms are skipped, O(d) passes, and ``z_j`` is squared
    in its buffer: for d <= 2 that gives the bits of LAPACK's solve.
    """
    runs, qn, d = means.shape
    n = x.shape[-2]
    # a Cholesky diagonal is positive, so only diagonal factors have d nonzeros
    full = np.count_nonzero(chols) != runs * qn * d
    inv = 1.0 / np.diagonal(chols, axis1=-2, axis2=-1)
    step = max(1, _BLOCK_ELEMENTS // (runs * qn * (d if full else 1)))
    z = np.empty((d if full else 1, runs, qn, min(step, n)))
    sq = np.empty(z.shape[1:]) if full else z[0]
    for a in range(0, n, step):
        b = min(a + step, n)
        zb, sqb, ob = z[..., : b - a], sq[..., : b - a], out[..., a:b]
        for j in range(d):
            zj = zb[j if full else 0]
            np.subtract(x[..., None, a:b, j], means[..., j, None], out=zj)
            for k in range(j if full else 0):
                np.multiply(zb[k], chols[..., j, k, None], out=sqb)
                zj -= sqb
            zj *= inv[..., j, None]
            np.multiply(zj, zj, out=sqb if j else ob)
            if j:
                ob += sqb


def _log_weighted(x, log_w, means, chols, log_dets, dofs, mahal=None) -> np.ndarray:
    """The (R, Q, n) stack of ``log(pi_q) + log f_q(x_i)`` for R parameter sets.

    The one place a mixture log-density is computed, from plain arrays with a
    leading run axis: log-weights (R, Q), means (R, Q, d), lower Cholesky
    factors (R, Q, d, d) and log-determinants (R, Q); each run's rows ``x``
    (R, n, d), read as given (runs that share rows pass a zero-stride view);
    and ``dofs[q]``, ``None`` for a Gaussian component.
    The squared Mahalanobis distances, from ``_squared_distances``, are
    stored in ``mahal`` when an (R, Q, n) array is given.  A distance that
    overflows to inf is harmless, but a non-finite factor or difference
    ``x_i - mu_q`` raises ``ValueError``.
    """
    runs, qn = log_w.shape
    n, d = x.shape[-2:]
    if not np.isfinite(chols).all():
        raise ValueError(_NONFINITE)
    m = np.empty((runs, qn, n)) if mahal is None else mahal
    with np.errstate(over="ignore", invalid="ignore"):
        _squared_distances(x, means, chols, m)
        if not np.isfinite(m).all():  # from a non-finite difference, or a harmless overflow
            for r, q in zip(*np.nonzero(~np.isfinite(m).all(axis=2))):
                if not np.isfinite((x - means[:, q, None])[r]).all():
                    raise ValueError(_NONFINITE)
            # an overflowed z_k times a zero L_jk, or two overflows of opposite
            # sign, give NaN where the distance overflows
            np.copyto(m, np.inf, where=np.isnan(m))
    # in place, in the distances' buffer when they are not kept:
    # log_w - 0.5 * ((d log 2pi + log_det) + m) for a Gaussian, and
    # (log_w + const) - 0.5 (nu + d) log1p(m / nu) for a Student-t
    lw = m if mahal is None else np.empty((runs, qn, n))
    for q, nu in zip(range(qn), dofs, strict=True):
        out = lw[:, q]
        if nu is None:
            np.add(m[:, q], (d * _LOG_2PI + log_dets[:, q])[:, None], out=out)
            out *= 0.5
            np.subtract(log_w[:, q, None], out, out=out)
        else:
            const = (
                math.lgamma(0.5 * (nu + d))
                - math.lgamma(0.5 * nu)
                - 0.5 * d * math.log(nu * math.pi)
                - 0.5 * log_dets[:, q]
            )
            np.divide(m[:, q], nu, out=out)
            np.log1p(out, out=out)
            out *= 0.5 * (nu + d)
            np.subtract((log_w[:, q] + const)[:, None], out, out=out)
    return lw


def _normalize(lw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run and row of an (R, Q, n) stack, ``exp(lw)`` normalized over the
    components by log-sum-exp, and per run the summed log normalizers.

    numpy reduces the middle axis one component row at a time, in order.
    ``lw`` is overwritten by the result.  A row whose log-density is -inf
    under every component has no posterior: it raises ``ValueError`` naming
    the row.
    """
    m = lw.max(axis=1)
    far = m == -np.inf
    if far.any():
        row = int(np.nonzero(far)[1][0])
        raise ValueError(
            f"row {row} is too far from every mixture component:"
            " its density underflows to 0 under each"
        )
    p = lw
    p -= m[:, None]
    np.exp(p, out=p)
    s = p.sum(axis=1)
    p /= s[:, None]
    return p, (m + np.log(s)).sum(axis=-1)


def log_density_rows(component: ComponentParams, data) -> np.ndarray:
    """Component log density evaluated at every row of ``data`` (n, d)."""
    x = validate_data(data)
    _check_width(x, component.dim)
    chol, log_det = _factorize(component.scatter[None, None])
    lw = _log_weighted(
        x[None], np.zeros((1, 1)), component.mean[None, None], chol, log_det, (component.dof,)
    )
    return lw[0, 0]


def sample_mixture(params: MixtureParams, n: int, rng: np.random.Generator):
    """Draw ``n`` labelled observations from the mixture.

    Returns ``(labels, data)`` where ``labels[i]`` is the component index the
    row was drawn from.  Deterministic for a fixed generator state.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    d = params.dim
    labels = rng.choice(params.q, size=n, p=params.weights)
    data = np.empty((n, d), dtype=float)
    for q, (comp, chol) in enumerate(zip(params.components, params._factors[0])):
        idx = np.flatnonzero(labels == q)
        if idx.size == 0:
            continue
        z = rng.standard_normal((idx.size, d)) @ chol.T
        if comp.kind == STUDENT_T:
            w = rng.chisquare(comp.dof, idx.size)
            z *= np.sqrt(comp.dof / w)[:, None]
        data[idx] = comp.mean + z
    return labels.astype(np.int64), data


def posterior_with_loglik(params: MixtureParams, data) -> tuple[PosteriorMatrix, float]:
    """Posterior matrix together with the data log-likelihood."""
    x = validate_data(data)
    _check_width(x, params.dim)
    weights, means, _, chols, log_dets = _theta(params)
    lw = _log_weighted(
        x[None], np.log(weights), means, chols, log_dets, [c.dof for c in params.components]
    )
    probs, loglik = _normalize(lw)
    probs = probs[0].T  # (n, Q), a view of the component-major array
    return PosteriorMatrix(probs=probs, t_values=_t_values(probs)), float(loglik[0])


def _theta(params: MixtureParams):
    """``params`` as a one-run stack ``(weights, means, scatters, chols, log_dets)``."""
    comps = params.components
    scatters = np.stack([c.scatter for c in comps])[None]
    means = np.stack([c.mean for c in comps])[None]
    chols, log_dets = params._factors
    return (params.weights[None], means, scatters, chols[None], log_dets[None])


def _t_values(probs: np.ndarray) -> np.ndarray:
    """Per row of an (n, Q) probability matrix, or of each in an (m, n, Q)
    stack, ``1 - max_q``, in ``[0, 1 - 1/Q]``.

    On the transposed view of a component-major (Q, n) array, which EM and
    ``posterior_matrix`` hand out, the max runs over contiguous rows.
    """
    return np.clip(1.0 - probs.max(axis=-1), 0.0, 1.0 - 1.0 / probs.shape[-1])


def posterior_matrix(params: MixtureParams, data) -> PosteriorMatrix:
    """Posterior class probabilities and MAP risk for every row of ``data``."""
    post, _ = posterior_with_loglik(params, data)
    return post


def mixture_loglik(params: MixtureParams, data) -> float:
    """Log-likelihood of ``data`` under the mixture."""
    _, loglik = posterior_with_loglik(params, data)
    return loglik


def map_labels(post: PosteriorMatrix) -> np.ndarray:
    """MAP cluster label per item; ties break toward the lowest index."""
    return _map_rows(post.probs)


def _map_rows(probs: np.ndarray) -> np.ndarray:
    """``np.argmax(probs, axis=-1)`` of an (n, Q) probability matrix, or of
    each in an (m, n, Q) stack, the lowest index on ties, by compares of
    whole columns: numpy's ``argmax`` over a short last axis goes one row at
    a time."""
    labels = np.zeros(probs.shape[:-1], dtype=np.int64)
    top = probs[..., 0]
    for q in range(1, probs.shape[-1]):
        col = probs[..., q]
        np.copyto(labels, q, where=col > top)
        top = np.maximum(top, col)
    return labels


# --- serialization -----------------------------------------------------------

def mixture_to_json(params: MixtureParams) -> dict:
    comps = []
    for comp in params.components:
        entry = {
            "kind": comp.kind,
            "mean": comp.mean.tolist(),
            "scatter": comp.scatter.tolist(),
        }
        if comp.kind == STUDENT_T:
            entry["dof"] = comp.dof
        comps.append(entry)
    return {
        "q": params.q,
        "weights": params.weights.tolist(),
        "components": comps,
        "structure": params.structure,
    }


def mixture_from_json(obj: dict) -> MixtureParams:
    comps = tuple(
        ComponentParams(
            kind=c["kind"],
            mean=np.asarray(c["mean"], dtype=float),
            scatter=np.asarray(c["scatter"], dtype=float),
            dof=c.get("dof"),
        )
        for c in obj["components"]
    )
    params = MixtureParams(
        weights=np.asarray(obj["weights"], dtype=float),
        components=comps,
        structure=obj.get("structure", "full"),
    )
    if "q" in obj and int(obj["q"]) != params.q:
        raise ValueError("declared q does not match number of components")
    return params


def save_mixture_json(params: MixtureParams, path) -> None:
    Path(path).write_text(json.dumps(mixture_to_json(params), indent=2) + "\n")


def load_mixture_json(path) -> MixtureParams:
    return mixture_from_json(json.loads(Path(path).read_text()))


def save_data_csv(data, path, columns: list[str] | None = None) -> None:
    """Write a data matrix as a headered CSV, one row per item."""
    x = validate_data(data)
    if columns is None:
        columns = [f"x{j + 1}" for j in range(x.shape[1])]
    if len(columns) != x.shape[1]:
        raise ValueError("number of column names must match data dimension")
    _write_csv(path, columns, x.tolist())


def _write_csv(path, header, rows) -> None:
    """Write a headered CSV: every float as ``repr(float(v))``, which reads
    back bit for bit (numpy 2 reprs an np.float64 as ``np.float64(...)``),
    and every other cell as ``csv`` writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def _read_csv(path, columns: list[str] | None, convert) -> tuple[int, list[list]]:
    """Width and rows of ``convert(cell)`` for the named columns of a headered CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        header = [h.strip() for h in header]
        if columns is None:
            take = list(range(len(header)))
        else:
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}")
            take = [header.index(c) for c in columns]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                rows.append([convert(row[j]) for j in take])
            except (ValueError, IndexError) as exc:
                raise ValueError(
                    f"{path}: bad numeric row at line {lineno}"
                    " (too few cells or a non-numeric cell)"
                ) from exc
    return len(take), rows


def load_data_csv(path, columns: list[str] | None = None) -> np.ndarray:
    """Read a headered numeric CSV, optionally restricted to named columns."""
    width, rows = _read_csv(path, columns, float)
    if not rows:
        return np.empty((0, width))
    return validate_data(np.asarray(rows, dtype=float))
