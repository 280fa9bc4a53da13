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
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"
COMPONENT_KINDS = (GAUSSIAN, STUDENT_T)

# Covariance structures, used both as estimation constraints and as metadata
# on fitted parameters.
STRUCTURES = ("known", "spherical", "diagonal", "full")

_LOG_2PI = math.log(2.0 * math.pi)


def regularize_scatter(scatter) -> np.ndarray:
    """Symmetrize ``scatter`` and lift its eigenvalues to the stability floor.

    Near-singular matrices (as produced by EM on degenerate clusters) are
    repaired silently, with low eigenvalues lifted to twice the floor
    ``1e-8 * trace / d`` so the result is a fixed point of this function;
    materially asymmetric or non-positive-definite input raises ``ValueError``.
    """
    s = np.asarray(scatter, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"scatter must be a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scatter must be finite")
    scale = float(np.abs(s).max())
    if np.abs(s - s.T).max() > 1e-8 * max(scale, 1.0):
        raise ValueError("scatter must be symmetric")
    sym = 0.5 * (s + s.T)
    d = sym.shape[0]
    tr = float(np.trace(sym))
    if tr <= 0.0:
        raise ValueError("scatter must be positive definite")
    floor = 1e-8 * tr / d
    evals, evecs = np.linalg.eigh(sym)
    if evals[0] < -1e-8 * max(tr / d, 1.0):
        raise ValueError("scatter must be positive definite")
    if evals[0] >= floor:
        return sym
    lifted = (evecs * np.maximum(evals, 2.0 * floor)) @ evecs.T
    return 0.5 * (lifted + lifted.T)


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


def _factorize(scatter: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and log-determinant of a regularized scatter."""
    chol = np.linalg.cholesky(scatter)
    return chol, 2.0 * float(np.log(np.diag(chol)).sum())


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


def _log_weighted(x, log_w, means, chols, log_dets, dofs, mahal=None) -> np.ndarray:
    """The (n, Q) matrix of ``log(pi_q) + log f_q(x_i)``.

    The one place a mixture log-density is computed, from plain per-component
    arrays; ``dofs[q]`` is ``None`` for a Gaussian component.  The squared
    Mahalanobis distances are stored in ``mahal`` when an (n, Q) array is given.
    """
    d = x.shape[1]
    lw = np.empty((x.shape[0], len(log_w)))
    per_component = zip(log_w, means, chols, log_dets, dofs, strict=True)
    for q, (log_wq, mean, chol, log_det, nu) in enumerate(per_component):
        z = solve_triangular(chol, (x - mean).T, lower=True)
        m = np.einsum("ij,ij->j", z, z)
        del z  # d*n floats, freed before the density temporaries
        if mahal is not None:
            mahal[:, q] = m
        if nu is None:
            lw[:, q] = log_wq - 0.5 * (d * _LOG_2PI + log_det + m)
        else:
            const = (
                math.lgamma(0.5 * (nu + d))
                - math.lgamma(0.5 * nu)
                - 0.5 * d * math.log(nu * math.pi)
                - 0.5 * log_det
            )
            lw[:, q] = log_wq + const - 0.5 * (nu + d) * np.log1p(m / nu)
    return lw


def _normalize(lw: np.ndarray) -> tuple[np.ndarray, float]:
    """Rows of ``exp(lw)`` normalized by log-sum-exp, and the summed log normalizers."""
    m = lw.max(axis=1, keepdims=True)
    p = np.exp(lw - m)
    s = p.sum(axis=1, keepdims=True)
    return p / s, float((m[:, 0] + np.log(s[:, 0])).sum())


def log_density_rows(component: ComponentParams, x: np.ndarray) -> np.ndarray:
    """Component log density evaluated at every row of ``x``."""
    chol, log_det = _factorize(component.scatter)
    lw = _log_weighted(x, (0.0,), (component.mean,), (chol,), (log_det,), (component.dof,))
    return lw[:, 0]


def log_density(component: ComponentParams, x) -> float:
    """Log density of a single point under one component."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != component.dim:
        raise ValueError(f"point has dimension {x.size}, expected {component.dim}")
    return float(log_density_rows(component, x[None, :])[0])


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
    for q, comp in enumerate(params.components):
        idx = np.flatnonzero(labels == q)
        if idx.size == 0:
            continue
        z = rng.standard_normal((idx.size, d)) @ _factorize(comp.scatter)[0].T
        if comp.kind == STUDENT_T:
            w = rng.chisquare(comp.dof, idx.size)
            z *= np.sqrt(comp.dof / w)[:, None]
        data[idx] = comp.mean + z
    return labels.astype(np.int64), data


def posterior_with_loglik(params: MixtureParams, data) -> tuple[PosteriorMatrix, float]:
    """Posterior matrix together with the data log-likelihood."""
    x = validate_data(data)
    if x.size and x.shape[1] != params.dim:
        raise ValueError(f"data has dimension {x.shape[1]}, expected {params.dim}")
    if x.shape[0] == 0:
        empty = PosteriorMatrix(
            probs=np.empty((0, params.q)), t_values=np.empty(0)
        )
        return empty, 0.0
    comps = params.components
    chols, log_dets = zip(*(_factorize(c.scatter) for c in comps))
    lw = _log_weighted(
        x, np.log(params.weights), [c.mean for c in comps], chols, log_dets,
        [c.dof for c in comps],
    )
    probs, loglik = _normalize(lw)
    t = np.clip(1.0 - probs.max(axis=1), 0.0, 1.0 - 1.0 / params.q)
    return PosteriorMatrix(probs=probs, t_values=t), loglik


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
    return np.argmax(post.probs, axis=1).astype(np.int64)


def relabel(params: MixtureParams, perm) -> MixtureParams:
    """Permute component indices: new component ``j`` is old ``perm[j]``.

    The posterior matrix of the result equals the column permutation of the
    original posterior matrix; t_values are unchanged.
    """
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(params.q)):
        raise ValueError(f"perm must be a permutation of 0..{params.q - 1}")
    return MixtureParams(
        weights=params.weights[perm],
        components=tuple(params.components[j] for j in perm),
        structure=params.structure,
    )


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in x:
            writer.writerow([repr(float(v)) for v in row])


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
