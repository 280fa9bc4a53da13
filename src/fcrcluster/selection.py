"""Abstention rules controlling the average risk of the labelled items.

Two rules over the per-item MAP risk values ``T``:

* ``fixed_threshold_select`` keeps items with ``T <= alpha``;
* ``cumulative_select`` keeps the largest prefix of items, ordered by
  increasing ``T``, whose mean stays at or below ``alpha``.  The cumulative
  rule always selects a superset of the fixed rule at the same level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixtures import PosteriorMatrix, _write_csv, map_labels

RULES = ("cumulative", "fixed")


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of an abstention rule.

    ``selected`` holds the sorted item indices that receive a label,
    ``k_star = len(selected)``, ``threshold`` is the realized data-driven
    threshold (for the cumulative rule, the first excluded order statistic,
    or 1.0 when everything is selected) and ``achieved_bound`` is the mean
    risk over the selected items (0 for an empty selection).
    """

    selected: np.ndarray
    k_star: int
    threshold: float
    achieved_bound: float


@dataclass(frozen=True, eq=False)
class SelectiveClustering:
    """MAP labels plus the subset of items the procedure agrees to label."""

    labels: np.ndarray
    t_values: np.ndarray
    selection: SelectionResult
    alpha: float


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_t_values(t_values) -> np.ndarray:
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1:
        raise ValueError("t_values must be a 1-d vector")
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("t_values must lie in [0, 1]")
    return t


def kstar_grid(t_values: np.ndarray, levels: np.ndarray):
    """Selection sizes of the cumulative rule at several levels at once.

    Returns ``(order, cumsum, ks)`` where ``order`` is the stable ascending
    sort of ``t_values``, ``cumsum`` its prefix sums, and ``ks[j]`` the number
    of items selected at ``levels[j]``.
    """
    order = np.argsort(t_values, kind="stable")
    csum = np.cumsum(t_values[order])
    means = csum / np.arange(1, t_values.size + 1)
    # prefix means of an ascending sequence are non-decreasing, so the
    # largest admissible prefix is a searchsorted count
    ks = np.searchsorted(means, np.asarray(levels, dtype=float), side="right")
    return order, csum, ks.astype(int)


def empty_selection(t_values: np.ndarray) -> SelectionResult:
    """Selection of nothing; threshold sits at the smallest risk value."""
    t = _check_t_values(t_values)
    threshold = float(t.min()) if t.size else 1.0
    return SelectionResult(
        selected=np.empty(0, dtype=np.int64),
        k_star=0,
        threshold=threshold,
        achieved_bound=0.0,
    )


def cumulative_select(t_values, alpha: float) -> SelectionResult:
    """Largest prefix of risk-sorted items whose mean risk is <= alpha.

    Ties in ``t_values`` break by original index.  The selected set equals
    ``{i : t_values[i] < threshold}`` whenever the values are distinct and
    not everything is selected.
    """
    alpha = _check_alpha(alpha)
    t = _check_t_values(t_values)
    n = t.size
    order, csum, ks = kstar_grid(t, np.array([alpha]))
    k = int(ks[0])
    sorted_t = t[order]
    threshold = float(sorted_t[k]) if k < n else 1.0
    bound = float(csum[k - 1] / k) if k > 0 else 0.0
    return SelectionResult(
        selected=np.sort(order[:k]).astype(np.int64),
        k_star=k,
        threshold=threshold,
        achieved_bound=bound,
    )


def fixed_threshold_select(t_values, alpha: float) -> SelectionResult:
    """Keep items whose risk is at most alpha (threshold fixed at alpha)."""
    alpha = _check_alpha(alpha)
    t = _check_t_values(t_values)
    selected = np.flatnonzero(t <= alpha).astype(np.int64)
    bound = float(t[selected].mean()) if selected.size else 0.0
    return SelectionResult(
        selected=selected,
        k_star=int(selected.size),
        threshold=alpha,
        achieved_bound=bound,
    )


def select_and_label(
    post: PosteriorMatrix, alpha: float, rule: str = "cumulative"
) -> SelectiveClustering:
    """MAP-label every item and select per the chosen abstention rule."""
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    labels = map_labels(post)
    if rule == "cumulative":
        sel = cumulative_select(post.t_values, alpha)
    else:
        sel = fixed_threshold_select(post.t_values, alpha)
    return SelectiveClustering(
        labels=labels, t_values=post.t_values, selection=sel, alpha=float(alpha)
    )


def write_clustering_csv(clustering: SelectiveClustering, path) -> None:
    """CSV with columns item_index, map_label, selected, t_value."""
    chosen = np.zeros(clustering.labels.size, dtype=int)
    chosen[clustering.selection.selected] = 1
    _write_csv(path, ["item_index", "map_label", "selected", "t_value"], zip(
        range(chosen.size), clustering.labels.tolist(), chosen.tolist(),
        clustering.t_values.tolist(),
    ))
