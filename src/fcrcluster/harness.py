"""Configuration-driven replication engine and real-data workflow.

A scenario pins a generating mixture (or a separation-parametrized family),
a sweep (over separation, sample size, or nominal level), the procedures to
compare, and a seed.  Replication RNG streams derive from
``(seed, sweep_index, rep_index)``, so reordering replications changes
nothing.  Ground-truth labels are visible to the scorer only, never to
estimation, selection, or calibration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import _svg
from .bootstrap import (BootstrapConfig, FullRefit, WarmStart, _block_size, _calibrated_run,
                        _fitted_run, _run_settings)
from .em import EmConfig, _best, _fit_datasets, _fit_result, _fit_settings
from .evaluation import FcrReport, sample_fcr
from .mixtures import (
    ComponentParams,
    MixtureParams,
    _check_count,
    _read_csv,
    _write_csv,
    load_data_csv,
    mixture_from_json,
    mixture_to_json,
    posterior_matrix,
    sample_mixture,
    validate_data,
)
from .selection import (SelectiveClustering, _check_alpha, select_and_label,
                        write_clustering_csv)

logger = logging.getLogger(__name__)

PROCEDURES = ("oracle", "plugin", "boot_param", "boot_nonparam", "fixed")
SWEEP_KINDS = ("epsilon", "n", "alpha")


@dataclass
class TruthSpec:
    """Generating truth: the explicit mixture ``params`` when given, else the
    separation family.

    The separation family places Q unit-covariance Gaussians: component 0 at
    the origin, component 1 at ``(eps/sqrt(d), ..., eps/sqrt(d))`` (so the
    mean separation is ``eps``), and, for Q = 3, component 2 at
    ``(0, sqrt(eps), 0, ...)``.
    """

    q: int = 2
    d: int = 2
    epsilon: float | None = None
    params: MixtureParams | None = None

    def truth_for(self, epsilon: float | None = None) -> MixtureParams:
        if self.params is not None:
            return self.params
        eps = self.epsilon if epsilon is None else float(epsilon)
        if eps is None:
            raise ValueError("separation family requires an epsilon")
        return gaussian_separation_truth(self.q, self.d, eps)


def gaussian_separation_truth(q: int, d: int, epsilon: float) -> MixtureParams:
    """Unit-covariance Gaussian layout controlled by the mean separation."""
    if q not in (2, 3):
        raise ValueError("separation family supports q in {2, 3}")
    if d < 2 and q == 3:
        raise ValueError("q=3 layout needs d >= 2")
    eye = np.eye(d)
    mus = [np.zeros(d), np.full(d, epsilon / math.sqrt(d))]
    if q == 3:
        mu3 = np.zeros(d)
        mu3[1] = math.sqrt(epsilon)
        mus.append(mu3)
    comps = tuple(ComponentParams(kind="gaussian", mean=m, scatter=eye) for m in mus)
    return MixtureParams(weights=np.full(q, 1.0 / q), components=comps, structure="full")


@dataclass
class ScenarioConfig:
    name: str
    generator: TruthSpec
    n: int
    reps: int
    procedures: tuple[str, ...]
    sweep_kind: str
    sweep_values: tuple[float, ...]
    alpha: float
    em: EmConfig = field(default_factory=EmConfig)
    boot: BootstrapConfig = field(default_factory=BootstrapConfig)
    seed: int = 0

    def validate(self) -> None:
        _check_count("n", self.n)
        _check_count("reps", self.reps)
        if self.sweep_kind not in SWEEP_KINDS:
            raise ValueError(f"sweep kind must be one of {SWEEP_KINDS}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        for p in self.procedures:
            if p not in PROCEDURES:
                raise ValueError(f"unknown procedure {p!r}")
        if self.sweep_kind == "alpha":
            for a in self.sweep_values:
                _check_alpha(a)
        if self.sweep_kind == "n":
            if any(not float(v).is_integer() or v < 1 for v in self.sweep_values):
                raise ValueError(f"n sweep values must be whole and >= 1, got {self.sweep_values}")
        _check_alpha(self.alpha)
        # only an epsilon sweep supplies the truth's epsilon; EM gets its known parts
        eps = self.sweep_values[0] if self.sweep_kind == "epsilon" else None
        _em_with_known(self.em, self.generator.truth_for(eps)).validate()
        if self.boot.mode != BootstrapConfig.mode:
            raise ValueError("boot.mode is not a scenario setting: the procedures"
                             " boot_param and boot_nonparam choose the mode")
        self.boot.validate()


@dataclass(frozen=True)
class RepDetail:
    procedure: str
    sweep_value: float
    rep: int
    fcr: float
    selection_frequency: float
    n_selected: int


@dataclass(frozen=True)
class SweepCell:
    procedure: str
    sweep_value: float
    mean_fcr: float
    se_fcr: float
    mean_selection: float
    se_selection: float
    reps: int


@dataclass
class SweepResult:
    config: ScenarioConfig
    cells: list[SweepCell]
    details: list[RepDetail]
    failures: list[str]


def builtin_scenarios() -> list[ScenarioConfig]:
    """Named scenario configurations for the simulation studies."""
    eps_grid = (1.0, math.sqrt(2.0), 2.0, 4.0)
    alpha_grid = (0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2)
    n_grid = (50.0, 100.0, 200.0, 500.0, 1000.0)

    def em(structure: str) -> EmConfig:
        return EmConfig(structure=structure, max_iter=100, n_starts=10)

    def boot() -> BootstrapConfig:
        return BootstrapConfig(b=1000, refit=FullRefit())

    def scenario(name, q, d, sweep_kind, sweep_values, structure, *, n=100,
                 alpha=0.1, epsilon=None, procedures=PROCEDURES, seed=0):
        return ScenarioConfig(
            name=name,
            generator=TruthSpec(q=q, d=d, epsilon=epsilon),
            n=n,
            reps=100,
            procedures=tuple(procedures),
            sweep_kind=sweep_kind,
            sweep_values=tuple(float(v) for v in sweep_values),
            alpha=alpha,
            em=em(structure),
            boot=boot(),
            seed=seed,
        )

    return [
        scenario("known-params", 2, 2, "epsilon", eps_grid, "known", seed=11),
        scenario("diagonal", 2, 2, "epsilon", eps_grid, "diagonal", seed=12),
        scenario("diagonal-n", 2, 2, "n", n_grid, "diagonal",
                 epsilon=math.sqrt(2.0), seed=13),
        scenario("diagonal-alpha-n200", 2, 2, "alpha", alpha_grid, "diagonal",
                 n=200, epsilon=math.sqrt(2.0), seed=14),
        scenario("diagonal-alpha-n1000", 2, 2, "alpha", alpha_grid, "diagonal",
                 n=1000, epsilon=math.sqrt(2.0), seed=15),
        scenario("high-dim", 2, 20, "alpha", alpha_grid, "diagonal",
                 n=200, epsilon=math.sqrt(2.0), seed=16),
        scenario("three-component", 3, 2, "alpha", alpha_grid, "diagonal",
                 n=200, epsilon=math.sqrt(2.0), seed=17),
        scenario("unconstrained", 2, 2, "alpha", alpha_grid, "full",
                 n=200, epsilon=math.sqrt(2.0), seed=18),
        scenario("typical", 3, 4, "alpha", alpha_grid, "full",
                 n=1000, epsilon=2.0, seed=19),
    ]


def get_scenario(name: str) -> ScenarioConfig:
    for cfg in builtin_scenarios():
        if cfg.name == name:
            return cfg
    known = ", ".join(c.name for c in builtin_scenarios())
    raise KeyError(f"no scenario named {name!r}; known scenarios: {known}")


def _em_with_known(em_cfg: EmConfig, truth: MixtureParams) -> EmConfig:
    """Inject true weights/covariances for the known-parameters regime."""
    if em_cfg.structure != "known":
        return em_cfg
    cfg = replace(em_cfg)
    if cfg.known_weights is None:
        cfg.known_weights = truth.weights.copy()
    if cfg.known_covariances is None:
        cfg.known_covariances = tuple(c.scatter.copy() for c in truth.components)
    return cfg


# the procedures that share one fit, by the selection rule or bootstrap mode
# the calibrated run gives them; a replication lists them in this order
_FITTED = {"plugin": "cumulative", "fixed": "fixed",
           "boot_param": "parametric", "boot_nonparam": "nonparametric"}


def run_replication(
    data,
    truth: MixtureParams,
    alpha: float,
    procedures: tuple[str, ...],
    em_cfg: EmConfig,
    boot_cfg: BootstrapConfig,
    rng: np.random.Generator,
) -> dict[str, SelectiveClustering]:
    """Run the requested procedures on one sample.

    Only the generating parameters (for the oracle) and the data enter;
    latent labels never do.  The plug-in, fixed baseline and both bootstrap
    corrections share one EM fit, so their selections are comparable
    replication by replication.  This is a block of one replication.
    """
    (out,) = _replications([(validate_data(data), np.random.default_rng(rng))], truth, alpha,
                           procedures, em_cfg, boot_cfg)
    if isinstance(out, Exception):
        raise out
    return out


def _replications(samples, truth, alpha, procedures, em_cfg, boot_cfg):
    """Run the procedures on each sample ``(x, rng)`` of a block: yields, in
    order, each sample's selections by procedure, or the error that ended
    its replication.

    Each sample is taken as it is alone: the oracle posterior, then every
    setting checked, then the fit, whose start streams it spawns from
    ``rng``, then the calibrations, which draw from ``rng`` in turn.  Only the
    fits iterate as one EM stack, ``_fit_datasets``, which gives each sample
    the fit, or the error, that it gets alone.
    """
    em_cfg = _em_with_known(em_cfg, truth)
    fitted = {p: k for p, k in _FITTED.items() if p in procedures}
    outs, ready = [], {}
    for x, rng in samples:
        out = {}
        try:
            if "oracle" in procedures:
                out["oracle"] = select_and_label(posterior_matrix(truth, x), alpha,
                                                 "cumulative")
            if fitted:
                settings = _run_settings(x, truth.q, alpha, em_cfg, boot_cfg,
                                         fitted.values())
                _, cfg, known = _fit_settings(x, truth.q, em_cfg)
                ready[len(outs)] = settings, rng, rng.spawn(cfg.n_starts)
        except Exception as exc:  # noqa: BLE001 - the replication's own error
            out = exc
        outs.append(out)
    if ready:  # the settings, and so cfg and known, are those of every sample
        xs = np.stack([settings.x for settings, _, _ in ready.values()])
        fits = _fit_datasets(xs, truth.q, cfg, known, [streams for *_, streams in ready.values()])
        ready = {i: (settings, rng, runs)
                 for (i, (settings, rng, _)), runs in zip(ready.items(), fits)}
    for i, out in enumerate(outs):
        if i in ready:
            settings, rng, runs = ready[i]
            try:
                if isinstance(runs, Exception):
                    raise runs
                run = _calibrated_run(_fit_result(_best(runs), cfg), settings, rng)
                out.update((p, run.selections[k]) for p, k in fitted.items())
            except Exception as exc:  # noqa: BLE001 - the replication's own error
                out = exc
        yield out


def run_scenario(config: ScenarioConfig) -> SweepResult:
    """All sweep points and replications of one scenario, fully seeded.

    Replication r of sweep point j draws its sample, then its fit's start
    streams, then its calibrations from ``SeedSequence([seed, j, r])``, as
    ``run_replication`` does on that sample.  A sweep point's replications
    run in blocks of ``bootstrap._block_size``, the rule that cuts a
    calibration's resamples, whose fits iterate as one EM stack that gives
    each the fit, or the error, it gets alone (``em._fit_datasets``), so the
    outputs do not depend on the blocks.  Results and failures keep (j, r) order.
    """
    config.validate()
    details: list[RepDetail] = []
    failures: list[str] = []
    cells: list[SweepCell] = []
    for j, value in enumerate(config.sweep_values):
        if config.sweep_kind == "epsilon":
            truth = config.generator.truth_for(value)
        else:
            truth = config.generator.truth_for(None)
        n = int(value) if config.sweep_kind == "n" else config.n
        alpha = float(value) if config.sweep_kind == "alpha" else config.alpha
        size = _block_size(n, truth.dim, truth.q, config.em.n_starts)
        point: list[RepDetail] = []
        for first in range(0, config.reps, size):
            block = []
            for r in range(first, min(first + size, config.reps)):
                rng = np.random.default_rng(np.random.SeedSequence([config.seed, j, r]))
                z, x = sample_mixture(truth, n, rng)
                block.append((r, z, x, rng))
            outcomes = _replications([(x, rng) for _, _, x, rng in block], truth, alpha,
                                     config.procedures, config.em, config.boot)
            for (r, z, _, _), outcome in zip(block, outcomes):
                if isinstance(outcome, Exception):
                    msg = f"sweep value {value}, rep {r}: {outcome!r}"
                    logger.error("replication aborted: %s", msg)
                    failures.append(msg)
                    continue
                for proc, sc in outcome.items():
                    report = sample_fcr(z, sc.labels, sc.selection.selected)
                    point.append(
                        RepDetail(
                            procedure=proc,
                            sweep_value=float(value),
                            rep=r,
                            fcr=report.sample_fcr,
                            selection_frequency=report.selection_frequency,
                            n_selected=report.n_selected,
                        )
                    )
        details.extend(point)
        for proc in config.procedures:
            rows = [d for d in point if d.procedure == proc]
            if not rows:
                continue
            fcrs = np.array([d.fcr for d in rows])
            sels = np.array([d.selection_frequency for d in rows])
            k = len(rows)
            cells.append(
                SweepCell(
                    procedure=proc,
                    sweep_value=float(value),
                    mean_fcr=float(fcrs.mean()),
                    se_fcr=float(fcrs.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
                    mean_selection=float(sels.mean()),
                    se_selection=float(sels.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
                    reps=k,
                )
            )
    if failures:
        logger.warning("%d replications failed; aggregates flagged", len(failures))
    return SweepResult(config=config, cells=cells, details=details, failures=failures)


# --- real data ---------------------------------------------------------------

def run_real_data(
    csv_path,
    columns: list[str],
    q: int,
    alpha: float,
    em_cfg: EmConfig | None = None,
    boot_cfg: BootstrapConfig | None = None,
    ground_truth_column: str | None = None,
    procedure: str = "boot_param",
    seed: int = 0,
    out_csv=None,
) -> tuple[SelectiveClustering, FcrReport | None]:
    """Cluster a CSV with abstention; score against ground truth if given.

    Defaults follow the heavy-tail workflow: a Student-t mixture with fixed
    dof 4 and an unconstrained scatter, calibrated by parametric bootstrap.
    ``procedure`` sets the bootstrap mode (``boot_param`` parametric,
    ``boot_nonparam`` nonparametric) whatever ``boot_cfg.mode`` says.
    The fit and the calibration draw from ``default_rng(seed)``.
    Ground-truth labels never feed the fit; they are read separately and
    only compared against the output.
    """
    if procedure not in _FITTED:  # the oracle needs the truth
        raise ValueError(f"unsupported real-data procedure {procedure!r}")
    x = load_data_csv(csv_path, columns)
    truth_labels = None
    if ground_truth_column is not None:
        _, raw = _read_csv(csv_path, [ground_truth_column], str)
        codes = {v: i for i, v in enumerate(sorted({row[0] for row in raw}))}
        truth_labels = np.array([codes[row[0]] for row in raw], dtype=np.int64)
    if x.shape[0] < q:
        raise ValueError(f"{csv_path}: fewer rows ({x.shape[0]}) than clusters ({q})")

    kind = _FITTED[procedure]
    sc = _fitted_run(x, q, alpha, em_cfg or EmConfig(family="student"),
                         boot_cfg or BootstrapConfig(), seed, (kind,)).selections[kind]

    report = None
    if truth_labels is not None:
        report = sample_fcr(truth_labels, sc.labels, sc.selection.selected)
    if out_csv is not None:
        write_clustering_csv(sc, out_csv)
    return sc, report


# --- output emission ---------------------------------------------------------

def _em_to_json(em: EmConfig) -> dict:
    return {
        "family": em.family,
        "structure": em.structure,
        "max_iter": em.max_iter,
        "n_starts": em.n_starts,
        "rel_tol": em.rel_tol,
        "dof": em.dof,
    }


def _whole(key: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``key`` unless it is a
    whole number, such as 50 or 50.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return value


def _em_from_json(obj: dict) -> EmConfig:
    return EmConfig(
        family=obj.get("family", EmConfig.family),
        structure=obj.get("structure", EmConfig.structure),
        max_iter=_whole("max_iter", obj.get("max_iter", EmConfig.max_iter)),
        n_starts=_whole("n_starts", obj.get("n_starts", EmConfig.n_starts)),
        rel_tol=obj.get("rel_tol", EmConfig.rel_tol),
        dof=float(obj.get("dof", EmConfig.dof)),
    )


def scenario_to_json(config: ScenarioConfig) -> dict:
    """The JSON form of a scenario.  ``generator.family``, ``q`` and ``d``
    follow from ``generator.params`` when it is given, and ``boot.mode`` is
    the default: the procedures choose the bootstrap mode."""
    spec, params = config.generator, config.generator.params
    gen = {
        "family": _family(params),
        "q": spec.q if params is None else params.q,
        "d": spec.d if params is None else params.dim,
        "epsilon": spec.epsilon,
    }
    if params is not None:
        gen["params"] = mixture_to_json(params)
    refit = config.boot.refit
    return {
        "name": config.name,
        "generator": gen,
        "n": config.n,
        "reps": config.reps,
        "procedures": list(config.procedures),
        "sweep": {"kind": config.sweep_kind, "values": list(config.sweep_values)},
        "alpha": config.alpha,
        "em": _em_to_json(config.em),
        "boot": {
            "mode": config.boot.mode,
            "b": config.boot.b,
            "grid": None if config.boot.grid is None else list(config.boot.grid),
            "refit": (
                {"warm_start": refit.iters}
                if isinstance(refit, WarmStart)
                else {"full_refit": True if refit.em is None else _em_to_json(refit.em)}
            ),
        },
        "seed": config.seed,
    }


def _family(params: MixtureParams | None) -> str:
    """The generator family a scenario's JSON names: it follows from ``params``."""
    return "gaussian_separation" if params is None else "fixed"


def scenario_from_json(obj: dict) -> ScenarioConfig:
    gen = obj["generator"]
    params = gen.get("params")
    family = _family(params)
    if gen.get("family", family) != family:
        raise ValueError(
            f"generator family {gen['family']!r}: it is 'fixed' exactly when"
            " params are given, else 'gaussian_separation'"
        )
    if params is not None:
        spec = TruthSpec(params=mixture_from_json(params))
    else:
        spec = TruthSpec(
            q=_whole("q", gen.get("q", TruthSpec.q)),
            d=_whole("d", gen.get("d", TruthSpec.d)),
            epsilon=gen.get("epsilon"),
        )
    boot_obj = obj.get("boot", {})
    refit_obj = boot_obj.get("refit", {"full_refit": True})
    if "warm_start" in refit_obj:
        refit = WarmStart(iters=_whole("warm_start", refit_obj["warm_start"]))
    else:
        full = refit_obj.get("full_refit")
        refit = FullRefit(_em_from_json(full) if isinstance(full, dict) else None)
    boot_cfg = BootstrapConfig(
        mode=boot_obj.get("mode", BootstrapConfig.mode),
        b=_whole("b", boot_obj.get("b", BootstrapConfig.b)),
        grid=None if boot_obj.get("grid") is None else np.asarray(boot_obj["grid"]),
        refit=refit,
    )
    sweep = obj["sweep"]
    return ScenarioConfig(
        name=obj["name"],
        generator=spec,
        n=_whole("n", obj["n"]),
        reps=_whole("reps", obj["reps"]),
        procedures=tuple(obj.get("procedures", PROCEDURES)),
        sweep_kind=sweep["kind"],
        sweep_values=tuple(float(v) for v in sweep["values"]),
        alpha=float(obj["alpha"]),
        em=_em_from_json(obj.get("em", {})),
        boot=boot_cfg,
        seed=_whole("seed", obj.get("seed", ScenarioConfig.seed)),
    )


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(scenario_to_json(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def emit_outputs(result: SweepResult, out_dir) -> list[Path]:
    """Write results.csv, per-run details, the sweep chart, and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    written = [out / "results.csv", out / "details.csv"]
    _write_csv(written[0], ["scenario", "procedure", "sweep_value", "metric", "mean", "se"], (
        [cfg.name, c.procedure, c.sweep_value, metric, mean, se]
        for c in result.cells
        for metric, mean, se in (("fcr", c.mean_fcr, c.se_fcr),
                                 ("selection_frequency", c.mean_selection, c.se_selection))
    ))
    _write_csv(written[1], ["scenario", "sweep_value", "rep", "procedure", "fcr",
                            "selection_frequency", "n_selected"], (
        [cfg.name, d.sweep_value, d.rep, d.procedure, d.fcr, d.selection_frequency,
         d.n_selected]
        for d in result.details
    ))

    if result.cells:
        xs = sorted({c.sweep_value for c in result.cells})
        procs = [p for p in cfg.procedures if any(c.procedure == p for c in result.cells)]
        by_key = {(c.procedure, c.sweep_value): c for c in result.cells}

        def series(metric: str) -> dict[str, list[float]]:
            return {p: [getattr(by_key[p, v], metric) if (p, v) in by_key else math.nan
                        for v in xs] for p in procs}

        svg = _svg.sweep_chart(
            xs,
            series("mean_fcr"),
            series("mean_selection"),
            xlabel=cfg.sweep_kind,
            alpha=cfg.alpha,
            alpha_is_x=cfg.sweep_kind == "alpha",
            title=cfg.name,
        )
        svg_path = out / f"{cfg.name}_sweep.svg"
        svg_path.write_text(svg)
        written.append(svg_path)

    from . import __version__

    manifest = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "config": scenario_to_json(cfg),
        "failed_replications": result.failures,
        "versions": {
            "fcrcluster": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written
