"""Command-line interface.

Subcommands: simulate, fit, cluster, calibrate, oracle-curve.  All
randomness is controlled by ``--seed``; the exit code is 0 only on full
success.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bootstrap import (
    MODES,
    BootstrapConfig,
    FullRefit,
    WarmStart,
    _fitted_run,
    write_curve_csv,
)
from .em import FAMILIES, EmConfig, fit_mixture, save_fit
from .evaluation import _MC_SIZE, oracle_curve, write_oracle_curve_csv
from .harness import (
    emit_outputs,
    get_scenario,
    run_scenario,
    scenario_from_json,
)
from .mixtures import STRUCTURES, load_data_csv, load_mixture_json, posterior_matrix
from .selection import RULES, select_and_label, write_clustering_csv

# the structures a fit estimates: known covariances have no CLI option
_ESTIMATED = [s for s in STRUCTURES if s != "known"]


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a named or file-based scenario")
    p.add_argument("--scenario", required=True, help="builtin name or JSON config path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--reps", type=int, default=None, help="override replication count")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--b", type=int, default=None, help="override bootstrap resample count")


def _add_fit(sub):
    p = sub.add_parser("fit", help="fit a mixture by multi-start EM")
    p.add_argument("--data", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--family", choices=FAMILIES, default=EmConfig.family)
    p.add_argument("--structure", choices=_ESTIMATED, default=EmConfig.structure)
    p.add_argument("--out", required=True, help="output parameter JSON path")
    p.add_argument("--trace-out", default=None, help="optional loglik trace CSV")
    p.add_argument("--max-iter", type=int, default=EmConfig.max_iter)
    p.add_argument("--starts", type=int, default=EmConfig.n_starts)
    p.add_argument("--dof", type=float, default=EmConfig.dof)
    p.add_argument("--seed", type=int, default=0)


def _add_cluster(sub):
    p = sub.add_parser("cluster", help="selective clustering under given parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rule", choices=RULES, default="cumulative")
    p.add_argument("--out", required=True, help="output labels CSV")


def _add_calibrate(sub):
    p = sub.add_parser("calibrate", help="bootstrap-calibrated selective clustering")
    p.add_argument("--data", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mode", choices=MODES, default=BootstrapConfig.mode)
    p.add_argument("--b", type=int, default=BootstrapConfig.b)
    p.add_argument("--family", choices=FAMILIES, default=EmConfig.family)
    p.add_argument("--structure", choices=_ESTIMATED, default=EmConfig.structure)
    p.add_argument(
        "--refit", choices=["full", "warm"], default="full",
        help="re-estimation per resample: full EM or warm start",
    )
    p.add_argument("--warm-iters", type=int, default=WarmStart.iters,
                   help="EM iterations when --refit warm")
    p.add_argument("--refit-starts", type=int, default=1,
                   help="EM starts per resample when --refit full")
    p.add_argument("--dof", type=float, default=EmConfig.dof)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output report directory")


def _add_oracle_curve(sub):
    p = sub.add_parser("oracle-curve", help="Monte-Carlo selective-risk curve")
    p.add_argument("--params", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mc-size", type=int, default=_MC_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional output CSV path")


def _cmd_simulate(args) -> int:
    path = Path(args.scenario)
    if path.suffix == ".json" and path.exists():
        config = scenario_from_json(json.loads(path.read_text()))
    else:
        config = get_scenario(args.scenario)
    if args.reps is not None:
        config.reps = args.reps
    if args.seed is not None:
        config.seed = args.seed
    if args.b is not None:
        config.boot = replace(config.boot, b=args.b)
    result = run_scenario(config)
    written = emit_outputs(result, args.out)
    for p in written:
        print(p)
    if result.failures:
        print(f"warning: {len(result.failures)} replications failed", file=sys.stderr)
        return 1
    return 0


def _cmd_fit(args) -> int:
    x = load_data_csv(args.data)
    cfg = EmConfig(
        family=args.family,
        structure=args.structure,
        max_iter=args.max_iter,
        n_starts=args.starts,
        dof=args.dof,
    )
    result = fit_mixture(x, args.q, cfg, np.random.default_rng(args.seed))
    save_fit(result, args.out, args.trace_out)
    print(f"{args.out}  loglik={result.loglik:.6f}  converged={result.converged}")
    return 0


def _cmd_cluster(args) -> int:
    x = load_data_csv(args.data)
    params = load_mixture_json(args.params)
    sc = select_and_label(posterior_matrix(params, x), args.alpha, args.rule)
    write_clustering_csv(sc, args.out)
    print(
        f"{args.out}  selected={sc.selection.k_star}/{len(sc.labels)}"
        f"  threshold={sc.selection.threshold:.6g}"
    )
    return 0


def _cmd_calibrate(args) -> int:
    x = load_data_csv(args.data)
    em_cfg = EmConfig(family=args.family, structure=args.structure, dof=args.dof)
    if args.refit == "warm":
        refit = WarmStart(iters=args.warm_iters)
        refit_note = f"warm start, {args.warm_iters} EM iterations per resample"
    else:
        refit = FullRefit(replace(em_cfg, n_starts=args.refit_starts))
        refit_note = f"full EM per resample ({args.refit_starts} starts)"
    boot_cfg = BootstrapConfig(mode=args.mode, b=args.b, refit=refit)
    run = _fitted_run(x, args.q, args.alpha, em_cfg, boot_cfg, args.seed, (args.mode,))
    curve, sc = run.curves[args.mode], run.selections[args.mode]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(curve, out / "curve.csv")
    write_clustering_csv(sc, out / "labels.csv")
    save_fit(run.fit, out / "params.json")
    chosen = (
        "none"
        if curve.chosen_index is None
        else f"{curve.levels[curve.chosen_index]:.6g}"
        f" (estimated fcr {curve.fcr_hat[curve.chosen_index]:.6g})"
    )
    report = "\n".join(
        [
            f"mode: {args.mode}",
            f"resamples: {args.b}",
            f"refit: {refit_note}",
            f"target level: {args.alpha}",
            f"chosen working level: {chosen}",
            f"selected: {sc.selection.k_star}/{len(sc.labels)}",
            f"seed: {args.seed}",
        ]
    )
    (out / "report.txt").write_text(report + "\n")
    print(report)
    return 0


def _cmd_oracle_curve(args) -> int:
    params = load_mixture_json(args.params)
    rng = np.random.default_rng(args.seed)
    curve = oracle_curve(params, args.alpha, mc_size=args.mc_size, rng=rng)
    if args.out is not None:
        write_oracle_curve_csv(curve, args.out)
        print(args.out)
    print(
        f"t_star={curve.t_star:.6g}  alpha_c={curve.alpha_c:.6g}"
        f"  alpha_bar={curve.alpha_bar:.6g}  mc_size={curve.mc_size}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcrcluster",
        description="Selective clustering with false clustering rate control.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_fit(sub)
    _add_cluster(sub)
    _add_calibrate(sub)
    _add_oracle_curve(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "cluster": _cmd_cluster,
        "calibrate": _cmd_calibrate,
        "oracle-curve": _cmd_oracle_curve,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
