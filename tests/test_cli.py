import inspect
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.bootstrap import (
    FullRefit,
    WarmStart,
    clustering_at_calibrated_level,
    write_curve_csv,
)
from fcrcluster.cli import build_parser, main
from fcrcluster.em import save_fit
from fcrcluster.selection import write_clustering_csv


@pytest.fixture()
def data_csv(tmp_path):
    truth = fc.gaussian_separation_truth(2, 2, 3.0)
    _, x = fc.sample_mixture(truth, 150, np.random.default_rng(0))
    path = tmp_path / "data.csv"
    fc.save_data_csv(x, path)
    return path


def test_fit_cluster_pipeline(data_csv, tmp_path):
    params_path = tmp_path / "params.json"
    trace_path = tmp_path / "trace.csv"
    rc = main(
        [
            "fit", "--data", str(data_csv), "--q", "2",
            "--out", str(params_path), "--trace-out", str(trace_path),
            "--starts", "3", "--seed", "1",
        ]
    )
    assert rc == 0
    assert params_path.exists() and trace_path.exists()
    labels_path = tmp_path / "labels.csv"
    rc = main(
        [
            "cluster", "--data", str(data_csv), "--params", str(params_path),
            "--alpha", "0.1", "--rule", "cumulative", "--out", str(labels_path),
        ]
    )
    assert rc == 0
    lines = labels_path.read_text().splitlines()
    assert lines[0] == "item_index,map_label,selected,t_value"
    assert len(lines) == 151


def test_calibrate_report(data_csv, tmp_path):
    out_dir = tmp_path / "report"
    rc = main(
        [
            "calibrate", "--data", str(data_csv), "--q", "2", "--alpha", "0.1",
            "--mode", "nonparametric", "--b", "15", "--refit", "warm",
            "--warm-iters", "3", "--seed", "2", "--out", str(out_dir),
        ]
    )
    assert rc == 0
    report = (out_dir / "report.txt").read_text()
    assert "mode: nonparametric" in report
    assert "warm start, 3 EM iterations" in report
    assert "chosen working level" in report
    assert (out_dir / "curve.csv").exists()
    assert (out_dir / "labels.csv").exists()


def test_oracle_curve_command(tmp_path):
    truth = fc.gaussian_separation_truth(2, 2, 2.0)
    params_path = tmp_path / "truth.json"
    fc.save_mixture_json(truth, params_path)
    out_csv = tmp_path / "curve.csv"
    rc = main(
        [
            "oracle-curve", "--params", str(params_path), "--alpha", "0.1",
            "--mc-size", "50000", "--seed", "3", "--out", str(out_csv),
        ]
    )
    assert rc == 0
    assert out_csv.read_text().startswith("t,mfcr,se,mc_size")


def test_oracle_curve_rejects_an_empty_sample(tmp_path, capsys):
    # --mc-size 0 used to warn on the mean of an empty sample, then fail on
    # its first element
    params_path = tmp_path / "truth.json"
    fc.save_mixture_json(fc.gaussian_separation_truth(2, 2, 2.0), params_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["oracle-curve", "--params", str(params_path), "--alpha", "0.1",
                   "--mc-size", "0"])
    assert rc == 1 and not caught
    assert "error: mc_size must be >= 1, got 0" in capsys.readouterr().err
    args = build_parser().parse_args(["oracle-curve", "--params", "p", "--alpha", "0.1"])
    assert args.mc_size == inspect.signature(fc.oracle_curve).parameters["mc_size"].default


def test_oracle_curve_rejects_a_level_outside_the_unit_interval(tmp_path, capsys):
    params_path = tmp_path / "truth.json"
    fc.save_mixture_json(fc.gaussian_separation_truth(2, 2, 2.0), params_path)
    rc = main(["oracle-curve", "--params", str(params_path), "--alpha", "nan",
               "--mc-size", "1000"])
    out = capsys.readouterr()
    assert rc == 1 and "t_star" not in out.out
    assert "alpha must lie in (0, 1)" in out.err


def test_simulate_named_scenario(tmp_path):
    out_dir = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--scenario", "known-params", "--out", str(out_dir),
            "--reps", "2", "--b", "8", "--seed", "7",
        ]
    )
    assert rc == 0
    assert (out_dir / "results.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_simulate_config_file(tmp_path):
    from fcrcluster.harness import scenario_to_json

    cfg = fc.get_scenario("unconstrained")
    cfg.reps = 2
    cfg.sweep_values = (0.1, 0.2)
    cfg.procedures = ("oracle", "fixed")
    cfg.n = 60
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(cfg)))
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(path), "--out", str(out_dir)])
    assert rc == 0
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2  # two procedures x two sweep points x two metrics


def test_simulate_reports_failed_replications(tmp_path, capsys):
    # a one-row sample cannot be fitted with q=2: both n=1 replications fail,
    # the n=40 ones run, and simulate exits 1
    scenario = {
        "name": "failing", "generator": {"q": 2, "d": 2, "epsilon": 2.0},
        "n": 40, "reps": 2, "procedures": ["plugin", "fixed"],
        "sweep": {"kind": "n", "values": [1, 40]}, "alpha": 0.1,
        "em": {"structure": "diagonal", "n_starts": 2}, "seed": 3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(path), "--out", str(out_dir)])
    assert rc == 1
    assert "warning: 2 replications failed" in capsys.readouterr().err
    failed = json.loads((out_dir / "manifest.json").read_text())["failed_replications"]
    assert [f.split(":")[0] for f in failed] == ["sweep value 1.0, rep 0",
                                                 "sweep value 1.0, rep 1"]
    rows = (out_dir / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 2 and {r.split(",")[2] for r in rows} == {"40.0"}


def test_simulate_names_a_missing_scenario_file(tmp_path, capsys):
    # a missing .json path used to be looked up as a builtin scenario name
    missing = tmp_path / "missing.json"
    rc = main(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "no scenario named" not in err
    assert not (tmp_path / "out").exists()


def test_parser_defaults_are_the_config_defaults():
    parser = build_parser()
    fit = parser.parse_args(["fit", "--data", "d.csv", "--q", "2", "--out", "p.json"])
    cal = parser.parse_args(["calibrate", "--data", "d.csv", "--q", "2",
                             "--alpha", "0.1", "--out", "report"])
    em, boot = fc.EmConfig(), fc.BootstrapConfig()
    for args in (fit, cal):
        assert (args.family, args.structure, args.dof) == (em.family, em.structure, em.dof)
    assert (fit.max_iter, fit.starts) == (em.max_iter, em.n_starts)
    assert (cal.mode, cal.b, cal.warm_iters) == (boot.mode, boot.b, WarmStart().iters)


def test_fit_seed_is_the_api_rng(data_csv, tmp_path):
    # --seed s fits exactly as fit_mixture with default_rng(s)
    cli_path, api_path = tmp_path / "cli.json", tmp_path / "api.json"
    rc = main(["fit", "--data", str(data_csv), "--q", "2", "--seed", "4",
               "--out", str(cli_path)])
    assert rc == 0
    x = fc.load_data_csv(data_csv)
    save_fit(fc.fit_mixture(x, 2, fc.EmConfig(), np.random.default_rng(4)), api_path)
    assert cli_path.read_bytes() == api_path.read_bytes()


def test_calibrate_seed_is_the_api_rng(data_csv, tmp_path):
    # --seed s fits and then calibrates from one default_rng(s), with the
    # CLI's configs: default EM, one-start full refits
    out = tmp_path / "cli"
    rc = main(["calibrate", "--data", str(data_csv), "--q", "2", "--alpha", "0.1",
               "--b", "10", "--seed", "6", "--out", str(out)])
    assert rc == 0
    x = fc.load_data_csv(data_csv)
    em = fc.EmConfig()
    boot = fc.BootstrapConfig(b=10, refit=FullRefit(replace(em, n_starts=1)))
    rng = np.random.default_rng(6)
    fit = fc.fit_mixture(x, 2, em, rng)
    curve = fc.calibrate_level(x, fit.params, 0.1, boot, em, rng)
    write_curve_csv(curve, tmp_path / "curve.csv")
    sc = clustering_at_calibrated_level(fc.posterior_matrix(fit.params, x), 0.1, curve)
    write_clustering_csv(sc, tmp_path / "labels.csv")
    for name in ("curve.csv", "labels.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_parameter_names_read_by_the_benchmark_tracer():
    # bench/tracing.py binds each traced call's arguments and reads these by name
    for fn, names in ((fc.calibrate_level, {"cfg"}),
                      (fc.posterior_matrix, {"params", "data"}),
                      (fc.em_steps, {"n_iter"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__


def test_names_the_benchmark_reads_exist():
    # bench/ drives the CLI and reloads and scores its outputs; its tracer
    # observes four functions and bootstrap.resample, wrapping only functions
    # a module defines, and reads FitResult fields: a trim that drops or
    # moves one of these breaks the benchmark
    for module, names in (
        (fc.cli, ["main"]),
        (fc.mixtures, ["load_mixture_json", "mixture_loglik", "posterior_matrix"]),
        (fc.em, ["fit_mixture", "em_steps"]),
        (fc.bootstrap, ["calibrate_level", "resample"]),
    ):
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{module.__name__}.{name}"
            assert fn.__module__ == module.__name__, f"{module.__name__}.{name}"
    read = {"n_starts_run", "loglik_trace", "converged", "n_reinits"}
    assert read <= {f.name for f in fields(fc.FitResult)}


def test_error_exit_code(tmp_path):
    rc = main(
        [
            "cluster", "--data", str(tmp_path / "missing.csv"),
            "--params", str(tmp_path / "missing.json"),
            "--alpha", "0.1", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 1


def test_fit_rejects_q_below_one(data_csv, tmp_path, capsys):
    rc = main(["fit", "--data", str(data_csv), "--q", "0",
               "--out", str(tmp_path / "params.json")])
    assert rc == 1
    assert "q must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--alpha", "1.5"], "alpha must lie in (0, 1)"),
        (["--alpha", "0"], "alpha must lie in (0, 1)"),
        (["--alpha", "0.1", "--refit", "warm", "--warm-iters", "-1"], "iters must be >= 0"),
    ],
)
def test_calibrate_rejects_bad_levels_and_iters(
    data_csv, tmp_path, capsys, monkeypatch, extra, message
):
    def no_resample(*args, **kwargs):
        raise AssertionError("resampled before the settings were checked")

    monkeypatch.setattr(fc.bootstrap, "resample", no_resample)
    out_dir = tmp_path / "report"
    rc = main(["calibrate", "--data", str(data_csv), "--q", "2", "--b", "3",
               "--out", str(out_dir), *extra])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out_dir / "report.txt").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--alpha", "1.5"], "alpha must lie in (0, 1)"),
        (["--alpha", "0.1", "--refit", "warm", "--warm-iters", "-1"], "iters must be >= 0"),
        (["--alpha", "0.1", "--refit-starts", "0"], "n_starts must be >= 1"),
    ],
)
def test_calibrate_checks_settings_before_the_fit(
    data_csv, tmp_path, capsys, monkeypatch, extra, message
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the settings were checked")

    monkeypatch.setattr(fc.bootstrap, "fit_mixture", no_fit)
    out_dir = tmp_path / "report"
    rc = main(["calibrate", "--data", str(data_csv), "--q", "2", "--b", "3",
               "--out", str(out_dir), *extra])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def edge_input(name):
    """(data, q, alpha) of one CLI edge case; the data are None for a CSV
    with a non-finite cell."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))
    return {
        "d1": (x[:, :1], 2, 0.1),
        "constant-column": (np.column_stack([x[:, 0], np.full(40, 3.0)]), 2, 0.1),
        "repeated-rows": (np.tile(x[:10], (8, 1)), 2, 0.1),
        "two-points": (np.repeat([[0.0, 0.0], [3.0, 1.0]], 40, axis=0), 2, 0.1),
        "q1": (x, 1, 0.1),
        "alpha-tiny": (x, 2, 1e-9),
        "alpha-large": (x, 2, 0.999),
        "nan-cell": (None, 2, 0.1),
        "far-row": (np.vstack([x, [[1e160, 0.0]]]), 2, 0.1),
    }[name]


EDGE_CASES = [
    (command, structure, name)
    for command in ("fit", "calibrate")
    for structure in ("full", "diagonal", "spherical")
    for name in ("d1", "constant-column", "repeated-rows", "two-points", "q1",
                 "alpha-tiny", "alpha-large", "nan-cell", "far-row")
    if command == "calibrate" or not name.startswith("alpha")
]


@pytest.mark.parametrize("command, structure, name", EDGE_CASES)
def test_edge_inputs_finish_cleanly(tmp_path, capsys, command, structure, name):
    # degenerate data and extreme levels give finite, in-range outputs or
    # one error line, and no numpy warning
    x, q, alpha = edge_input(name)
    data = tmp_path / "data.csv"
    if x is None:
        data.write_text("x1,x2\n0.5,1.0\nnan,2.0\n1.5,0.0\n")
    else:
        fc.save_data_csv(x, data)
    out = tmp_path / "out"
    argv = [command, "--data", str(data), "--q", str(q), "--structure", structure,
            "--seed", "3"]
    if command == "fit":
        argv += ["--out", str(out.with_suffix(".json"))]
    else:
        argv += ["--alpha", repr(alpha), "--b", "5", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    if name in ("nan-cell", "far-row"):
        assert rc == 1
        assert errors == ["error: " + ("data rows must be finite" if name == "nan-cell"
                                       else fc.em._FAR_ROWS)]
        return
    assert rc == 0 and errors == []
    params = fc.load_mixture_json(out.with_suffix(".json") if command == "fit"
                                  else out / "params.json")
    assert params.q == q and np.all(params.weights > 0.0)
    for comp in params.components:
        assert np.all(np.isfinite(comp.mean)) and np.all(np.isfinite(comp.scatter))
    if command == "fit":
        assert np.isfinite(float(captured.out.split("loglik=")[1].split()[0]))
    else:
        curve = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.all((curve[:, 1] >= 0.0) & (curve[:, 1] <= 1.0))
        labels = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.all((labels[:, 1] >= 0) & (labels[:, 1] < q))
        assert np.all((labels[:, 3] >= 0.0) & (labels[:, 3] <= 1.0 - 1.0 / q))


def test_cluster_rejects_a_row_far_from_every_component(tmp_path, capsys):
    # a sound diagonal fit; the far row's density underflows under both
    # components, which used to give it a NaN risk and exit 0
    x = np.random.default_rng(8).normal(size=(120, 2))
    data, params = tmp_path / "data.csv", tmp_path / "params.json"
    fc.save_data_csv(x, data)
    assert main(["fit", "--data", str(data), "--q", "2", "--structure", "diagonal",
                 "--out", str(params), "--seed", "1"]) == 0
    fc.save_data_csv(np.vstack([x, [[1e160, 0.0]]]), data)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["cluster", "--data", str(data), "--params", str(params),
                   "--alpha", "0.1", "--out", str(tmp_path / "labels.csv")])
    assert rc == 1 and not caught
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "row 120 is too far from every mixture component" in errors[0]
    assert not (tmp_path / "labels.csv").exists()


@pytest.mark.bits
def test_import_leaves_scipy_optimize_and_special_unloaded():
    # the assignment solver and the normal CDF are imported where they are
    # used, and the density kernel needs no LAPACK wrapper, so starting the
    # command loads none of these modules
    code = ("import sys, fcrcluster.cli; print([m for m in"
            " ('scipy.optimize', 'scipy.special', 'scipy.linalg') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(fc.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    # the bootstrap scores two and three components without the solver
    code = (
        "import sys, numpy as np, fcrcluster as fc\n"
        "_, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 80,"
        " np.random.default_rng(0))\n"
        "em = fc.EmConfig(n_starts=2, max_iter=20)\n"
        "params = fc.fit_mixture(x, 2, em, np.random.default_rng(1)).params\n"
        "for mode in ('parametric', 'nonparametric'):\n"
        "    for refit in (fc.WarmStart(3), fc.FullRefit()):\n"
        "        cfg = fc.BootstrapConfig(mode=mode, b=4, refit=refit)\n"
        "        fc.calibrate_level(x, params, 0.1, cfg, em, np.random.default_rng(2))\n"
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
