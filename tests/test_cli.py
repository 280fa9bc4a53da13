import json

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.cli import main


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

    monkeypatch.setattr(fc.cli, "fit_mixture", no_fit)
    out_dir = tmp_path / "report"
    rc = main(["calibrate", "--data", str(data_csv), "--q", "2", "--b", "3",
               "--out", str(out_dir), *extra])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()
