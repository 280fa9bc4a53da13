import json
import math
from dataclasses import replace

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.bootstrap import FullRefit, WarmStart
from fcrcluster.cli import main
from fcrcluster.harness import (
    SweepResult,
    config_hash,
    scenario_from_json,
    scenario_to_json,
)


def tiny_scenario(**overrides):
    cfg = fc.get_scenario("known-params")
    cfg.reps = 3
    cfg.sweep_values = (2.0,)
    cfg.procedures = ("oracle", "plugin", "fixed")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestBuiltinScenarios:
    def test_all_validate(self):
        for cfg in fc.builtin_scenarios():
            cfg.validate()

    def test_core_names_present(self):
        names = {c.name for c in fc.builtin_scenarios()}
        assert {
            "known-params",
            "diagonal",
            "high-dim",
            "three-component",
            "unconstrained",
            "typical",
        } <= names

    def test_known_params_truth(self):
        cfg = fc.get_scenario("known-params")
        truth = cfg.generator.truth_for(2.0)
        np.testing.assert_array_equal(truth.weights, [0.5, 0.5])
        np.testing.assert_allclose(truth.components[0].mean, [0.0, 0.0])
        np.testing.assert_allclose(
            truth.components[1].mean, [2.0 / math.sqrt(2), 2.0 / math.sqrt(2)]
        )
        for comp in truth.components:
            np.testing.assert_array_equal(comp.scatter, np.eye(2))
        assert cfg.em.structure == "known"
        assert cfg.n == 100 and cfg.alpha == 0.1

    def test_three_component_truth(self):
        cfg = fc.get_scenario("three-component")
        truth = cfg.generator.truth_for(2.0)
        np.testing.assert_allclose(truth.weights, np.full(3, 1 / 3))
        np.testing.assert_allclose(truth.components[1].mean,
                                   [2.0 / math.sqrt(2), 2.0 / math.sqrt(2)])
        np.testing.assert_allclose(truth.components[2].mean, [0.0, math.sqrt(2.0)])
        for comp in truth.components:
            np.testing.assert_array_equal(comp.scatter, np.eye(2))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="no scenario"):
            fc.get_scenario("nope")

    def test_json_round_trip(self):
        cfg = fc.get_scenario("diagonal")
        again = scenario_from_json(scenario_to_json(cfg))
        assert config_hash(again) == config_hash(cfg)
        assert again.sweep_values == cfg.sweep_values
        assert again.em.structure == "diagonal"

    def test_json_defaults_are_the_config_defaults(self):
        minimal = {"name": "m", "generator": {}, "n": 50, "reps": 1,
                   "sweep": {"kind": "epsilon", "values": [1.0]}, "alpha": 0.1}
        assert scenario_from_json(minimal) == fc.ScenarioConfig(
            name="m", generator=fc.TruthSpec(), n=50, reps=1,
            procedures=fc.harness.PROCEDURES, sweep_kind="epsilon",
            sweep_values=(1.0,), alpha=0.1,
        )

    def test_json_keeps_a_warm_start_refit(self):
        # the form the benchmark's scenario writes
        cfg = fc.get_scenario("diagonal")
        j = scenario_to_json(replace(cfg, boot=replace(cfg.boot, refit=WarmStart(10))))
        assert j["boot"]["refit"] == {"warm_start": 10}
        again = scenario_from_json(j)
        assert again.boot.refit == WarmStart(10)
        assert scenario_to_json(again) == j

    def test_json_generator_family_follows_from_params(self):
        truth = fc.gaussian_separation_truth(2, 2, 1.0)
        assert fc.TruthSpec(params=truth, epsilon=2.0).truth_for(4.0) is truth
        base = {"name": "m", "n": 50, "reps": 1,
                "sweep": {"kind": "alpha", "values": [0.1]}, "alpha": 0.1}
        params = {"params": fc.mixture_to_json(truth)}
        for gen, family in (({"epsilon": 1.0}, "gaussian_separation"), (params, "fixed")):
            for named in (gen, {**gen, "family": family}):
                cfg = scenario_from_json({**base, "generator": named})
                assert scenario_to_json(cfg)["generator"]["family"] == family
        for gen in ({"family": "bogus", "epsilon": 1.0}, {"family": "fixed"},
                    {**params, "family": "gaussian_separation"}):
            with pytest.raises(ValueError, match="generator family"):
                scenario_from_json({**base, "generator": gen})

    def test_json_writes_the_q_and_d_of_a_params_truth(self):
        # the generator's q and d used to be the TruthSpec defaults, 2 and 2
        truth = fc.MixtureParams(
            weights=np.full(3, 1 / 3),
            components=tuple(fc.ComponentParams(kind="gaussian", mean=m, scatter=np.eye(3))
                             for m in 4.0 * np.eye(3)),
        )
        cfg = tiny_scenario(generator=fc.TruthSpec(params=truth))
        obj = scenario_to_json(cfg)
        assert (obj["generator"]["q"], obj["generator"]["d"]) == (3, 3)
        again = scenario_from_json(json.loads(json.dumps(obj)))
        assert scenario_to_json(again) == obj
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("em", [fc.EmConfig(structure="known", n_starts=2.5),
                                    fc.EmConfig(structure="known", max_iter=2.5)])
    def test_non_whole_counts_rejected_before_sampling(self, monkeypatch, em):
        # n_starts=2.5 used to raise TypeError at the block size
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the settings were checked")

        monkeypatch.setattr(fc.harness, "sample_mixture", no_sample)
        with pytest.raises(ValueError, match="must be >= 1 and whole, got 2.5"):
            fc.run_scenario(tiny_scenario(em=em))

    @pytest.mark.parametrize("setting, message", [
        ({"n": 2.5}, "n must be >= 1 and whole, got 2.5"),
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"reps": 2.5}, "reps must be >= 1 and whole, got 2.5"),
        ({"reps": 0}, "reps must be >= 1, got 0"),
        ({"sweep_kind": "n", "sweep_values": (30.0, 50.5)}, "n sweep values must be whole"),
        ({"sweep_kind": "n", "sweep_values": (0.0,)}, "n sweep values must be whole and >= 1"),
        ({"alpha": 1.5}, r"alpha must lie in \(0, 1\), got 1.5"),
        ({"sweep_kind": "alpha", "sweep_values": (0.1, math.nan)}, r"alpha must lie in \(0, 1\)"),
    ])
    def test_bad_sizes_and_levels_rejected_before_sampling(self, monkeypatch, setting, message):
        # n=2.5 and reps=2.5 used to raise TypeError mid-run, n=0 to fail
        # every replication, and an n-sweep value of 50.5 to run at n=50
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the settings were checked")

        monkeypatch.setattr(fc.harness, "sample_mixture", no_sample)
        with pytest.raises(ValueError, match=message):
            fc.run_scenario(tiny_scenario(**setting))

    def test_json_string_rel_tol_rejected_before_sampling(self, monkeypatch):
        # "rel_tol": "1e-8" used to load as a string and raise TypeError in
        # the first E-step, after the sample was drawn
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the settings were checked")

        obj = scenario_to_json(tiny_scenario())
        obj["em"]["rel_tol"] = "1e-8"
        monkeypatch.setattr(fc.harness, "sample_mixture", no_sample)
        with pytest.raises(ValueError, match="rel_tol must be None or a finite number >= 0, got '1e-8'"):
            fc.run_scenario(scenario_from_json(obj))

    @pytest.mark.parametrize("path", [("n",), ("reps",), ("seed",), ("generator", "q"),
                                      ("generator", "d"), ("em", "max_iter"),
                                      ("em", "n_starts"), ("boot", "b"),
                                      ("boot", "refit", "warm_start")])
    def test_json_rejects_non_whole_counts(self, path):
        # "b": 2.5 used to load as b=2, so simulate ran another configuration
        def slot(obj):
            for key in path[:-1]:
                obj = obj[key]
            return obj

        cfg = fc.get_scenario("diagonal")
        obj = scenario_to_json(replace(cfg, boot=replace(cfg.boot, refit=WarmStart(10))))
        edited = json.loads(json.dumps(obj))
        slot(edited)[path[-1]] = 2.5
        with pytest.raises(ValueError, match=f"{path[-1]} must be a whole number, got 2.5"):
            scenario_from_json(edited)
        # a whole number written as a float still loads as that count
        slot(edited)[path[-1]] = float(slot(obj)[path[-1]])
        assert scenario_to_json(scenario_from_json(edited)) == obj

    def test_boot_mode_is_chosen_by_the_procedures(self):
        cfg = fc.get_scenario("diagonal")
        cfg.boot = replace(cfg.boot, mode="nonparametric")
        with pytest.raises(ValueError, match="boot_param and boot_nonparam choose the mode"):
            cfg.validate()

    def test_json_keeps_the_refit_em_config(self):
        cfg = fc.get_scenario("diagonal")
        refit_em = fc.EmConfig(structure="diagonal", n_starts=1, max_iter=30)
        own = replace(cfg, boot=replace(cfg.boot, refit=FullRefit(refit_em)))
        assert config_hash(own) != config_hash(cfg)
        j = scenario_to_json(own)
        assert scenario_to_json(scenario_from_json(j)) == j
        assert scenario_from_json(j).boot.refit.em.max_iter == 30


class TestRunScenario:
    def test_deterministic(self):
        cfg = tiny_scenario()
        res1 = fc.run_scenario(cfg)
        res2 = fc.run_scenario(tiny_scenario())
        assert [(c.procedure, c.mean_fcr, c.mean_selection) for c in res1.cells] == [
            (c.procedure, c.mean_fcr, c.mean_selection) for c in res2.cells
        ]
        assert res1.details == res2.details

    def test_baseline_dominated_by_plugin_every_rep(self):
        truth = fc.gaussian_separation_truth(2, 2, 1.0)
        em_cfg = fc.EmConfig(
            structure="known",
            known_weights=truth.weights,
            known_covariances=tuple(c.scatter for c in truth.components),
            n_starts=4,
        )
        boot_cfg = fc.BootstrapConfig(b=5, refit=WarmStart(0))
        for rep in range(10):
            rng = np.random.default_rng(np.random.SeedSequence([5, rep]))
            _, x = fc.sample_mixture(truth, 100, rng)
            out = fc.run_replication(
                x, truth, 0.1, ("plugin", "fixed"), em_cfg, boot_cfg, rng
            )
            assert set(out["fixed"].selection.selected.tolist()) <= set(
                out["plugin"].selection.selected.tolist()
            )

    def test_truth_labels_never_reach_procedures(self):
        # run_replication takes no label argument; with identical generator
        # states the clustering is bitwise identical whatever the truth says
        truth = fc.gaussian_separation_truth(2, 2, 2.0)
        z, x = fc.sample_mixture(truth, 80, np.random.default_rng(6))
        em_cfg = fc.EmConfig(n_starts=2)
        boot_cfg = fc.BootstrapConfig(b=4, refit=WarmStart(0))
        rng1 = np.random.default_rng(np.random.SeedSequence([6, 1]))
        rng2 = np.random.default_rng(np.random.SeedSequence([6, 1]))
        out1 = fc.run_replication(x, truth, 0.1, ("plugin",), em_cfg, boot_cfg, rng1)
        out2 = fc.run_replication(x, truth, 0.1, ("plugin",), em_cfg, boot_cfg, rng2)
        np.testing.assert_array_equal(out1["plugin"].labels, out2["plugin"].labels)
        np.testing.assert_array_equal(
            out1["plugin"].selection.selected, out2["plugin"].selection.selected
        )
        corrupted = (z + 1) % 2
        r1 = fc.sample_fcr(z, out1["plugin"].labels, out1["plugin"].selection.selected)
        r2 = fc.sample_fcr(corrupted, out1["plugin"].labels,
                           out1["plugin"].selection.selected)
        assert r1.sample_fcr == r2.sample_fcr  # swapped labels: same best perm

    def test_alpha_sweep(self):
        cfg = tiny_scenario(
            sweep_kind="alpha", sweep_values=(0.05, 0.2), procedures=("oracle",)
        )
        cfg.generator.epsilon = 2.0
        res = fc.run_scenario(cfg)
        sel = {c.sweep_value: c.mean_selection for c in res.cells}
        assert sel[0.05] <= sel[0.2]

    def test_n_sweep(self):
        cfg = tiny_scenario(sweep_kind="n", sweep_values=(30.0, 60.0),
                            procedures=("oracle",))
        cfg.generator.epsilon = 2.0
        res = fc.run_scenario(cfg)
        assert {c.sweep_value for c in res.cells} == {30.0, 60.0}

    def test_oracle_well_separated_fcr_far_below_alpha(self):
        # most items classify trivially, so the oracle stops well under alpha
        cfg = tiny_scenario(procedures=("oracle",), reps=50, sweep_values=(4.0,))
        res = fc.run_scenario(cfg)
        cell = res.cells[0]
        assert cell.mean_fcr <= 0.1
        assert cell.mean_fcr < 0.05
        assert cell.mean_selection > 0.9

    def test_nine_component_fixed_truth_completes(self):
        # Q = 9 is past the exhaustive permutation search used in scoring
        comps = tuple(
            fc.ComponentParams("gaussian", 4.0 * np.array([i % 3, i // 3]), np.eye(2))
            for i in range(9)
        )
        truth = fc.MixtureParams(np.full(9, 1 / 9), comps)
        cfg = scenario_from_json({
            "name": "nine", "generator": {"params": fc.mixture_to_json(truth)},
            "n": 90, "reps": 2, "procedures": ["oracle"],
            "sweep": {"kind": "alpha", "values": [0.1]}, "alpha": 0.1,
        })
        res = fc.run_scenario(cfg)
        assert res.failures == []
        assert len(res.details) == 2
        assert res.cells[0].mean_fcr < 0.1


def test_replication_computes_the_fit_posterior_once(monkeypatch):
    # one posterior of the data under the truth (the oracle) and one under
    # the fit, which the plug-in, the baseline and both calibrated
    # procedures share
    truth = fc.gaussian_separation_truth(2, 2, 3.0)
    _, x = fc.sample_mixture(truth, 60, np.random.default_rng(0))
    on_x = []
    posterior = fc.mixtures.posterior_with_loglik

    def counting(params, data):
        on_x.append(data is x)
        return posterior(params, data)

    monkeypatch.setattr(fc.mixtures, "posterior_with_loglik", counting)
    boot = fc.BootstrapConfig(b=3, refit=WarmStart(2))
    out = fc.run_replication(x, truth, 0.1, fc.harness.PROCEDURES, fc.EmConfig(n_starts=2),
                             boot, np.random.default_rng(1))
    assert set(out) == set(fc.harness.PROCEDURES)
    assert sum(on_x) == 2


def test_calibrate_computes_the_fit_posterior_once(monkeypatch, tmp_path):
    # the calibrate command selects from the posterior of its input rows
    # that the calibrated run computed, and computes no other
    truth = fc.gaussian_separation_truth(2, 2, 3.0)
    _, x = fc.sample_mixture(truth, 60, np.random.default_rng(0))
    path = tmp_path / "data.csv"
    fc.save_data_csv(x, path)
    rows = fc.load_data_csv(path)
    on_rows = []
    posterior = fc.mixtures.posterior_with_loglik

    def counting(params, data):
        on_rows.append(np.shape(data) == rows.shape and np.array_equal(data, rows))
        return posterior(params, data)

    monkeypatch.setattr(fc.mixtures, "posterior_with_loglik", counting)
    for mode in fc.bootstrap.MODES:
        on_rows.clear()
        rc = main(["calibrate", "--data", str(path), "--q", "2", "--alpha", "0.1",
                   "--b", "3", "--mode", mode, "--out", str(tmp_path / mode)])
        assert rc == 0
        assert sum(on_rows) == 1, mode


def entry_point_inputs(tmp_path):
    """The truth, two-cluster rows read back from a CSV with columns x1, x2, and
    that CSV's path."""
    truth = fc.gaussian_separation_truth(2, 2, 2.5)
    _, x = fc.sample_mixture(truth, 120, np.random.default_rng(4))
    path = tmp_path / "rows.csv"
    fc.save_data_csv(x, path)
    return truth, fc.load_data_csv(path), path


@pytest.mark.parametrize(
    "setting, message",
    [({"alpha": 1.5}, "alpha must lie in"),
     ({"grid": np.array([0.08, 0.04])}, "grid must be strictly increasing"),
     ({"b": 0}, "b must be >= 1"),
     ({"refit": FullRefit(fc.EmConfig(structure="known", known_covariances=(np.eye(3),) * 2))},
      "known_covariances must be 2x2"),
     ({"b": 2.5}, "b must be >= 1 and whole, got 2.5"),
     ({"em": fc.EmConfig(n_starts=2.5)}, "n_starts must be >= 1 and whole, got 2.5"),
     ({"em": fc.EmConfig(n_starts=1, max_iter=2.5)}, "max_iter must be >= 1 and whole")],
)
@pytest.mark.parametrize("entry", ["bootstrap_procedure", "run_replication", "run_real_data"])
def test_entry_points_check_settings_before_the_fit(monkeypatch, tmp_path, entry, setting,
                                                    message):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the settings were checked")

    for module in (fc.em, fc.bootstrap, fc.harness):
        for name in ("fit_mixture", "_fit_datasets"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_fit)
    truth, x, path = entry_point_inputs(tmp_path)
    alpha = setting.get("alpha", 0.1)
    boot = fc.BootstrapConfig(b=setting.get("b", 4), grid=setting.get("grid"),
                              refit=setting.get("refit", FullRefit()))
    em = setting.get("em", fc.EmConfig(n_starts=1))
    run = {
        "bootstrap_procedure": lambda: fc.bootstrap_procedure(x, 2, alpha, em, boot, 0),
        "run_replication": lambda: fc.run_replication(
            x, truth, alpha, ("plugin", "boot_param"), em, boot, np.random.default_rng(0)),
        "run_real_data": lambda: fc.run_real_data(path, ["x1", "x2"], 2, alpha, em, boot),
    }[entry]
    with pytest.raises(ValueError, match=message):
        run()


@pytest.mark.bits
@pytest.mark.parametrize("mode, procedure",
                         [("parametric", "boot_param"), ("nonparametric", "boot_nonparam")])
def test_entry_points_agree_bit_for_bit(tmp_path, mode, procedure):
    # the three API entry points to a calibrated selection run one driver:
    # the same data, configs and seed give the same selection
    truth, x, path = entry_point_inputs(tmp_path)
    em = fc.EmConfig(structure="diagonal", n_starts=3)
    boot = fc.BootstrapConfig(mode=mode, b=6, refit=FullRefit(replace(em, n_starts=2)))
    ours = fc.bootstrap_procedure(x, 2, 0.1, em, boot, np.random.default_rng(8))
    others = [
        fc.run_replication(x, truth, 0.1, (procedure,), em, boot,
                           np.random.default_rng(8))[procedure],
        fc.run_real_data(path, ["x1", "x2"], 2, 0.1, em, boot, procedure=procedure,
                         seed=8)[0],
    ]
    assert 0 < ours.selection.k_star < len(x)
    for sc in others:
        np.testing.assert_array_equal(sc.labels, ours.labels)
        np.testing.assert_array_equal(sc.selection.selected, ours.selection.selected)
        assert sc.selection.threshold == ours.selection.threshold


class TestEmitOutputs:
    def test_empty_result_header_only(self, tmp_path):
        cfg = tiny_scenario()
        res = SweepResult(config=cfg, cells=[], details=[], failures=[])
        files = fc.emit_outputs(res, tmp_path)
        results = (tmp_path / "results.csv").read_text().splitlines()
        assert results == ["scenario,procedure,sweep_value,metric,mean,se"]
        assert (tmp_path / "manifest.json").exists()
        assert not any(f.suffix == ".svg" for f in files)

    def test_full_emission(self, tmp_path):
        cfg = tiny_scenario(procedures=("oracle", "fixed"))
        res = fc.run_scenario(cfg)
        fc.emit_outputs(res, tmp_path)
        svg = (tmp_path / "known-params_sweep.svg").read_text()
        assert "ref-alpha" in svg and "<svg" in svg
        details = (tmp_path / "details.csv").read_text().splitlines()
        assert details[0] == "scenario,sweep_value,rep,procedure,fcr,selection_frequency,n_selected"
        assert len(details) == 1 + 2 * cfg.reps
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == cfg.seed

    def test_reemission_byte_identical(self, tmp_path):
        cfg = tiny_scenario(procedures=("oracle",))
        res = fc.run_scenario(cfg)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        fc.emit_outputs(res, out1)
        fc.emit_outputs(res, out2)
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "details.csv").read_bytes() == (out2 / "details.csv").read_bytes()

    def test_alpha_sweep_chart_uses_diagonal_reference(self, tmp_path):
        cfg = tiny_scenario(sweep_kind="alpha", sweep_values=(0.05, 0.2),
                            procedures=("oracle",))
        cfg.generator.epsilon = 2.0
        res = fc.run_scenario(cfg)
        fc.emit_outputs(res, tmp_path)
        svg = (tmp_path / "known-params_sweep.svg").read_text()
        assert "ref-alpha" in svg


class TestRealData:
    @pytest.fixture()
    def labelled_csv(self, tmp_path):
        truth = fc.MixtureParams(
            [0.45, 0.55],
            (
                fc.ComponentParams("student_t", np.array([0.0, 0.0]), np.eye(2), dof=4),
                fc.ComponentParams("student_t", np.array([6.0, 6.0]), np.eye(2), dof=4),
            ),
        )
        z, x = fc.sample_mixture(truth, 300, np.random.default_rng(0))
        path = tmp_path / "data.csv"
        names = {0: "benign", 1: "malignant"}
        with open(path, "w") as fh:
            fh.write("radius,texture,diagnosis\n")
            for row, label in zip(x, z):
                fh.write(f"{float(row[0])!r},{float(row[1])!r},{names[int(label)]}\n")
        return path, z

    def test_workflow_with_ground_truth(self, labelled_csv, tmp_path):
        path, _ = labelled_csv
        out_csv = tmp_path / "labels.csv"
        boot = fc.BootstrapConfig(b=20, refit=WarmStart(5))
        sc, report = fc.run_real_data(
            path,
            ["radius", "texture"],
            q=2,
            alpha=0.05,
            boot_cfg=boot,
            ground_truth_column="diagnosis",
            out_csv=out_csv,
        )
        assert report is not None
        assert report.sample_fcr <= 0.05 + 0.05  # separated data: easy control
        assert sc.selection.k_star > 200
        assert out_csv.exists()

    def test_ground_truth_optional(self, labelled_csv):
        path, _ = labelled_csv
        boot = fc.BootstrapConfig(b=10, refit=WarmStart(0))
        sc, report = fc.run_real_data(
            path, ["radius", "texture"], q=2, alpha=0.1, boot_cfg=boot
        )
        assert report is None
        assert sc.labels.shape == (300,)

    def test_single_cluster_selects_all(self, labelled_csv):
        path, _ = labelled_csv
        boot = fc.BootstrapConfig(b=10, refit=WarmStart(0))
        sc, _ = fc.run_real_data(path, ["radius"], q=1, alpha=0.1, boot_cfg=boot)
        assert sc.selection.k_star == 300

    def test_missing_column(self, labelled_csv):
        path, _ = labelled_csv
        with pytest.raises(ValueError, match="missing columns"):
            fc.run_real_data(path, ["radius", "area"], q=2, alpha=0.1)

    def test_non_numeric_column(self, labelled_csv):
        path, _ = labelled_csv
        with pytest.raises(ValueError, match="non-numeric"):
            fc.run_real_data(path, ["radius", "diagnosis"], q=2, alpha=0.1)

    def test_short_row_reports_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,label\n1.0,2.0,x\n3.0\n5.0,6.0,y\n")
        with pytest.raises(ValueError, match="line 3"):
            fc.run_real_data(path, ["a", "b"], q=1, alpha=0.1)
        path.write_text("a,b,label\n1.0,2.0,x\n3.0,4.0\n5.0,6.0,y\n")
        with pytest.raises(ValueError, match="line 3"):
            fc.run_real_data(path, ["a", "b"], q=1, alpha=0.1, ground_truth_column="label")

    def test_fewer_rows_than_clusters(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a\n1.0\n")
        with pytest.raises(ValueError, match="fewer rows"):
            fc.run_real_data(path, ["a"], q=2, alpha=0.1)

    @pytest.mark.parametrize("procedure", ["plugin", "fixed", "boot_param", "boot_nonparam"])
    def test_selection_is_the_replication_selection(self, labelled_csv, procedure):
        path, _ = labelled_csv
        em = fc.EmConfig(structure="diagonal", n_starts=2)
        boot = fc.BootstrapConfig(b=8, refit=WarmStart(3))
        sc, _ = fc.run_real_data(path, ["radius", "texture"], q=2, alpha=0.1, em_cfg=em,
                                 boot_cfg=boot, procedure=procedure, seed=5)
        x = fc.load_data_csv(path, ["radius", "texture"])
        ref = fc.run_replication(x, fc.gaussian_separation_truth(2, 2, 1.0), 0.1,
                                 (procedure,), em, boot, np.random.default_rng(5))[procedure]
        np.testing.assert_array_equal(sc.labels, ref.labels)
        np.testing.assert_array_equal(sc.selection.selected, ref.selection.selected)
        assert sc.selection.threshold == ref.selection.threshold

    def test_student_family_used_by_default(self, labelled_csv):
        path, _ = labelled_csv
        boot = fc.BootstrapConfig(b=5, refit=WarmStart(0))
        sc, _ = fc.run_real_data(
            path, ["radius", "texture"], q=2, alpha=0.1,
            boot_cfg=boot, procedure="plugin",
        )
        assert sc.labels.shape == (300,)


def block_scenario(kind):
    """A tiny scenario whose replications stack, of one of the kinds whose
    outputs must not depend on the replication blocks."""
    em = {
        "diagonal": fc.EmConfig(structure="diagonal", n_starts=2, max_iter=30),
        "student-full": fc.EmConfig(family="student", structure="full", n_starts=2,
                                    max_iter=30),
        "known": fc.EmConfig(structure="known", n_starts=2, max_iter=30),
    }.get(kind, fc.EmConfig(structure="diagonal", n_starts=2, max_iter=30))
    refit = WarmStart(3) if kind == "student-full" else FullRefit()
    sweep = ("n", (1.0, 30.0)) if kind == "n-below-q" else ("epsilon", (1.5, 3.0))
    procedures = fc.harness.PROCEDURES
    if kind == "far-row-fit":  # without the oracle, the fit meets the far row
        procedures = tuple(p for p in procedures if p != "oracle")
    return fc.ScenarioConfig(
        name=kind, generator=fc.TruthSpec(q=2, d=2, epsilon=2.0), n=40, reps=4,
        procedures=procedures, sweep_kind=sweep[0], sweep_values=sweep[1], alpha=0.1,
        em=em, boot=fc.BootstrapConfig(b=4, refit=refit), seed=7,
    )


def inject_far_row(monkeypatch):
    """Replication 1 of sweep point 0 gets a row at 1e160, too far from every
    component for a density or for k-means++."""
    sample, calls = fc.mixtures.sample_mixture, []

    def far(truth, n, rng):
        z, x = sample(truth, n, rng)
        calls.append(None)
        if len(calls) == 2:
            x[0] = [1e160, 0.0]
        return z, x

    monkeypatch.setattr(fc.harness, "sample_mixture", far)


def stacked_datasets(monkeypatch):
    """The number of datasets in each replication stack the harness fits."""
    sizes, fit_datasets = [], fc.harness._fit_datasets

    def spy(xs, q, cfg, known, streams):
        sizes.append(len(xs))
        return fit_datasets(xs, q, cfg, known, streams)

    monkeypatch.setattr(fc.harness, "_fit_datasets", spy)
    return sizes


def scenario_outputs(cfg, out_dir):
    """The scenario's failures and the bytes of its results, details and manifest."""
    result = fc.run_scenario(cfg)
    fc.emit_outputs(result, out_dir)
    files = ("results.csv", "details.csv", "manifest.json")
    return result.failures, [(out_dir / name).read_bytes() for name in files]


BLOCK_KINDS = ["diagonal", "student-full", "known", "n-below-q", "far-row", "far-row-fit"]


@pytest.mark.bits
class TestReplicationBlocks:
    """A sweep point's replications are fitted as one EM stack; each gets
    the draws, the fit and the error it gets alone."""

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_outputs_do_not_depend_on_the_blocks(self, monkeypatch, tmp_path, kind):
        cfg = block_scenario(kind)
        if kind.startswith("far-row"):
            inject_far_row(monkeypatch)
        sizes = stacked_datasets(monkeypatch)
        stacked = scenario_outputs(cfg, tmp_path / "stacked")
        assert max(sizes) == cfg.reps
        if kind.startswith("far-row") or kind == "n-below-q":
            assert stacked[0]
        monkeypatch.setattr(fc.bootstrap, "_BLOCK_ELEMENTS", 1)
        if kind.startswith("far-row"):
            inject_far_row(monkeypatch)
        sizes.clear()
        alone = scenario_outputs(cfg, tmp_path / "alone")
        assert set(sizes) <= {1}
        assert stacked == alone

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_generators_end_as_after_fit_mixture(self, monkeypatch, kind):
        # at its calibrations, each replication's generator stands where it
        # stands after sampling and fit_mixture alone, with the same fit
        cfg = block_scenario(kind)
        if kind.startswith("far-row"):
            inject_far_row(monkeypatch)
        seen, calibrated_run = [], fc.harness._calibrated_run

        def spy(fit, settings, rng):
            seen.append((rng.bit_generator.state,
                         rng.bit_generator.seed_seq.n_children_spawned, fit))
            return calibrated_run(fit, settings, rng)

        monkeypatch.setattr(fc.harness, "_calibrated_run", spy)
        result = fc.run_scenario(cfg)
        failed = {f.split(":")[0] for f in result.failures}
        expected = []
        for j, value in enumerate(cfg.sweep_values):
            eps = value if cfg.sweep_kind == "epsilon" else None
            truth = cfg.generator.truth_for(eps)
            n = int(value) if cfg.sweep_kind == "n" else cfg.n
            em = fc.harness._em_with_known(cfg.em, truth)
            for r in range(cfg.reps):
                if f"sweep value {value}, rep {r}" in failed:
                    continue
                rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, j, r]))
                _, x = fc.sample_mixture(truth, n, rng)
                fit = fc.fit_mixture(x, truth.q, em, rng)
                expected.append((rng.bit_generator.state,
                                 rng.bit_generator.seed_seq.n_children_spawned, fit))
        assert len(seen) == len(expected) > 0
        for (state, spawned, fit), (state_a, spawned_a, fit_a) in zip(seen, expected):
            assert (state, spawned) == (state_a, spawned_a) == (state, cfg.em.n_starts)
            assert np.array_equal(fit.loglik_trace, fit_a.loglik_trace)
            assert np.array_equal(fit.params.weights, fit_a.params.weights)
            for a, b in zip(fit.params.components, fit_a.params.components):
                assert np.array_equal(a.mean, b.mean) and np.array_equal(a.scatter, b.scatter)

    def test_raised_stack_is_redone_one_replication_at_a_time(self, monkeypatch, tmp_path):
        # a stack of several replications that raises after its runs drew is
        # redone one replication at a time on the start streams it spawned;
        # a replication stack is the one whose first stream is the first its
        # replication spawned
        cfg = block_scenario("diagonal")
        alone = scenario_outputs(cfg, tmp_path / "alone")
        fit_runs, raised = fc.em._fit_runs, []

        def raising(x, q, cfg, known, streams):
            runs = fit_runs(x, q, cfg, known, streams)
            if len(streams) > cfg.n_starts and streams[0].bit_generator.seed_seq.spawn_key == (0,):
                raised.append(len(streams) // cfg.n_starts)
                raise ValueError("stack failed after its runs")
            return runs

        monkeypatch.setattr(fc.em, "_fit_runs", raising)
        assert scenario_outputs(cfg, tmp_path / "redone") == alone
        assert raised == [cfg.reps] * len(cfg.sweep_values)
