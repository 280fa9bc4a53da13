import json
import math

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.bootstrap import WarmStart
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
        boot = fc.BootstrapConfig(b=20, refit=WarmStart(5), seed=3)
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
        boot = fc.BootstrapConfig(b=10, refit=WarmStart(0), seed=4)
        sc, report = fc.run_real_data(
            path, ["radius", "texture"], q=2, alpha=0.1, boot_cfg=boot
        )
        assert report is None
        assert sc.labels.shape == (300,)

    def test_single_cluster_selects_all(self, labelled_csv):
        path, _ = labelled_csv
        boot = fc.BootstrapConfig(b=10, refit=WarmStart(0), seed=5)
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

    def test_student_family_used_by_default(self, labelled_csv):
        path, _ = labelled_csv
        boot = fc.BootstrapConfig(b=5, refit=WarmStart(0), seed=6)
        sc, _ = fc.run_real_data(
            path, ["radius", "texture"], q=2, alpha=0.1,
            boot_cfg=boot, procedure="plugin",
        )
        assert sc.labels.shape == (300,)
