from dataclasses import replace

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.em import FAMILIES, EmConfig, kmeanspp_init
from fcrcluster.mixtures import GAUSSIAN, STRUCTURES


def blobs(rng, centers, n_per, scale=1.0):
    parts = [c + scale * rng.normal(size=(n_per, len(c))) for c in map(np.asarray, centers)]
    return np.vstack(parts)


def small_input(structure, family):
    """A seeded two-cluster input and config for one structure and family."""
    rng = np.random.default_rng(2024)
    x = np.vstack([rng.standard_t(6, size=(40, 2)) + c for c in ((0.0, 0.0), (3.0, 1.0))])
    kw = kc = None
    if structure == "known":
        kw, kc = np.array([0.4, 0.6]), (np.eye(2), np.array([[1.5, 0.3], [0.3, 0.8]]))
    cfg = EmConfig(family=family, structure=structure, n_starts=2, max_iter=50,
                   known_weights=kw, known_covariances=kc, seed=17)
    return x, cfg


# (loglik, weights, n_reinits, trace length) of fit_mixture(x, 2, cfg) on
# small_input, recorded from the EM that kept its iterate as MixtureParams.
# No eigenvalue floor fires on these inputs, so a refactor of the numerics
# must reproduce them.
GOLDEN = {
    ("known", "gaussian"): (-327.46433028090996, [0.4, 0.6], 0, 15),
    ("known", "student"): (-308.073453682438, [0.4, 0.6], 0, 21),
    ("spherical", "gaussian"): (-307.8154655091299, [0.462538501624321, 0.5374614983756794], 0, 46),
    ("spherical", "student"): (-306.87013486195247, [0.5175170661671777, 0.48248293383282215], 0, 46),
    ("diagonal", "gaussian"): (-306.4232159211291, [0.8220544754570094, 0.17794552454299056], 0, 51),
    ("diagonal", "student"): (-305.6486682566315, [0.9347217486248786, 0.06527825137512097], 0, 37),
    ("full", "gaussian"): (-298.5512210446028, [0.9546289082070321, 0.04537109179296805], 0, 29),
    ("full", "student"): (-302.38453066334375, [0.9551431280783447, 0.04485687192165496], 0, 28),
}


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", FAMILIES)
def test_seeded_fit_matches_recorded_outputs(structure, family):
    x, cfg = small_input(structure, family)
    fit = fc.fit_mixture(x, 2, cfg)
    loglik, weights, n_reinits, n_trace = GOLDEN[(structure, family)]
    assert fit.loglik == pytest.approx(loglik, rel=1e-10)
    np.testing.assert_allclose(fit.params.weights, weights, rtol=1e-10)
    assert fit.n_reinits == n_reinits
    assert len(fit.loglik_trace) == n_trace


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_loglik_equals_mixture_loglik_exactly(structure, family):
    # the returned parameters are the ones EM last evaluated, through the same
    # kernel; the duplicate-row input makes the eigenvalue floor fire
    x, cfg = small_input(structure, family)
    for data in (x, np.vstack([np.repeat(x[:3], 15, axis=0), x[:12]])):
        fit = fc.fit_mixture(data, 2, cfg)
        assert fit.loglik == fc.mixture_loglik(fit.params, data)


def start_rngs(seed, n_starts):
    """Generators whose one spawned stream is stream ``s`` of ``default_rng(seed).spawn``."""
    root = np.random.SeedSequence(seed)
    return [
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(root.entropy, n_children_spawned=s)))
        for s in range(n_starts)
    ]


def stacked_inputs():
    x, _ = small_input("full", GAUSSIAN)
    return {
        "blobs": x,
        # the eigenvalue floor fires in the full fits
        "duplicates": np.vstack([np.repeat(x[:3], 15, axis=0), x[:12]]),
        # one far row cannot hold a component: its mass collapses, it is re-seeded
        "outlier": np.vstack([x[:60], [[1e4, -1e4]]]),
    }


@pytest.mark.parametrize("name", ["blobs", "duplicates", "outlier"])
@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_starts_equal_one_start_runs(family, structure, name):
    # the starts of a fit iterate as one stack; each must compute, bit for
    # bit, what it computes as a one-start fit on the same spawned stream
    x = stacked_inputs()[name]
    _, cfg = small_input(structure, family)
    cfg = replace(cfg, n_starts=4, max_iter=40)
    fit = fc.fit_mixture(x, 2, cfg, np.random.default_rng(5))
    alone = [fc.fit_mixture(x, 2, replace(cfg, n_starts=1), g) for g in start_rngs(5, 4)]
    best = alone[0]
    for other in alone[1:]:
        if other.loglik > best.loglik:
            best = other
    assert np.array_equal(fit.loglik_trace, best.loglik_trace)
    assert np.array_equal(fit.params.weights, best.params.weights)
    for a, b in zip(fit.params.components, best.params.components):
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.scatter, b.scatter)
    assert (fit.converged, fit.n_reinits) == (best.converged, best.n_reinits)
    if name == "outlier" and structure != "known":
        assert sum(f.n_reinits for f in alone) > 0


@pytest.mark.parametrize("qn", [1, 2, 3])
def test_sum_rows_matches_plain_reduction(qn):
    # the M-step sums responsibilities over rows through a transposed copy
    # for speed; it must give numpy's own reduction, bit for bit
    a = np.random.default_rng(qn).random((4, 300, qn)) * 1e3
    assert np.array_equal(fc.em._sum_rows(a), a.sum(axis=1))


class TestKmeansppInit:
    def test_single_cluster_uses_sample_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        init = kmeanspp_init(x, 1, rng)
        np.testing.assert_allclose(init.components[0].mean, x.mean(axis=0))
        np.testing.assert_array_equal(init.weights, [1.0])

    def test_q_equals_n_distinct_rows(self):
        x = np.arange(10.0).reshape(5, 2)
        init = kmeanspp_init(x, 5, np.random.default_rng(1))
        centers = sorted(tuple(c.mean) for c in init.components)
        assert centers == sorted(map(tuple, x))

    def test_separated_blobs_get_one_center_each(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = blobs(rng, [(-10.0, -10.0), (10.0, 10.0)], 100)
            init = kmeanspp_init(x, 2, rng)
            signs = sorted(np.sign(c.mean[0]) for c in init.components)
            hits += signs == [-1.0, 1.0]
        assert hits >= 99

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError, match="rows"):
            kmeanspp_init(np.zeros((1, 2)), 2, np.random.default_rng(0))

    def test_rejects_q_below_one(self):
        x = np.arange(10.0).reshape(5, 2)
        for q in (0, -1):
            with pytest.raises(ValueError, match="q must be >= 1"):
                kmeanspp_init(x, q, np.random.default_rng(0))
            with pytest.raises(ValueError, match="q must be >= 1"):
                fc.fit_mixture(x, q, EmConfig(n_starts=1))

    def test_fewer_distinct_rows_than_q(self):
        x = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        with pytest.raises(ValueError, match="need at least q=3 distinct rows"):
            kmeanspp_init(x, 3, np.random.default_rng(0))
        known = EmConfig(structure="known", known_covariances=tuple(
            np.eye(2) * (j + 1) for j in range(3)))
        for cfg in (EmConfig(), EmConfig(family="student"), known):
            with pytest.raises(ValueError, match="need at least q=3 distinct rows"):
                fc.fit_mixture(x, 3, cfg)

    def test_structure_projection(self):
        rng = np.random.default_rng(3)
        x = blobs(rng, [(0.0, 0.0)], 200) @ np.array([[1.0, 0.4], [0.0, 1.0]])
        init = kmeanspp_init(x, 2, rng, structure="diagonal")
        for comp in init.components:
            off = comp.scatter[~np.eye(2, dtype=bool)]
            assert np.all(off == 0.0)
        init_sph = kmeanspp_init(x, 2, rng, structure="spherical")
        s = init_sph.components[0].scatter
        assert s[0, 0] == pytest.approx(s[1, 1])


class TestGaussianEm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(120, 2)) @ np.array([[1.5, 0.2], [0.0, 0.7]])
        fit = fc.em_fit(x, 1, EmConfig(n_starts=1, max_iter=5), np.random.default_rng(0))
        np.testing.assert_allclose(fit.params.components[0].mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            fit.params.components[0].scatter,
            np.cov(x, rowvar=False, ddof=0),
            rtol=1e-10,
        )

    def test_two_blob_recovery(self):
        rng = np.random.default_rng(5)
        x = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 200)
        fit = fc.em_fit(x, 2, EmConfig(n_starts=5), np.random.default_rng(1))
        means = sorted(c.mean[0] for c in fit.params.components)
        assert abs(means[0] - (-5.0)) < 0.3
        assert abs(means[1] - 5.0) < 0.3

    def test_trace_monotone(self):
        rng = np.random.default_rng(6)
        x = blobs(rng, [(0.0, 0.0), (2.0, 1.0)], 150)
        fit = fc.em_fit(x, 2, EmConfig(n_starts=3), np.random.default_rng(2))
        assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

    def test_monotone_all_structures_and_families(self):
        rng = np.random.default_rng(7)
        for structure in ("spherical", "diagonal", "full"):
            for family, fitter in (("gaussian", fc.em_fit), ("student", fc.student_em_fit)):
                x = blobs(rng, [(0.0, 0.0), (1.5, 1.5)], 60)
                cfg = EmConfig(structure=structure, n_starts=2, max_iter=40)
                fit = fitter(x, 2, cfg, np.random.default_rng(8))
                diffs = np.diff(fit.loglik_trace)
                slack = 1e-8 * np.abs(fit.loglik_trace[:-1])
                assert np.all(diffs >= -np.maximum(slack, 1e-8)), (structure, family)

    def test_known_regime_bit_exact(self):
        rng = np.random.default_rng(9)
        x = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], 100)
        kw = np.array([0.4, 0.6])
        kc = (np.eye(2) * 1.3, np.eye(2) * 0.8)
        cfg = EmConfig(structure="known", known_weights=kw, known_covariances=kc, n_starts=2)
        fit = fc.em_fit(x, 2, cfg, np.random.default_rng(3))
        assert np.array_equal(fit.params.weights, kw)
        for comp, known in zip(fit.params.components, kc):
            assert np.array_equal(comp.scatter, known)

    def test_known_requires_covariances(self):
        with pytest.raises(ValueError, match="known_covariances"):
            EmConfig(structure="known").validate()

    def test_starts_build_no_mixture_params(self, monkeypatch):
        # each start runs from k-means++ arrays; parameters are built and
        # validated once, when the fit returns
        def no_init(*args, **kwargs):
            raise AssertionError("kmeanspp_init called by a start")

        built = []
        post_init = fc.MixtureParams.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(fc.em, "kmeanspp_init", no_init)
        monkeypatch.setattr(fc.MixtureParams, "__post_init__", counting)
        x = blobs(np.random.default_rng(2), [(0.0, 0.0), (4.0, 0.0)], 30)
        for family in FAMILIES:
            built.clear()
            fc.fit_mixture(x, 2, EmConfig(family=family, n_starts=4, max_iter=5))
            assert len(built) == 1

    def test_known_parts_checked_against_q(self):
        x = blobs(np.random.default_rng(17), [(0.0, 0.0), (4.0, 0.0)], 30)
        fit = fc.em_fit(x, 2, EmConfig(n_starts=1), np.random.default_rng(0))
        for cfg in (
            EmConfig(known_weights=np.array([1.0])),
            EmConfig(known_weights=np.array([0.7, 0.7])),
            EmConfig(structure="known", known_covariances=(np.eye(2),)),
        ):
            with pytest.raises(ValueError):
                fc.fit_mixture(x, 2, cfg, np.random.default_rng(1))
            with pytest.raises(ValueError):
                fc.em_steps(x, fit.params, cfg, 2, np.random.default_rng(1))

    def test_constraint_shapes(self):
        rng = np.random.default_rng(10)
        x = blobs(rng, [(0.0, 0.0), (4.0, 0.0)], 120) @ np.array([[1.0, 0.3], [0.0, 1.0]])
        diag = fc.em_fit(x, 2, EmConfig(structure="diagonal", n_starts=2),
                         np.random.default_rng(4))
        for comp in diag.params.components:
            assert comp.scatter[0, 1] == 0.0 and comp.scatter[1, 0] == 0.0
        sph = fc.em_fit(x, 2, EmConfig(structure="spherical", n_starts=2),
                        np.random.default_rng(5))
        for comp in sph.params.components:
            assert comp.scatter[0, 0] == comp.scatter[1, 1]
            assert comp.scatter[0, 1] == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(11)
        x = blobs(rng, [(0.0, 0.0), (3.0, 3.0)], 100)
        cfg = EmConfig(n_starts=4, seed=99)
        fit1 = fc.em_fit(x, 2, cfg)
        fit2 = fc.em_fit(x, 2, cfg)
        np.testing.assert_array_equal(fit1.loglik_trace, fit2.loglik_trace)
        np.testing.assert_array_equal(fit1.params.weights, fit2.params.weights)
        for a, b in zip(fit1.params.components, fit2.params.components):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.scatter, b.scatter)

    def test_coordinate_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        x = blobs(rng, [(0.0, 1.0, -1.0), (4.0, -2.0, 2.0)], 80)
        cfg = EmConfig(n_starts=3, seed=5)
        fit = fc.em_fit(x, 2, cfg)
        perm = [2, 0, 1]
        fit_p = fc.em_fit(x[:, perm], 2, cfg)
        np.testing.assert_allclose(fit_p.loglik_trace[-1], fit.loglik_trace[-1], rtol=1e-9)
        for a, b in zip(fit.params.components, fit_p.params.components):
            np.testing.assert_allclose(b.mean, a.mean[perm], rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(
                b.scatter, a.scatter[np.ix_(perm, perm)], rtol=1e-8, atol=1e-10
            )

    def test_degenerate_component_reinitialized(self):
        # one far outlier cannot hold a component: mass collapses, reinit kicks in
        rng = np.random.default_rng(13)
        x = np.vstack([rng.normal(size=(60, 1)), [[1e4]]])
        fit = fc.em_fit(x, 2, EmConfig(n_starts=1, max_iter=30), np.random.default_rng(6))
        assert np.all(np.isfinite(fit.loglik_trace))


def repeated_rows(seed):
    """12 rows: 10 drawn from 3 points, plus 2 noise rows."""
    rng = np.random.default_rng(seed)
    return np.vstack([3.0 * rng.normal(size=(3, 2))[rng.integers(0, 3, 10)],
                      rng.normal(size=(2, 2))])


class TestDegenerateEm:
    """Repeated rows drive components together; EM must end on distinct ones."""

    def test_identical_components_reseeded(self):
        # the first seed of 0-199 whose fit ended on two identical components
        # (components re-seeded at the same row with the same scatter)
        cfg = EmConfig(structure="spherical", n_starts=2, max_iter=30)
        fit = fc.fit_mixture(repeated_rows(93), 3, cfg, np.random.default_rng(93))
        assert fit.n_reinits > 0
        means = np.stack([c.mean for c in fit.params.components])
        assert len(np.unique(means, axis=0)) == 3

    def test_loglik_drop_is_not_convergence(self):
        # a reinit drops the trace from 3606.6 to 2368.0; the drop is below
        # rel_tol as a gain, but it is not a stop
        cfg = EmConfig(structure="spherical", n_starts=1, max_iter=30)
        fit = fc.fit_mixture(repeated_rows(18), 3, cfg, np.random.default_rng(18))
        trace = fit.loglik_trace
        assert np.diff(trace).min() < -1000.0
        assert fit.converged
        assert abs(trace[-1] - trace[-2]) <= cfg.rel_tol * abs(trace[-2])

    def test_warm_start_with_fewer_distinct_rows_than_q(self):
        # two distinct rows cannot hold three distinct components
        x = np.array([[0.0, 0.0]] * 4 + [[3.0, 1.0]] * 4)
        comps = tuple(
            fc.ComponentParams(fc.mixtures.STUDENT_T, m, v * np.eye(2))
            for m, v in (((0.0, 0.0), 1.0), ((0.1, 0.0), 1.5), ((3.0, 1.0), 1.0))
        )
        params = fc.MixtureParams(np.full(3, 1 / 3), comps, "full")
        cfg = EmConfig(family="student", structure="full")
        with pytest.raises(ValueError, match="need at least q=3 distinct rows"):
            fc.em_steps(x, params, cfg, 10, np.random.default_rng(0))


class TestStudentEm:
    def test_symmetric_two_point_mean_zero(self):
        x = np.array([[-3.0], [3.0]])
        fit = fc.student_em_fit(x, 1, EmConfig(n_starts=1, max_iter=60),
                                np.random.default_rng(0))
        assert abs(fit.params.components[0].mean[0]) < 1e-10

    def test_outlier_robustness(self):
        rng = np.random.default_rng(14)
        clean = rng.normal(size=(99, 1))
        x = np.vstack([clean, [[100.0]]])
        cfg = EmConfig(n_starts=1, max_iter=80)
        gauss = fc.em_fit(x, 1, cfg, np.random.default_rng(1))
        student = fc.student_em_fit(x, 1, cfg, np.random.default_rng(1))
        target = clean.mean()
        err_gauss = abs(gauss.params.components[0].mean[0] - target)
        err_student = abs(student.params.components[0].mean[0] - target)
        assert err_student < err_gauss

    def test_dof_checked_at_the_boundary(self):
        for dof in (1.0, 2.0, float("nan")):
            with pytest.raises(ValueError, match="dof must exceed 2"):
                EmConfig(family="student", dof=dof).validate()
        EmConfig(family="gaussian", dof=1.0).validate()  # dof unused

    def test_dof_never_updated(self):
        rng = np.random.default_rng(15)
        x = blobs(rng, [(0.0,), (5.0,)], 80)
        fit = fc.student_em_fit(x, 2, EmConfig(n_starts=2, dof=4.0, max_iter=30),
                                np.random.default_rng(2))
        assert all(c.dof == 4.0 for c in fit.params.components)


class TestFitExport:
    def test_save_fit_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        x = blobs(rng, [(0.0, 0.0), (4.0, 4.0)], 60)
        fit = fc.em_fit(x, 2, EmConfig(n_starts=2), np.random.default_rng(0))
        params_path = tmp_path / "params.json"
        trace_path = tmp_path / "trace.csv"
        from fcrcluster.em import save_fit

        save_fit(fit, params_path, trace_path)
        loaded = fc.load_mixture_json(params_path)
        np.testing.assert_array_equal(loaded.weights, fit.params.weights)
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,loglik"
        assert len(lines) == len(fit.loglik_trace) + 1
