import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import fcrcluster as fc
from fcrcluster.mixtures import (
    _factorize,
    _log_weighted,
    _map_rows,
    _normalize,
    _regularize,
    _regularize_diagonal,
    _write_csv,
    log_density_rows,
    regularize_scatter,
)


def two_gaussians_1d(mu2=2.0):
    return fc.MixtureParams(
        weights=[0.5, 0.5],
        components=(
            fc.ComponentParams("gaussian", np.array([0.0]), np.array([[1.0]])),
            fc.ComponentParams("gaussian", np.array([mu2]), np.array([[1.0]])),
        ),
    )


def random_mixture(rng, q=3, d=2, kind="gaussian"):
    comps = []
    for _ in range(q):
        a = rng.normal(size=(d, d))
        scatter = a @ a.T + 0.5 * np.eye(d)
        comps.append(
            fc.ComponentParams(
                kind, rng.normal(size=d, scale=3), scatter,
                dof=4.0 if kind == "student_t" else None,
            )
        )
    w = rng.uniform(0.2, 1.0, size=q)
    return fc.MixtureParams(w / w.sum(), tuple(comps))


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        comp = fc.ComponentParams("gaussian", np.zeros(1), np.eye(1))
        expected = -0.5 * math.log(2 * math.pi)
        assert log_density_rows(comp, [[0.0]])[0] == pytest.approx(expected)

    def test_bivariate_standard_normal_at_origin(self):
        comp = fc.ComponentParams("gaussian", np.zeros(2), np.eye(2))
        expected = -math.log(2 * math.pi)
        assert log_density_rows(comp, [[0.0, 0.0]])[0] == pytest.approx(expected)

    def test_student_dof4_at_origin(self):
        comp = fc.ComponentParams("student_t", np.zeros(1), np.eye(1), dof=4.0)
        assert log_density_rows(comp, [[0.0]])[0] == pytest.approx(math.log(3.0 / 8.0))

    def test_gaussian_matches_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        scatter = a @ a.T + np.eye(3)
        mean = rng.normal(size=3)
        comp = fc.ComponentParams("gaussian", mean, scatter)
        x = rng.normal(size=(40, 3), scale=4)
        expected = scipy.stats.multivariate_normal(mean, scatter).logpdf(x)
        np.testing.assert_allclose(log_density_rows(comp, x), expected, rtol=1e-10)

    def test_student_matches_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        scatter = a @ a.T + np.eye(2)
        mean = rng.normal(size=2)
        comp = fc.ComponentParams("student_t", mean, scatter, dof=4.0)
        x = rng.normal(size=(40, 2), scale=4)
        expected = scipy.stats.multivariate_t(mean, scatter, df=4).logpdf(x)
        np.testing.assert_allclose(log_density_rows(comp, x), expected, rtol=1e-10)

    def test_dimension_mismatch(self):
        # one column of two-column data used to give finite, wrong densities
        comp = fc.ComponentParams("gaussian", np.zeros(2), np.eye(2))
        x = np.random.default_rng(0).normal(size=(3, 2))
        with pytest.raises(ValueError, match="data has dimension 1, expected 2"):
            log_density_rows(comp, x[:, :1])

    def test_non_positive_definite_scatter_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            fc.ComponentParams("gaussian", np.zeros(1), np.array([[-1.0]]))
        # a subnormal scatter: its eigenvalue floor underflows and lifts nothing
        with pytest.raises(ValueError, match="positive definite"):
            fc.ComponentParams("gaussian", np.zeros(2), 1e-317 * np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            fc.ComponentParams("gaussian", np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_near_singular_scatter_floored(self):
        scatter = np.array([[1.0, 1.0], [1.0, 1.0]])
        comp = fc.ComponentParams("gaussian", np.zeros(2), scatter)
        evals = np.linalg.eigvalsh(comp.scatter)
        assert evals[0] >= 0.5e-8
        assert np.isfinite(log_density_rows(comp, [[5.0, -5.0]])).all()

    def test_dof_must_exceed_two(self):
        with pytest.raises(ValueError, match="dof"):
            fc.ComponentParams("student_t", np.zeros(1), np.eye(1), dof=2.0)


class TestMixtureParams:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            fc.MixtureParams(
                [0.6, 0.5],
                (
                    fc.ComponentParams("gaussian", np.zeros(1), np.eye(1)),
                    fc.ComponentParams("gaussian", np.ones(1), np.eye(1)),
                ),
            )

    def test_duplicate_components_rejected(self):
        comp = fc.ComponentParams("gaussian", np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="identical"):
            fc.MixtureParams([0.5, 0.5], (comp, comp))

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        params = random_mixture(rng, q=2, d=3, kind="student_t")
        path = tmp_path / "params.json"
        fc.save_mixture_json(params, path)
        loaded = fc.load_mixture_json(path)
        np.testing.assert_array_equal(loaded.weights, params.weights)
        for a, b in zip(loaded.components, params.components):
            assert a.kind == b.kind and a.dof == b.dof
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.scatter, b.scatter)
        obj = json.loads(path.read_text())
        assert obj["q"] == 2 and obj["components"][0]["kind"] == "student_t"

    def test_json_rejects_a_non_whole_q(self):
        # "q": 2.5 used to load two components through int()
        obj = fc.mixture_to_json(two_gaussians_1d())
        assert fc.mixture_from_json({**obj, "q": 2.0}).q == 2
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"q must be a whole number, got {bad}"):
                fc.mixture_from_json({**obj, "q": bad})


class TestSampling:
    def test_empty_sample(self):
        labels, data = fc.sample_mixture(two_gaussians_1d(), 0, np.random.default_rng(0))
        assert labels.shape == (0,) and data.shape == (0, 1)

    def test_degenerate_weights(self):
        params = fc.MixtureParams(
            [1.0 - 1e-13, 1e-13],
            (
                fc.ComponentParams("gaussian", np.zeros(1), np.eye(1)),
                fc.ComponentParams("gaussian", np.ones(1), np.eye(1)),
            ),
        )
        labels, _ = fc.sample_mixture(params, 100, np.random.default_rng(0))
        assert np.all(labels == 0)

    def test_label_frequency(self):
        labels, _ = fc.sample_mixture(two_gaussians_1d(), 100_000, np.random.default_rng(3))
        assert abs((labels == 0).mean() - 0.5) < 0.01

    def test_label_frequencies_chisquare(self):
        rng = np.random.default_rng(4)
        params = random_mixture(rng, q=3, d=2)
        labels, _ = fc.sample_mixture(params, 100_000, rng)
        counts = np.bincount(labels, minlength=3)
        res = scipy.stats.chisquare(counts, 100_000 * params.weights)
        assert res.pvalue > 0.001

    def test_deterministic_given_seed(self):
        params = two_gaussians_1d()
        l1, x1 = fc.sample_mixture(params, 50, np.random.default_rng(9))
        l2, x2 = fc.sample_mixture(params, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(x1, x2)

    def test_component_moments(self):
        rng = np.random.default_rng(5)
        params = two_gaussians_1d(mu2=8.0)
        labels, data = fc.sample_mixture(params, 50_000, rng)
        x0 = data[labels == 0, 0]
        assert abs(x0.mean()) < 0.03 and abs(x0.var() - 1.0) < 0.05

    def test_student_sampling_tail(self):
        comp = fc.ComponentParams("student_t", np.zeros(1), np.eye(1), dof=4.0)
        params = fc.MixtureParams([1.0], (comp,))
        _, data = fc.sample_mixture(params, 100_000, np.random.default_rng(6))
        frac = (np.abs(data[:, 0]) > 3.0).mean()
        expected = 2 * scipy.stats.t(4).sf(3.0)
        assert frac == pytest.approx(expected, abs=0.004)


class TestPosterior:
    def test_symmetric_midpoint(self):
        post = fc.posterior_matrix(two_gaussians_1d(), np.array([[1.0]]))
        np.testing.assert_allclose(post.probs[0], [0.5, 0.5])
        assert post.t_values[0] == pytest.approx(0.5)

    def test_log_ratio_point(self):
        post = fc.posterior_matrix(two_gaussians_1d(), np.array([[0.0]]))
        expected = 1.0 / (1.0 + math.exp(-2.0))
        np.testing.assert_allclose(post.probs[0], [expected, 1 - expected], rtol=1e-12)
        assert post.t_values[0] == pytest.approx(1 - expected)
        assert fc.map_labels(post)[0] == 0

    def test_single_component(self):
        params = fc.MixtureParams(
            [1.0], (fc.ComponentParams("gaussian", np.zeros(2), np.eye(2)),)
        )
        post = fc.posterior_matrix(params, np.random.default_rng(0).normal(size=(20, 2)))
        np.testing.assert_array_equal(post.probs, np.ones((20, 1)))
        np.testing.assert_array_equal(post.t_values, np.zeros(20))

    def test_extreme_inputs_no_overflow(self):
        params = two_gaussians_1d()
        x = np.array([[1e3], [-1e3], [500.0]])
        post = fc.posterior_matrix(params, x)
        assert np.all(np.isfinite(post.probs))
        np.testing.assert_allclose(post.probs.sum(axis=1), 1.0, atol=1e-10)

    def test_row_far_from_every_component_is_named(self):
        # its squared distances overflow under both components: no posterior
        x = np.array([[0.0], [1.0], [1e160]])
        with pytest.raises(ValueError, match="row 2 is too far from every mixture component"):
            fc.posterior_matrix(two_gaussians_1d(), x)

    @pytest.mark.parametrize("off_diagonal", [0.0, 0.5])
    def test_overflow_under_one_component_is_harmless(self, off_diagonal):
        # the distance to the narrow component overflows to inf, with no
        # warning, for diagonal and full factors alike: in its square, and,
        # for the last row, in the first step of the substitution, whose inf
        # times the narrow factor's zero off-diagonal entry is NaN
        wide = np.array([[1e300, off_diagonal * 1e300], [off_diagonal * 1e300, 1e300]])
        params = fc.MixtureParams(
            [0.5, 0.5],
            (fc.ComponentParams("gaussian", np.zeros(2), np.eye(2) * 1e-200),
             fc.ComponentParams("student_t", np.zeros(2), wide, dof=5.0)),
        )
        post = fc.posterior_matrix(params, np.array([[0.0, 0.0], [1e155, 0.0], [1e210, 0.0]]))
        assert np.all(np.isfinite(post.probs))
        np.testing.assert_array_equal(post.probs[1:], [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_zero_rows(self, kind):
        # no rows: an empty (0, Q) posterior and a log-likelihood of zero
        params = fc.MixtureParams(
            [0.3, 0.7], tuple(fc.ComponentParams(kind, np.full(2, m), np.eye(2), dof=5.0)
                              for m in (0.0, 3.0)))
        post, loglik = fc.mixtures.posterior_with_loglik(params, np.empty((0, 2)))
        assert post.probs.shape == (0, 2) and post.probs.dtype == np.float64
        assert post.t_values.shape == (0,) and post.t_values.dtype == np.float64
        assert type(loglik) is float and loglik == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3))
    def test_rows_stochastic_and_t_range(self, seed, q, d):
        rng = np.random.default_rng(seed)
        params = random_mixture(rng, q=q, d=d)
        x = rng.normal(size=(30, d), scale=1000.0)
        post = fc.posterior_matrix(params, x)
        np.testing.assert_allclose(post.probs.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(post.t_values >= 0.0)
        assert np.all(post.t_values <= 1.0 - 1.0 / q)

    def test_map_tie_breaks_low_index(self):
        post = fc.PosteriorMatrix(
            probs=np.array([[0.5, 0.5], [0.1, 0.9]]), t_values=np.array([0.5, 0.1])
        )
        np.testing.assert_array_equal(fc.map_labels(post), [0, 1])

    @pytest.mark.parametrize("qn", [1, 2, 3, 9])
    def test_map_labels_equal_argmax(self, qn):
        # column compares give numpy's argmax, ties to the lowest index, on
        # either memory layout of the probabilities
        probs = np.random.default_rng(qn).integers(0, 4, size=(500, qn)) / 4.0
        for layout in (probs, np.asfortranarray(probs)):
            assert np.array_equal(_map_rows(layout), np.argmax(probs, axis=1))


def permuted(params, perm):
    """``params`` with its components permuted: new component ``j`` is old ``perm[j]``."""
    return fc.MixtureParams(
        weights=params.weights[perm],
        components=tuple(params.components[j] for j in perm),
        structure=params.structure,
    )


class TestRelabel:
    def test_identity(self):
        params = two_gaussians_1d()
        out = permuted(params, [0, 1])
        np.testing.assert_array_equal(out.weights, params.weights)
        x = np.linspace(-3.0, 5.0, 9)[:, None]
        assert np.array_equal(fc.posterior_matrix(out, x).probs,
                              fc.posterior_matrix(params, x).probs)

    def test_swap_is_involution(self):
        rng = np.random.default_rng(7)
        params = random_mixture(rng, q=2, d=2)
        twice = permuted(permuted(params, [1, 0]), [1, 0])
        np.testing.assert_array_equal(twice.weights, params.weights)
        for a, b in zip(twice.components, params.components):
            np.testing.assert_array_equal(a.mean, b.mean)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_posterior_equivariance(self, seed, q):
        rng = np.random.default_rng(seed)
        params = random_mixture(rng, q=q, d=2)
        perm = rng.permutation(q)
        x = rng.normal(size=(25, 2), scale=3)
        post = fc.posterior_matrix(params, x)
        post_perm = fc.posterior_matrix(permuted(params, perm), x)
        np.testing.assert_allclose(
            post_perm.probs, post.probs[:, perm], rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            post_perm.t_values, post.t_values, rtol=1e-12, atol=1e-12
        )
        inverse = np.empty(q, dtype=int)
        inverse[perm] = np.arange(q)
        # skip rows whose top-two posteriors tie to float precision
        sorted_rows = np.sort(post.probs, axis=1)
        clear = sorted_rows[:, -1] - sorted_rows[:, -2] > 1e-9
        np.testing.assert_array_equal(
            fc.map_labels(post_perm)[clear], inverse[fc.map_labels(post)][clear]
        )


class TestDataCsv:
    def test_round_trip(self, tmp_path):
        x = np.random.default_rng(0).normal(size=(7, 3))
        path = tmp_path / "data.csv"
        fc.save_data_csv(x, path)
        np.testing.assert_array_equal(fc.load_data_csv(path), x)

    def test_column_selection(self, tmp_path):
        x = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "data.csv"
        fc.save_data_csv(x, path, columns=["a", "b", "c"])
        sub = fc.load_data_csv(path, columns=["c", "a"])
        np.testing.assert_array_equal(sub, x[:, [2, 0]])

    def test_writer_cells(self, tmp_path):
        # numpy 2 reprs an np.float64 as "np.float64(...)": every float cell
        # is written as the repr of a plain float, which reads back bit for bit
        path = tmp_path / "cells.csv"
        third = np.float64(1.0) / 3.0
        _write_csv(path, ["f", "g", "i", "s"], [[third, 0.1, np.int64(7), "a,b"]])
        assert path.read_text().splitlines() == ["f,g,i,s", f'{float(third)!r},0.1,7,"a,b"']
        assert fc.load_data_csv(path, ["f"])[0, 0] == third

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        fc.save_data_csv(np.ones((2, 2)), path)
        with pytest.raises(ValueError, match="missing columns"):
            fc.load_data_csv(path, columns=["nope"])

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="numeric"):
            fc.load_data_csv(path)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fc.validate_data(np.array([[1.0, np.nan]]))


def test_regularize_scatter_keeps_valid_input_bit_exact():
    s = np.eye(3) * 2.5
    assert regularize_scatter(s) is not s
    np.testing.assert_array_equal(regularize_scatter(s), s)


def test_regularize_scatter_is_a_fixed_point_on_rank_deficient_input():
    rng = np.random.default_rng(31)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(d, int(rng.integers(1, d)))) * rng.uniform(0.1, 10.0)
        s = a @ a.T
        once = regularize_scatter(s)
        np.testing.assert_array_equal(regularize_scatter(once), once)
        assert np.linalg.eigvalsh(once)[0] >= 1e-8 * np.trace(s) / d


def test_t_law_matches_closed_form_tail():
    # Monte-Carlo CDF of the MAP risk vs the two-term normal-CDF expression
    params = fc.gaussian_separation_truth(2, 2, 2.0)
    _, x = fc.sample_mixture(params, 100_000, np.random.default_rng(12))
    t_values = fc.posterior_matrix(params, x).t_values
    grid = np.linspace(0.02, 0.48, 24)
    mc_tail = np.array([(t_values > t).mean() for t in grid])
    exact = np.array([fc.gaussian_t_tail(params, params, t) for t in grid])
    assert np.abs(mc_tail - exact).max() < 0.02


@pytest.mark.parametrize("qn", [1, 2, 3, 7, 8, 9])
def test_normalize_matches_plain_reductions(qn):
    # the max and sum over the components of a component-major (R, Q, n)
    # stack are numpy's reductions over its middle axis, bit for bit; below
    # 8 components they also give the bits of the reductions over the last
    # axis of the (R, n, Q) layout, which sum pairwise from 8 terms on
    lw = np.random.default_rng(qn).normal(scale=30.0, size=(3, qn, 200))
    m = lw.max(axis=1, keepdims=True)
    p = np.exp(lw - m)
    s = p.sum(axis=1, keepdims=True)
    probs, loglik = _normalize(lw.copy())
    assert np.array_equal(probs, p / s)
    assert np.array_equal(loglik, (m[:, 0] + np.log(s[:, 0])).sum(axis=-1))
    if qn < 8:
        rows = np.ascontiguousarray(lw.transpose(0, 2, 1))
        p_rows = np.exp(rows - rows.max(axis=-1, keepdims=True))
        p_rows /= p_rows.sum(axis=-1, keepdims=True)
        assert np.array_equal(probs, p_rows.transpose(0, 2, 1))


def triangular_solves(x, means, chols):
    """Squared Mahalanobis distances (R, Q, n) by one LAPACK triangular solve
    per (run, component): the reference for the elementwise kernel."""
    runs, qn = means.shape[:2]
    out = np.empty((runs, qn, x.shape[-2]))
    for r in range(runs):
        for q in range(qn):
            diff = (x if x.ndim == 2 else x[r]) - means[r, q]
            z = solve_triangular(chols[r, q], diff.T, lower=True)
            out[r, q] = np.einsum("ij,ij->j", z, z)
    return out


def factor_stack(rng, runs, qn, d, shared, full=False, n=50):
    x = rng.normal(scale=3.0, size=(n, d) if shared else (runs, n, d))
    means = rng.normal(size=(runs, qn, d))
    scatters = rng.uniform(0.1, 4.0, size=(runs, qn, d))[..., None] * np.eye(d)
    if full:
        a = rng.normal(size=(runs, qn, d, d))
        scatters += a @ a.swapaxes(-1, -2)
    log_w = np.log(rng.dirichlet(np.ones(qn), size=runs))
    return x, log_w, means, *_factorize(scatters)


@pytest.mark.bits
@pytest.mark.parametrize("d, full", [
    *(pytest.param(d, False, id=str(d)) for d in (1, 2, 3, 4, 5, 20)),
    *(pytest.param(d, True, id=f"{d}-full") for d in (1, 2, 3, 4, 5, 20)),
])
@pytest.mark.parametrize("runs", [1, 4])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("dof", [None, 5.0])
def test_diagonal_kernel_matches_triangular_solves(d, full, runs, shared, dof):
    # diagonal factors: bit for bit up to d = 2; from d = 3 the solver sums
    # its squares in another order; full factors: within 1e-13, as the
    # solver orders its products and sums in its own way.  One diagonal
    # factor in a full stack takes the full substitution with the others
    rng = np.random.default_rng(100 * d + runs)
    x, log_w, means, chols, log_dets = factor_stack(rng, runs, 3, d, shared, full)
    chols[0, 1] = np.diag(np.diag(chols[0, 1]))
    assert np.count_nonzero(np.tril(chols, -1)) == (
        (runs * 3 - 1) * d * (d - 1) // 2 if full else 0)
    mahal = np.empty((runs, 3, x.shape[-2]))
    lw = _log_weighted(x, log_w, means, chols, log_dets, (dof,) * 3, mahal)
    expected = triangular_solves(x, means, chols)
    if d <= 2 and not full:
        assert np.array_equal(mahal, expected)
    else:
        np.testing.assert_allclose(mahal, expected, rtol=1e-13 if full else 1e-14, atol=0.0)
    r, q = runs - 1, 2
    cov = chols[r, q] @ chols[r, q].T
    law = (scipy.stats.multivariate_normal(means[r, q], cov) if dof is None
           else scipy.stats.multivariate_t(means[r, q], cov, df=dof))
    np.testing.assert_allclose(
        lw[r, q], log_w[r, q] + law.logpdf(x if shared else x[r]), rtol=1e-12
    )


@pytest.mark.bits
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("dof", [None, 5.0])
def test_kernel_bits_do_not_depend_on_the_row_blocks(monkeypatch, full, dof):
    # 50 rows in blocks of 7 (the last of one row) give the one-block bits
    rng = np.random.default_rng(5)
    x, log_w, means, chols, log_dets = factor_stack(rng, 4, 3, 3, False, full)
    one = np.empty((4, 3, 50))
    lw_one = _log_weighted(x, log_w, means, chols, log_dets, (dof,) * 3, one)
    monkeypatch.setattr(fc.mixtures, "_BLOCK_ELEMENTS", 7 * 4 * 3 * (3 if full else 1))
    blocked = np.empty((4, 3, 50))
    lw_blocked = _log_weighted(x, log_w, means, chols, log_dets, (dof,) * 3, blocked)
    assert np.array_equal(blocked, one) and np.array_equal(lw_blocked, lw_one)


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_mean_raises(diagonal, bad):
    rng = np.random.default_rng(4)
    x, log_w, means, chols, log_dets = factor_stack(rng, 2, 2, 2, shared=True)
    if not diagonal:
        chols[0, 0, 1, 0] = 0.3
    means[1, 0, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _log_weighted(x, log_w, means, chols, log_dets, (None, None))


def full_from_diagonals(v):
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


@pytest.mark.parametrize("d", [1, 2, 4, 9])
def test_diagonal_floor_matches_regularize(d):
    # the elementwise floor is the eigenvalue floor of _regularize, bit for
    # bit with the same fail codes, up to norms of about 1e146, beyond which
    # LAPACK's eigh rescales the matrix and moves its eigenvalues by an ulp
    rng = np.random.default_rng(d)
    v = rng.uniform(0.1, 10.0, size=(40, d))
    v[0, 0] = 1e-12  # the floor fires
    v[1] = 0.0
    v[1, 0] = 5.0  # fires on zero variances
    v[2, -1] = np.nan  # non-finite
    v[3, 0] = np.inf
    v[4] = 0.0  # zero trace
    v[5, 0] = -1.0  # materially negative
    v[6, 0] = -1e-12  # slightly negative: lifted
    v[7] = 1e-310  # subnormal floor
    v[8] = 1e-300
    v[8, 0] = 0.0  # a floor below the smallest normal float
    v[9] = 1e-200
    v[9, 0] = 1e-220  # fires at a tiny scale
    v[10] = 3.0  # a spherical scatter
    v[11] = 1e120
    v[11, 0] = 1e100  # fires at a large scale
    v[20:] *= 10.0 ** rng.integers(-140, 140, size=(20, 1))
    v[30:, 0] *= 1e-9
    out, fail = _regularize_diagonal(v.copy())
    expected, expected_fail = _regularize(full_from_diagonals(v))
    assert np.array_equal(fail, expected_fail)
    assert np.array_equal(full_from_diagonals(out), expected)
    assert np.all(fail[[2, 3]] == 1) and np.all(fail[[4, 5, 7, 8]] == 3)
    assert np.all(fail[[0, 1, 9, 10, 11]] == 0)
    if d > 1:
        assert fail[6] == 0 and out[1, 1] > 0.0
        assert np.all(out[[0, 6, 9, 11], 0] > v[[0, 6, 9, 11], 0])
