import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import fcrcluster as fc
from fcrcluster.em import FAMILIES, EmConfig, _kmeanspp
from fcrcluster.mixtures import GAUSSIAN, STRUCTURES


def blobs(rng, centers, n_per, scale=1.0):
    parts = [c + scale * rng.normal(size=(n_per, len(c))) for c in map(np.asarray, centers)]
    return np.vstack(parts)


def small_input(structure, family):
    """A seeded two-cluster input and config for one structure and family;
    the recorded fits draw from ``default_rng(17)``."""
    rng = np.random.default_rng(2024)
    x = np.vstack([rng.standard_t(6, size=(40, 2)) + c for c in ((0.0, 0.0), (3.0, 1.0))])
    kw = kc = None
    if structure == "known":
        kw, kc = np.array([0.4, 0.6]), (np.eye(2), np.array([[1.5, 0.3], [0.3, 0.8]]))
    cfg = EmConfig(family=family, structure=structure, n_starts=2, max_iter=50,
                   known_weights=kw, known_covariances=kc)
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
    fit = fc.fit_mixture(x, 2, cfg, np.random.default_rng(17))
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
        fit = fc.fit_mixture(data, 2, cfg, np.random.default_rng(17))
        assert fit.loglik == fc.mixture_loglik(fit.params, data)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", FAMILIES)
def test_winning_run_keeps_the_posterior_of_the_fit(structure, family):
    # a bootstrap refit is scored from its winning run's last E-step; those
    # responsibilities give the MAP risk and labels of the returned parameters
    x, cfg = small_input(structure, family)
    for data in (x, np.vstack([np.repeat(x[:3], 15, axis=0), x[:12]])):
        fit = fc.fit_mixture(data, 2, cfg, np.random.default_rng(17))
        streams = np.random.default_rng(17).spawn(cfg.n_starts)
        runs = fc.em._fit_runs(data, 2, cfg, fc.em._known_factors(cfg, 2, data.shape[1]), streams)
        probs = fc.em._best(runs).probs
        post = fc.posterior_matrix(fit.params, data)
        assert np.array_equal(fc.mixtures._t_values(probs), post.t_values)
        assert np.array_equal(np.argmax(probs, axis=1), fc.map_labels(post))


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


@pytest.mark.bits
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


@pytest.fixture
def fast_switches():
    """Switch threads every 10 us, so that pieces interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def force_split(monkeypatch, cpus):
    """Split every stack of ``_fit_runs`` into min(R, cpus) pieces; returns
    the pieces' run counts, as they start."""
    sizes, fit_piece = [], fc.em._fit_piece

    def spy(x, q, cfg, known, streams):
        sizes.append(len(streams))
        return fit_piece(x, q, cfg, known, streams)

    monkeypatch.setattr(fc.em, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(fc.em, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fc.em, "_fit_piece", spy)
    return sizes


def assert_same_runs(split, whole):
    for a, b in zip(split, whole, strict=True):
        assert a.trace == b.trace
        assert (a.n_reinits, a.converged) == (b.n_reinits, b.converged)
        assert repr(a.error) == repr(b.error)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        if a.error is None:
            for u, v in zip(a.theta, b.theta, strict=True):
                assert np.array_equal(u, v)
            assert np.array_equal(a.probs, b.probs)


@pytest.mark.bits
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name", ["blobs", "outlier"])
@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("family", FAMILIES)
def test_split_stack_equals_one_stack(monkeypatch, fast_switches, family, structure, name, cpus):
    # a large stack is fitted in contiguous pieces of runs, one thread each;
    # every run computes and draws what it does in one stack, reinits too
    x = stacked_inputs()[name]
    _, cfg = small_input(structure, family)
    cfg = replace(cfg, n_starts=4, max_iter=40)
    known = fc.em._known_factors(cfg, 2, x.shape[1])
    whole = fc.em._fit_runs(x, 2, cfg, known, np.random.default_rng(5).spawn(4))
    sizes = force_split(monkeypatch, cpus)
    split = fc.em._fit_runs(x, 2, cfg, known, np.random.default_rng(5).spawn(4))
    assert sorted(sizes) == ([2, 2] if cpus == 2 else [1, 1, 2])
    assert_same_runs(split, whole)
    if name == "outlier" and structure != "known":
        assert sum(run.n_reinits for run in split[1:]) > 0  # beyond piece 0


@pytest.mark.bits
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_split_block_of_datasets_equals_one_stack(monkeypatch, fast_switches, family, cpus):
    # the starts of a block of datasets are cut at run boundaries, so a
    # dataset's starts may land in two pieces; each dataset keeps its fit
    data = stacked_inputs()
    xs = np.stack([data["blobs"][:61], data["outlier"]])
    _, cfg = small_input("full", family)
    cfg = replace(cfg, n_starts=3, max_iter=40)

    def fits():
        groups = [np.random.default_rng(s).spawn(3) for s in (1, 2)]
        return fc.em._fit_datasets(xs, 2, cfg, None, groups)

    whole = fits()
    sizes = force_split(monkeypatch, cpus)
    split = fits()
    assert sizes == ([3, 3] if cpus == 2 else [2, 2, 2])
    for a, b in zip(split, whole, strict=True):
        assert_same_runs(a, b)


def test_split_stack_raises_the_first_piece_error(monkeypatch):
    # every piece finishes before the call raises, and the lowest piece's
    # error wins even when a later piece raised first
    x = stacked_inputs()["blobs"]
    cfg = EmConfig(n_starts=4, max_iter=5)
    streams = np.random.default_rng(0).spawn(4)
    force_split(monkeypatch, 2)
    fit_piece, later_raised, done = fc.em._fit_piece, threading.Event(), []

    def failing(pieces):
        def piece(x, q, cfg, known, part):
            i = streams.index(part[0]) // 2
            if i == 0:
                later_raised.wait(10.0)
            runs = fit_piece(x, q, cfg, known, part)
            done.append(i)
            if i in pieces:
                if i == 1:
                    later_raised.set()
                raise ValueError(f"piece {i}")
            return runs
        return piece

    before = threading.active_count()
    for pieces, message in (({1}, "piece 1"), ({0, 1}, "piece 0")):
        later_raised.clear()
        done.clear()
        monkeypatch.setattr(fc.em, "_fit_piece", failing(pieces))
        with pytest.raises(ValueError, match=message):
            fc.em._fit_runs(x, 2, cfg, None, streams)
        assert sorted(done) == [0, 1]
        assert threading.active_count() == before


def test_split_stack_threads_keep_the_callers_errstate(monkeypatch):
    # each piece runs in a copy of the caller's context, which holds numpy's
    # error state; piece 0 runs in the calling thread and the others on
    # other threads (a pool worker may take more than one piece); no thread
    # outlives the call
    x = stacked_inputs()["blobs"]
    cfg = EmConfig(n_starts=3, max_iter=5)
    streams = np.random.default_rng(0).spawn(3)
    force_split(monkeypatch, 3)
    fit_piece, seen = fc.em._fit_piece, []

    def spy(x, q, cfg, known, part):
        seen.append((streams.index(part[0]), threading.current_thread(), np.geterr()["divide"]))
        return fit_piece(x, q, cfg, known, part)

    monkeypatch.setattr(fc.em, "_fit_piece", spy)
    before = threading.active_count()
    with np.errstate(divide="raise"):
        fc.em._fit_runs(x, 2, cfg, None, streams)
    assert threading.active_count() == before
    caller = threading.current_thread()
    assert sorted(i for i, _, _ in seen) == [0, 1, 2]
    assert all((thread is caller) == (i == 0) for i, thread, _ in seen)
    assert [divide for _, _, divide in seen] == ["raise"] * 3


@pytest.mark.parametrize("structure", ["diagonal", "full"])
def test_runs_call_no_public_function(monkeypatch, structure):
    # the threads of a split stack must not enter a wrapper of a public
    # function (the benchmark's tracer keeps one span stack per process);
    # the outlier's reinits and the Student-t start regularize scatters
    x = stacked_inputs()["outlier"]
    cfg = EmConfig(family="student", structure=structure, n_starts=4, max_iter=40)
    for module in (fc.em, fc.mixtures):
        for attr, value in list(vars(module).items()):
            if (not attr.startswith("_") and callable(value)
                    and getattr(value, "__module__", "").startswith("fcrcluster")):
                monkeypatch.setattr(module, attr, lambda *a, _name=attr, **k: pytest.fail(_name))
    runs = fc.em._fit_runs(x, 2, cfg, None, np.random.default_rng(5).spawn(4))
    assert sum(run.n_reinits for run in runs) > 0


class TestKmeansppInit:
    """The k-means++ start of every EM run: centres and each row's nearest."""

    def test_single_cluster_uses_sample_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        centers, assign = _kmeanspp(x, 1, rng)
        np.testing.assert_allclose(centers, x.mean(axis=0, keepdims=True))
        assert np.all(assign == 0)

    def test_q_equals_n_distinct_rows(self):
        x = np.arange(10.0).reshape(5, 2)
        centers, assign = _kmeanspp(x, 5, np.random.default_rng(1))
        assert sorted(map(tuple, centers)) == sorted(map(tuple, x))
        assert np.array_equal(centers[assign], x)

    def test_separated_blobs_get_one_center_each(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = blobs(rng, [(-10.0, -10.0), (10.0, 10.0)], 100)
            centers, _ = _kmeanspp(x, 2, rng)
            hits += sorted(np.sign(centers[:, 0])) == [-1.0, 1.0]
        assert hits >= 99

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError, match="need at least q=2 rows, got 1"):
            fc.fit_mixture(np.zeros((1, 2)), 2, EmConfig(n_starts=1))

    def test_rejects_q_below_one(self):
        x = np.arange(10.0).reshape(5, 2)
        for q in (0, -1):
            with pytest.raises(ValueError, match="q must be >= 1"):
                fc.fit_mixture(x, q, EmConfig(n_starts=1))

    def test_fewer_distinct_rows_than_q(self):
        x = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        with pytest.raises(ValueError, match="need at least q=3 distinct rows"):
            _kmeanspp(x, 3, np.random.default_rng(0))
        known = EmConfig(structure="known", known_covariances=tuple(
            np.eye(2) * (j + 1) for j in range(3)))
        for cfg in (EmConfig(), EmConfig(family="student"), known):
            with pytest.raises(ValueError, match="need at least q=3 distinct rows"):
                fc.fit_mixture(x, 3, cfg)

    def test_rows_too_far_apart(self):
        # k-means++ distances overflow: a clear error, not NaN probabilities
        x = np.vstack([np.random.default_rng(0).normal(size=(120, 2)), [[1e160, 0.0]]])
        for q in (1, 2):
            with pytest.raises(ValueError, match="squared distances overflow"):
                _kmeanspp(x, q, np.random.default_rng(1))
            with pytest.raises(ValueError, match="squared distances overflow"):
                fc.fit_mixture(x, q, EmConfig(structure="diagonal", n_starts=2))

    def test_structure_projection(self):
        # a Student-t start takes its initial distances under the pooled
        # within-assignment covariance, projected onto the structure
        rng = np.random.default_rng(3)
        x = blobs(rng, [(0.0, 0.0)], 200) @ np.array([[1.0, 0.4], [0.0, 1.0]])
        pooled = fc.em._pooled(x, *_kmeanspp(x, 2, rng))
        assert pooled[0, 1] != 0.0
        diag = fc.em._project_cov(pooled, "diagonal")
        assert np.array_equal(diag, np.diag(np.diag(pooled)))
        sph = fc.em._project_cov(pooled, "spherical")
        assert np.array_equal(sph, np.trace(pooled) / 2 * np.eye(2))
        assert fc.em._project_cov(pooled, "full") is pooled


def test_runs_read_their_rows_as_one_stack(monkeypatch):
    # the starts of a fit read the caller's rows through one zero-stride
    # view, with no copy; warm refits that draw no reinit iterate one block
    # of all four resamples, each run on its own rows
    seen = []
    e_step = fc.em._e_step

    def spy(theta, dof, x):
        seen.append(x)
        return e_step(theta, dof, x)

    monkeypatch.setattr(fc.em, "_e_step", spy)
    x = blobs(np.random.default_rng(4), [(0.0, 0.0), (4.0, 0.0)], 40)
    fit = fc.fit_mixture(x, 2, EmConfig(n_starts=3, max_iter=4), np.random.default_rng(0))
    assert seen[0].shape == (3, *x.shape) and seen[0].strides[0] == 0
    assert np.shares_memory(seen[0], x)
    seen.clear()
    boot = fc.BootstrapConfig(b=4, refit=fc.WarmStart(3))
    fc.calibrate_level(x, fit.params, 0.1, boot, EmConfig(), np.random.default_rng(1))
    assert [s.shape for s in seen] == [(4, *x.shape)] * 4



@pytest.mark.bits
@pytest.mark.parametrize("structure", ["spherical", "diagonal", "full"])
@pytest.mark.parametrize("dof", [None, 5.0])
def test_m_step_scatters_are_the_weighted_pair_moments(structure, dof):
    # full scatters agree within 1e-13 with one (d, n) @ (n, d) product of
    # weighted deviations per run and component; diagonal and spherical ones
    # are the per-coordinate moments, bit for bit
    rng = np.random.default_rng(8)
    runs, qn, n, d = 3, 2, 60, 4
    x = rng.normal(size=(runs, n, d)) @ rng.normal(size=(d, d))
    resp = rng.dirichlet(np.ones(qn), size=(runs, n)).transpose(0, 2, 1).copy()
    mahal = None if dof is None else rng.uniform(0.0, 10.0, size=(runs, qn, n))
    streams = [fc.em._Run(np.random.default_rng(r)) for r in range(runs)]
    _, means, scatters, _, _ = fc.em._m_step(
        x, resp, mahal, EmConfig(structure=structure), dof, None, streams
    )
    assert all(run.n_reinits == 0 for run in streams)
    w = resp if dof is None else resp * ((dof + d) / (mahal + dof))
    mass = resp.sum(axis=2)
    if structure == "full":
        diff = x[:, None] - means[:, :, None, :]
        covs = np.matmul((w[..., None] * diff).swapaxes(-1, -2), diff) / mass[..., None, None]
        np.testing.assert_allclose(scatters, covs, rtol=1e-13, atol=0.0)
        return
    var = np.empty((runs, qn, d))
    for j in range(d):
        dj = x[:, None, :, j] - means[..., j, None]
        var[..., j] = np.einsum("...i,...i->...", w * dj, dj)
    var /= mass[..., None]
    if structure == "spherical":
        var[:] = var.sum(axis=-1, keepdims=True) / d
    assert np.array_equal(scatters, var[..., None] * np.eye(d))

class TestGaussianEm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(120, 2)) @ np.array([[1.5, 0.2], [0.0, 0.7]])
        fit = fc.fit_mixture(x, 1, EmConfig(n_starts=1, max_iter=5),
                             np.random.default_rng(0))
        np.testing.assert_allclose(fit.params.components[0].mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            fit.params.components[0].scatter,
            np.cov(x, rowvar=False, ddof=0),
            rtol=1e-10,
        )

    def test_two_blob_recovery(self):
        rng = np.random.default_rng(5)
        x = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 200)
        fit = fc.fit_mixture(x, 2, EmConfig(n_starts=5), np.random.default_rng(1))
        means = sorted(c.mean[0] for c in fit.params.components)
        assert abs(means[0] - (-5.0)) < 0.3
        assert abs(means[1] - 5.0) < 0.3

    def test_trace_monotone(self):
        rng = np.random.default_rng(6)
        x = blobs(rng, [(0.0, 0.0), (2.0, 1.0)], 150)
        fit = fc.fit_mixture(x, 2, EmConfig(n_starts=3), np.random.default_rng(2))
        assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

    def test_monotone_all_structures_and_families(self):
        rng = np.random.default_rng(7)
        for structure in ("spherical", "diagonal", "full"):
            for family in FAMILIES:
                x = blobs(rng, [(0.0, 0.0), (1.5, 1.5)], 60)
                cfg = EmConfig(family=family, structure=structure, n_starts=2, max_iter=40)
                fit = fc.fit_mixture(x, 2, cfg, np.random.default_rng(8))
                diffs = np.diff(fit.loglik_trace)
                slack = 1e-8 * np.abs(fit.loglik_trace[:-1])
                assert np.all(diffs >= -np.maximum(slack, 1e-8)), (structure, family)

    def test_known_regime_bit_exact(self):
        rng = np.random.default_rng(9)
        x = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], 100)
        kw = np.array([0.4, 0.6])
        kc = (np.eye(2) * 1.3, np.eye(2) * 0.8)
        cfg = EmConfig(structure="known", known_weights=kw, known_covariances=kc, n_starts=2)
        fit = fc.fit_mixture(x, 2, cfg, np.random.default_rng(3))
        assert np.array_equal(fit.params.weights, kw)
        for comp, known in zip(fit.params.components, kc):
            assert np.array_equal(comp.scatter, known)

    @pytest.mark.parametrize("setting", ["n_starts", "max_iter"])
    def test_non_whole_counts_rejected_before_any_draw(self, setting):
        # n_starts=2.5 used to fit and report n_starts_run=2.5, max_iter=2.5
        # raised TypeError inside EM, and n_starts=True ran one start
        x = blobs(np.random.default_rng(2), [(0.0, 0.0), (4.0, 0.0)], 30)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"{setting} must be >= 1 and whole, got {bad}"):
                fc.fit_mixture(x, 2, EmConfig(**{setting: bad}), rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    @pytest.mark.parametrize("rel_tol", ["1e-8", -1e-8, math.nan, math.inf])
    def test_bad_rel_tol_rejected_before_any_draw(self, rel_tol):
        # "1e-8" used to raise TypeError in the first E-step, after k-means++
        # had drawn; a negative or NaN tolerance silently ran max_iter steps
        x = blobs(np.random.default_rng(2), [(0.0, 0.0), (4.0, 0.0)], 30)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="rel_tol must be None or a finite number >= 0"):
            fc.fit_mixture(x, 2, EmConfig(rel_tol=rel_tol), rng)
        assert rng.bit_generator.state == state
        for ok in (None, 0, 0.0, 1e-8, np.float64(1e-6)):
            EmConfig(rel_tol=ok).validate()

    def test_known_requires_covariances(self):
        with pytest.raises(ValueError, match="known_covariances"):
            EmConfig(structure="known").validate()

    def test_starts_build_no_mixture_params(self, monkeypatch):
        # each start runs from k-means++ arrays; parameters are built and
        # validated once, when the fit returns
        built = []
        post_init = fc.MixtureParams.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(fc.MixtureParams, "__post_init__", counting)
        x = blobs(np.random.default_rng(2), [(0.0, 0.0), (4.0, 0.0)], 30)
        for family in FAMILIES:
            built.clear()
            fc.fit_mixture(x, 2, EmConfig(family=family, n_starts=4, max_iter=5))
            assert len(built) == 1

    def test_known_parts_checked_against_q(self):
        x = blobs(np.random.default_rng(17), [(0.0, 0.0), (4.0, 0.0)], 30)
        fit = fc.fit_mixture(x, 2, EmConfig(n_starts=1), np.random.default_rng(0))
        for cfg in (
            EmConfig(known_weights=np.array([1.0])),
            EmConfig(known_weights=np.array([0.7, 0.7])),
            EmConfig(structure="known", known_covariances=(np.eye(2),)),
        ):
            with pytest.raises(ValueError):
                fc.fit_mixture(x, 2, cfg, np.random.default_rng(1))
            with pytest.raises(ValueError):
                fc.em_steps(x, fit.params, cfg, 2, np.random.default_rng(1))

    def test_known_covariances_checked_against_the_data_dimension(self, capfd):
        # 3x3 known covariances on 2-column data used to reach LAPACK, which
        # printed an illegal-argument line per solve before a late failure
        x = blobs(np.random.default_rng(17), [(0.0, 0.0), (4.0, 0.0)], 30)
        fit = fc.fit_mixture(x, 2, EmConfig(n_starts=1), np.random.default_rng(0))
        cfg = EmConfig(structure="known", known_covariances=(np.eye(3), np.eye(3)))
        for call in (
            lambda: fc.fit_mixture(x, 2, cfg, np.random.default_rng(1)),
            lambda: fc.em_steps(x, fit.params, cfg, 2, np.random.default_rng(1)),
            lambda: fc.calibrate_level(x, fit.params, 0.1, fc.BootstrapConfig(b=2), cfg,
                                       np.random.default_rng(1)),
        ):
            with pytest.raises(ValueError, match="known_covariances must be 2x2"):
                call()
        printed = capfd.readouterr()
        assert "DTRTRS" not in printed.out + printed.err

    @pytest.mark.parametrize("structure", ["full", "diagonal"])
    def test_em_steps_checks_the_data_width(self, structure):
        # one column of two-column data used to give a one-column mixture
        truth = fc.gaussian_separation_truth(2, 2, 3.0)
        _, x = fc.sample_mixture(truth, 40, np.random.default_rng(0))
        with pytest.raises(ValueError, match="data has dimension 1, expected 2"):
            fc.em_steps(x[:, :1], truth, EmConfig(structure=structure), 5,
                        np.random.default_rng(1))

    def test_warm_starts_reject_mixed_families(self):
        # components of two kinds, or two dofs, used to be refitted with the
        # kind and dof of the first
        x = np.random.default_rng(0).normal(size=(40, 2))
        warm = fc.BootstrapConfig(b=3, refit=fc.WarmStart(2))
        for kinds, dofs in ((("gaussian", "student_t"), (None, 5.0)),
                            (("student_t", "student_t"), (3.0, 30.0))):
            params = fc.MixtureParams([0.5, 0.5], tuple(
                fc.ComponentParams(kind, np.full(2, m), np.eye(2), dof=dof)
                for kind, m, dof in zip(kinds, (0.0, 3.0), dofs)))
            for call in (
                lambda: fc.em_steps(x, params, EmConfig(), 2, np.random.default_rng(1)),
                lambda: fc.calibrate_level(x, params, 0.1, warm, EmConfig(n_starts=1),
                                           np.random.default_rng(1)),
            ):
                with pytest.raises(ValueError, match="one kind and dof"):
                    call()

    def test_constraint_shapes(self):
        rng = np.random.default_rng(10)
        x = blobs(rng, [(0.0, 0.0), (4.0, 0.0)], 120) @ np.array([[1.0, 0.3], [0.0, 1.0]])
        diag = fc.fit_mixture(x, 2, EmConfig(structure="diagonal", n_starts=2),
                              np.random.default_rng(4))
        for comp in diag.params.components:
            assert comp.scatter[0, 1] == 0.0 and comp.scatter[1, 0] == 0.0
        sph = fc.fit_mixture(x, 2, EmConfig(structure="spherical", n_starts=2),
                             np.random.default_rng(5))
        for comp in sph.params.components:
            assert comp.scatter[0, 0] == comp.scatter[1, 1]
            assert comp.scatter[0, 1] == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(11)
        x = blobs(rng, [(0.0, 0.0), (3.0, 3.0)], 100)
        cfg = EmConfig(n_starts=4)
        fit1 = fc.fit_mixture(x, 2, cfg, np.random.default_rng(99))
        fit2 = fc.fit_mixture(x, 2, cfg, np.random.default_rng(99))
        np.testing.assert_array_equal(fit1.loglik_trace, fit2.loglik_trace)
        np.testing.assert_array_equal(fit1.params.weights, fit2.params.weights)
        for a, b in zip(fit1.params.components, fit2.params.components):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.scatter, b.scatter)

    def test_coordinate_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        x = blobs(rng, [(0.0, 1.0, -1.0), (4.0, -2.0, 2.0)], 80)
        cfg = EmConfig(n_starts=3)
        fit = fc.fit_mixture(x, 2, cfg, np.random.default_rng(5))
        perm = [2, 0, 1]
        fit_p = fc.fit_mixture(x[:, perm], 2, cfg, np.random.default_rng(5))
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
        fit = fc.fit_mixture(x, 2, EmConfig(n_starts=1, max_iter=30),
                             np.random.default_rng(6))
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

    def test_subnormal_scatter_reseeded(self):
        # one start collapses a component onto the far row; its scatter is
        # subnormal, so the eigenvalue floor underflows to 0 and its Cholesky
        # factorization used to fail the whole fit
        _, x = fc.sample_mixture(fc.gaussian_separation_truth(2, 2, 2.0), 59,
                                 np.random.default_rng(2))
        x = np.vstack([x, [[40.0, -30.0]]])
        cfg = EmConfig(family="student", structure="full", n_starts=2, max_iter=50)
        fit = fc.fit_mixture(x, 3, cfg, np.random.default_rng(2))
        assert np.isfinite(fit.loglik) and fit.n_reinits > 0

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
        cfg = EmConfig(family="student", n_starts=1, max_iter=60)
        fit = fc.fit_mixture(x, 1, cfg, np.random.default_rng(0))
        assert abs(fit.params.components[0].mean[0]) < 1e-10

    def test_outlier_robustness(self):
        rng = np.random.default_rng(14)
        clean = rng.normal(size=(99, 1))
        x = np.vstack([clean, [[100.0]]])
        cfg = EmConfig(n_starts=1, max_iter=80)
        gauss = fc.fit_mixture(x, 1, cfg, np.random.default_rng(1))
        student = fc.fit_mixture(x, 1, replace(cfg, family="student"),
                                 np.random.default_rng(1))
        target = clean.mean()
        err_gauss = abs(gauss.params.components[0].mean[0] - target)
        err_student = abs(student.params.components[0].mean[0] - target)
        assert err_student < err_gauss

    def test_dof_checked_at_the_boundary(self):
        for dof in (1.0, 2.0, float("nan")):
            with pytest.raises(ValueError, match="dof must exceed 2"):
                EmConfig(family="student", dof=dof).validate()
        EmConfig(family="gaussian", dof=1.0).validate()  # dof unused

    def test_infinite_dof_rejected_before_any_draw(self):
        # dof=inf used to pass, and the fit then died in the M-step with a
        # RuntimeWarning from np.divide
        x = blobs(np.random.default_rng(2), [(0.0, 0.0), (4.0, 0.0)], 30)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="dof must exceed 2 and be finite, got inf"):
            fc.fit_mixture(x, 2, EmConfig(family="student", dof=math.inf), rng)
        assert rng.bit_generator.state == state

    def test_dof_never_updated(self):
        rng = np.random.default_rng(15)
        x = blobs(rng, [(0.0,), (5.0,)], 80)
        cfg = EmConfig(family="student", n_starts=2, dof=4.0, max_iter=30)
        fit = fc.fit_mixture(x, 2, cfg, np.random.default_rng(2))
        assert all(c.dof == 4.0 for c in fit.params.components)


class TestFitExport:
    def test_save_fit_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        x = blobs(rng, [(0.0, 0.0), (4.0, 4.0)], 60)
        fit = fc.fit_mixture(x, 2, EmConfig(n_starts=2), np.random.default_rng(0))
        params_path = tmp_path / "params.json"
        trace_path = tmp_path / "trace.csv"
        from fcrcluster.em import save_fit

        save_fit(fit, params_path, trace_path)
        loaded = fc.load_mixture_json(params_path)
        np.testing.assert_array_equal(loaded.weights, fit.params.weights)
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,loglik"
        assert len(lines) == len(fit.loglik_trace) + 1
