"""Span tracing around the package's public functions, for the traced run.

``Tracer.install`` wraps every public function (no leading ``_``) defined
in the layer modules and rebinds the wrapper at every module binding that
refers to the original, so ``fcrcluster.bootstrap.fit_mixture`` and
``fcrcluster.em.fit_mixture`` both record.  Spans nest by call stack, carry
the index of the operation that caused them, and stay in memory until the
run writes them out.  ``uninstall`` restores the original bindings.

Nothing here waits on a queue or a lock (one thread, closed loop), so the
per-layer numbers are counts and busy time only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time

LAYERS = ("cli", "mixtures", "selection", "em", "bootstrap", "evaluation", "harness")

# Per-layer metrics: (name, unit, better).  ``<layer>.<function>.calls`` and
# ``.self_s`` are per operation; the rest are derived below.
PER_LAYER = [
    ("mixtures.regularize_scatter.calls", "count", "lower"),
    ("mixtures.regularize_scatter.self_s", "s", "lower"),
    ("mixtures.validate_data.calls", "count", "lower"),
    ("mixtures.validate_data.self_s", "s", "lower"),
    ("mixtures.posterior_matrix.calls", "count", "lower"),
    ("mixtures.posterior_matrix.self_s", "s", "lower"),
    ("mixtures.posterior_matrix.rows_per_s", "1/s", "higher"),
    ("mixtures.log_density_rows.self_s", "s", "lower"),
    ("mixtures.sample_mixture.calls", "count", "lower"),
    ("mixtures.sample_mixture.self_s", "s", "lower"),
    ("mixtures.load_data_csv.self_s", "s", "lower"),
    ("em.fit_mixture.calls", "count", "lower"),
    ("em.fit_mixture.self_s", "s", "lower"),
    ("em.fit_mixture.s_per_start", "s", "lower"),
    ("em.kmeanspp_init.calls", "count", "lower"),
    ("em.kmeanspp_init.self_s", "s", "lower"),
    ("em.em_steps.calls", "count", "lower"),
    ("em.em_steps.self_s", "s", "lower"),
    ("em.em_steps.s_per_iter", "s", "lower"),
    ("em.iterations", "count", "lower"),
    ("em.converged_frac", "frac", "higher"),
    ("em.reinits", "count", "lower"),
    ("bootstrap.calibrate_level.calls", "count", "lower"),
    ("bootstrap.calibrate_level.self_s", "s", "lower"),
    ("bootstrap.resample.calls", "count", "lower"),
    ("bootstrap.resample.self_s", "s", "lower"),
    ("bootstrap.s_per_resample", "s", "lower"),
    ("bootstrap.refit_failures", "count", "lower"),
    ("bootstrap.fallbacks", "count", "lower"),
    ("bootstrap.refit_ok_frac", "frac", "higher"),
    ("selection.select_and_label.calls", "count", "lower"),
    ("selection.select_and_label.self_s", "s", "lower"),
    ("selection.kstar_grid.calls", "count", "lower"),
    ("selection.kstar_grid.self_s", "s", "lower"),
    ("evaluation.sample_fcr.calls", "count", "lower"),
    ("evaluation.sample_fcr.self_s", "s", "lower"),
    ("evaluation.oracle_curve.self_s", "s", "lower"),
    ("harness.run_replication.calls", "count", "lower"),
    ("harness.run_replication.self_s", "s", "lower"),
    ("harness.emit_outputs.self_s", "s", "lower"),
    ("harness.failed_replications", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class RefitCounter(logging.Handler):
    """Counts the bootstrap's refit retries and fallbacks from its log records.

    ``_fcr_curve`` logs "retrying once" after a first failed refit and
    "failed twice" when it falls back to the original fit; nothing else
    reports either event.
    """

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.retries = 0
        self.fallbacks = 0

    def emit(self, record):
        msg = str(record.msg)
        if "retrying once" in msg:
            self.retries += 1
        elif "failed twice" in msg:
            self.fallbacks += 1


class Tracer:
    """Wraps the layer modules' public functions and records spans."""

    def __init__(self):
        self.modules = [importlib.import_module("fcrcluster")] + [
            importlib.import_module(f"fcrcluster.{layer}") for layer in LAYERS
        ]
        self.spans: list[tuple] = []  # (op, name, parent, start, end)
        self.stack: list[int] = []
        self.op = -1
        self.fits: list = []  # FitResults returned by fit_mixture
        self.em_steps_iters = 0
        self.posterior_rows = 0
        self.resamples = 0
        self._originals: dict[int, tuple[str, object]] = {}
        self._bound: list[tuple[object, str, object]] = []
        for module in self.modules[1:]:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    self._originals[id(value)] = (f"{layer}.{attr}", value)

    def _observe(self, name, fn, args, kwargs, result):
        if name == "em.fit_mixture":
            self.fits.append(result)
        elif name == "em.em_steps":
            self.em_steps_iters += int(_arg(fn, args, kwargs, "n_iter"))
        elif name == "mixtures.posterior_matrix":
            params = _arg(fn, args, kwargs, "params")
            data = _arg(fn, args, kwargs, "data")
            self.posterior_rows += len(data) * params.q
        elif name == "bootstrap.calibrate_level":
            self.resamples += int(_arg(fn, args, kwargs, "cfg").b)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observed = name in (
            "em.fit_mixture", "em.em_steps", "mixtures.posterior_matrix",
            "bootstrap.calibrate_level",
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (self.op, name, parent, start, end)
            if observed:
                self._observe(name, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {
            key: self._wrap(name, fn) for key, (name, fn) in self._originals.items()
        }
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in self._bound:
            setattr(module, attr, value)
        self._bound.clear()

    def layer_metrics(self, n_ops: int, counter: RefitCounter, failed_reps: int,
                      overhead_frac: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer values (per operation where they are sums) and absent names."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for _, name, parent, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_s: dict[str, float] = {}
        for sid, (_, name, _, start, end) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(sid, 0.0)

        present = {name for name, _ in self._originals.values()}
        absent = sorted(
            {m.rsplit(".", 1)[0] for m, _, _ in PER_LAYER
             if m.count(".") == 2 and m.split(".")[0] in LAYERS} - present
        )
        ops = max(n_ops, 1)
        fits = self.fits
        starts = sum(f.n_starts_run for f in fits)
        attempts = self.resamples + counter.retries
        failures = counter.retries + counter.fallbacks
        values = {
            "mixtures.posterior_matrix.rows_per_s": _ratio(
                self.posterior_rows, total.get("mixtures.posterior_matrix", 0.0)
            ),
            "em.fit_mixture.s_per_start": _ratio(total.get("em.fit_mixture", 0.0), starts),
            "em.em_steps.s_per_iter": _ratio(
                self_s.get("em.em_steps", 0.0), self.em_steps_iters
            ),
            "em.iterations": _ratio(sum(len(f.loglik_trace) - 1 for f in fits), len(fits)),
            "em.converged_frac": _ratio(sum(bool(f.converged) for f in fits), len(fits)),
            "em.reinits": sum(f.n_reinits for f in fits) / ops,
            "bootstrap.s_per_resample": _ratio(
                total.get("bootstrap.calibrate_level", 0.0), self.resamples
            ),
            "bootstrap.refit_failures": failures / ops,
            "bootstrap.fallbacks": counter.fallbacks / ops,
            "bootstrap.refit_ok_frac": _ratio(attempts - failures, attempts),
            "harness.failed_replications": failed_reps / ops,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in values:
                value = values[metric]
            else:
                fn, stat = metric.rsplit(".", 1)
                value = (calls.get(fn, 0) if stat == "calls" else self_s.get(fn, 0.0)) / ops
            out[metric] = value
        return out, absent


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
