"""End-to-end benchmark of the ``fcrcluster`` command.

Usage (from the repository root):

    python3 bench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

One client drives ``fcrcluster.cli.main(argv)`` in process in a closed loop:
the next operation starts only when the last one has returned.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced replay.  The line before it is the full run record (metadata,
sample counts, counters).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# BLAS/OpenMP pools are pinned to one thread before numpy loads below.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from tracing import PER_LAYER, RefitCounter, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    matches_reference,
    run_op,
    summary_digest,
)

SETUP_REPEATS = 5
# Share of --seconds spent on the untraced half of a traced run; the traced
# replay of the same operations takes the rest (plus tracing overhead).
TRACE_UNTRACED_SHARE = 0.45


def _import_package():
    """Import ``fcrcluster`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "fcrcluster" / "__init__.py").is_file():
        raise SystemExit(f"error: no fcrcluster package under {src}")
    sys.path.insert(0, str(src))
    import fcrcluster
    import fcrcluster.cli

    if Path(fcrcluster.__file__).resolve().parent != (src / "fcrcluster").resolve():
        raise SystemExit(f"error: imported fcrcluster from {fcrcluster.__file__}")
    return fcrcluster


def _git_commit() -> str:
    # GIT_DIR keeps git from searching directories above the checkout.
    env = {**os.environ, "GIT_DIR": str(ROOT / ".git")}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "load_1min_before": os.getloadavg()[0],
    }


def _order(workload, seed: int) -> list[int]:
    return np.random.default_rng(seed).permutation(workload.pool_size).tolist()


def _setup_probe(workload_name: str, seed: int, tiny: bool, out_dir: Path) -> None:
    """Child side of a setup measurement: import, write the first inputs."""
    _import_package()
    workload = WORKLOADS[workload_name](tiny)
    workload.prepare(_order(workload, seed)[0], out_dir)
    print("ready", flush=True)


def _measure_setup(args) -> list[float]:
    """Seconds from process start to inputs ready, once per fresh child."""
    times = []
    for k in range(SETUP_REPEATS):
        out_dir = WORK / f"setup-{os.getpid()}-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--out", str(out_dir)]
        if args.tiny:
            cmd.append("--tiny")
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        shutil.rmtree(out_dir, ignore_errors=True)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return times


class Loop:
    """Closed-loop driver: one op at a time, outputs checked between ops."""

    def __init__(self, workload, fc, reference, order):
        self.workload = workload
        self.fc = fc
        self.reference = reference
        self.order = order
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.summaries: dict[str, dict] = {}
        self.keys: list[int] = []
        self.failures: list[str] = []
        self.matched = 0
        self.quality_keys: list[int] = []
        self.quality: list[tuple[float, float]] = []  # (FCR, selected share) per op
        self.failed_reps = 0

    def run_one(self, i: int, key: int, tracer=None) -> None:
        workdir = WORK / f"op-{os.getpid()}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        op = self.workload.prepare(key, workdir)
        gc.collect()
        if tracer is not None:
            tracer.op = i
            tracer.install()
        start = time.perf_counter()
        try:
            run_op(op, self.fc.cli.main)
            error = None
        except Exception as exc:  # noqa: BLE001 - any failure counts against the op
            error = f"op {i} (pool entry {key}): {exc!r}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.keys.append(key)
        if error is None:
            try:
                outcome = self.workload.check(op, self.fc)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                error = f"op {i} (pool entry {key}): check failed: {exc}"
        shutil.rmtree(workdir, ignore_errors=True)
        self.failed_reps += op.failed_replications
        if error is not None:
            self.failures.append(error)
            self.digests.append("failed")
            return
        self.latencies.append(elapsed)
        self.digests.append(summary_digest(outcome.summary))
        self.summaries[str(key)] = {
            **outcome.summary, "quality": [outcome.fcr, outcome.selected_frac]
        }
        self.matched += matches_reference(
            outcome.summary, self.reference.get(str(key))
        )
        self.quality_keys.append(key)
        self.quality.append((outcome.fcr, outcome.selected_frac))

    def run_for(self, seconds: float) -> None:
        """Start ops while the next one is expected to end within ``seconds``."""
        begin = time.perf_counter()
        cycles: list[float] = []
        i = 0
        while i == 0 or (time.perf_counter() - begin) + statistics.median(cycles) <= seconds:
            cycle_start = time.perf_counter()
            self.run_one(i, self.order[i % len(self.order)])
            cycles.append(time.perf_counter() - cycle_start)
            i += 1

    @property
    def attempted(self) -> int:
        return len(self.keys)


def _quality_mean(loop: Loop, index: int, raw: bool = False) -> float:
    """Mean per-op FCR (``index`` 0) or selected share (``index`` 1).

    With a reference this is a control-variate estimate of the pool mean:
    the reference pool mean plus the run's mean deviation from the reference
    values of the entries it visited.  Pool entries differ far more than
    they do between runs, so this removes the spread that comes from which
    entries a seed visits while any change in outputs still moves it.
    """
    if not loop.quality:
        return 0.0
    values = [q[index] for q in loop.quality]
    refs = [loop.reference.get(str(k), {}).get("quality") for k in loop.quality_keys]
    pool = [e["quality"][index] for e in loop.reference.values() if "quality" in e]
    if raw or not pool or None in refs:
        return statistics.fmean(values)
    return statistics.fmean(pool) + statistics.fmean(
        v - r[index] for v, r in zip(values, refs)
    )


def _end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    lat = loop.latencies
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "op_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - len(loop.failures) / loop.attempted, "frac"),
        "ref_match_frac": (loop.matched / loop.attempted, "frac"),
        "mean_fcr": (_quality_mean(loop, 0), "frac"),
        "selected_frac": (_quality_mean(loop, 1), "frac"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and no reference (self-test only)")
    parser.add_argument("--record-reference", action="store_true",
                        help="run every pool entry once and store its outputs "
                        "in bench/reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.tiny, args.out)
        return 0

    fc = _import_package()
    # Configure the root logger first so the CLI's basicConfig never binds a
    # handler to a redirected stream.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    counter = RefitCounter()
    logging.getLogger("fcrcluster.bootstrap").addHandler(counter)

    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.tiny)
    reference = {}
    ref_path = Path(__file__).resolve().parent / "reference.json"
    if not args.tiny and ref_path.is_file():
        reference = json.loads(ref_path.read_text()).get(args.workload, {})
    order = _order(workload, args.seed)
    loop = Loop(workload, fc, reference, order)

    if args.record_reference:
        for key in range(workload.pool_size):
            loop.run_one(key, key)
            print(f"pool entry {key}: {loop.digests[-1]}", file=sys.stderr)
        if loop.failures:
            print("\n".join(loop.failures), file=sys.stderr)
            return 1
        stored = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
        stored[args.workload] = loop.summaries
        ref_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return 0

    record = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
              "seconds": args.seconds, **_metadata(args.seed)}
    setup_times = _measure_setup(args)
    if args.trace == 0:
        loop.run_for(args.seconds)
        metrics = _end_to_end(loop, setup_times)
        failed = len(loop.failures)
        attempted = loop.attempted
    else:
        loop.run_for(args.seconds * TRACE_UNTRACED_SHARE)
        record.update(refit_retries=counter.retries, refit_fallbacks=counter.fallbacks)
        tracer = Tracer()
        traced = Loop(workload, fc, reference, order)
        counter.retries = counter.fallbacks = 0
        for i, key in enumerate(loop.keys):
            traced.run_one(i, key, tracer)
        same = traced.digests == loop.digests
        overhead = sum(traced.latencies) / sum(loop.latencies) - 1 if loop.latencies else 0.0
        values, absent = tracer.layer_metrics(
            traced.attempted, counter, traced.failed_reps, overhead
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        failed = len(loop.failures) + len(traced.failures) + (0 if same else 1)
        attempted = loop.attempted + traced.attempted
        record.update(
            traced_digests_match=same,
            traced_latencies_s=traced.latencies,
            absent_functions=absent,
            spans=len(tracer.spans),
        )
        _write_spans(tracer, args)

    load_after = os.getloadavg()[0]
    record.update(
        load_1min_after=load_after,
        loaded=max(record["load_1min_before"], load_after) > (os.cpu_count() or 1),
        setup_times_s=setup_times,
        op_samples=len(loop.latencies),
        latencies_s=loop.latencies,
        quality=loop.quality,
        mean_fcr_raw=_quality_mean(loop, 0, raw=True),
        selected_frac_raw=_quality_mean(loop, 1, raw=True),
        pool_keys=loop.keys,
        failures=loop.failures,
        ref_matched=loop.matched,
        harness_failed_replications=loop.failed_reps,
    )
    record.setdefault("refit_retries", counter.retries)
    record.setdefault("refit_fallbacks", counter.fallbacks)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _write_spans(tracer, args) -> None:
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-spans.csv"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write("op,name,parent,start,end\n")
        for op, name, parent, start, end in tracer.spans:
            fh.write(f"{op},{name},{parent},{start!r},{end!r}\n")


if __name__ == "__main__":
    sys.exit(main())
