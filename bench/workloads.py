"""Seeded inputs, operations and output checks for the three workloads.

One operation is one user-level ``fcrcluster`` command (or, for
``fit_large``, a fit -> cluster -> oracle-curve chain) on a fresh dataset.
Each workload has a fixed pool of input streams spawned from its own root
``SeedSequence``; the run seed only picks the order in which a run visits
the pool.  That keeps every input reproducible from the seed while letting
``reference.json`` hold the recorded outputs of every pool entry.

Data are generated here with numpy directly, never with the package's own
samplers, so the inputs do not change when the package does.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Full-size settings; ``tiny`` variants serve the fast self-test only.
CALIBRATE = {"n": 1000, "b": 20, "alpha": 0.1}
CALIBRATE_TINY = {"n": 200, "b": 2, "alpha": 0.1}
FIT_LARGE = {"n": 20_000, "starts": 4, "mc_size": 1_000_000, "alpha": 0.1}
FIT_LARGE_TINY = {"n": 1000, "starts": 1, "mc_size": 20_000, "alpha": 0.1}
SIMULATE = {"n": 200, "reps": 4, "alphas": [0.05, 0.1], "b": 30}
SIMULATE_TINY = {"n": 60, "reps": 1, "alphas": [0.1], "b": 2}

PROCEDURES = ["oracle", "plugin", "boot_param", "boot_nonparam", "fixed"]


class CheckFailed(Exception):
    """An operation's outputs violate an invariant that must always hold."""


@dataclass
class Op:
    """One prepared operation: its command lines and what scoring needs."""

    key: int
    workdir: Path
    argvs: list[list[str]]
    truth: np.ndarray | None = None
    data: np.ndarray | None = None
    stdout: list[str] = field(default_factory=list)
    failed_replications: int = 0


@dataclass
class Outcome:
    """Checked outputs of one operation.

    ``summary`` is compared against the reference: its ``exact`` entries
    must be equal, its ``approx`` float lists agree within 1e-9 relative.
    """

    summary: dict
    fcr: float
    selected_frac: float


# --- input generation ----------------------------------------------------------

def _streams(workload: str, pool_size: int) -> list[np.random.SeedSequence]:
    root = np.random.SeedSequence(
        int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8], "little")
    )
    return root.spawn(pool_size)


def _write_csv(x: np.ndarray, path: Path) -> None:
    header = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")


def _two_gaussians(rng: np.random.Generator, n: int):
    """Two unit Gaussians in d=2 at mean separation sqrt(2)."""
    means = np.array([[0.0, 0.0], [1.0, 1.0]])
    z = rng.integers(0, 2, size=n)
    return z, means[z] + rng.standard_normal((n, 2))


def _typical_student(rng: np.random.Generator, n: int, dof: float = 4.0):
    """The ``typical`` q=3, d=4 layout at separation 2, Student-t(4) noise."""
    means = np.zeros((3, 4))
    means[1] = 1.0  # separation 2 spread over d=4 coordinates
    means[2, 1] = math.sqrt(2.0)
    z = rng.integers(0, 3, size=n)
    scale = np.sqrt(dof / rng.chisquare(dof, size=n))
    return z, means[z] + rng.standard_normal((n, 4)) * scale[:, None]


# --- scoring and parsing ---------------------------------------------------------

def score(truth: np.ndarray, labels: np.ndarray, selected: np.ndarray, q: int):
    """Sample FCR of a selection after the best relabelling, and selected share."""
    k = int(selected.size)
    if k == 0:
        return 0.0, 0.0
    confusion = np.zeros((q, q), dtype=np.int64)
    np.add.at(confusion, (truth[selected], labels[selected]), 1)
    best = max(
        int(confusion[np.asarray(p), np.arange(q)].sum())
        for p in itertools.permutations(range(q))
    )
    return (k - best) / k, k / truth.size


def _digest(values) -> str:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name}: empty")
    return rows[0], rows[1:]


def _read_labels(path: Path, n: int, q: int):
    header, rows = _read_table(path)
    if header != ["item_index", "map_label", "selected", "t_value"]:
        raise CheckFailed(f"{path.name}: unexpected header {header}")
    arr = np.array(rows, dtype=float)
    if arr.shape != (n, 4) or not np.array_equal(arr[:, 0], np.arange(n)):
        raise CheckFailed(f"{path.name}: expected {n} indexed rows")
    labels = arr[:, 1].astype(np.int64)
    chosen = arr[:, 2]
    t = arr[:, 3]
    if labels.min() < 0 or labels.max() > q - 1:
        raise CheckFailed(f"{path.name}: label outside 0..{q - 1}")
    if not np.all((chosen == 0) | (chosen == 1)):
        raise CheckFailed(f"{path.name}: selected flag not 0/1")
    if not np.all(np.isfinite(t)) or t.min() < 0 or t.max() > 1 - 1 / q + 1e-12:
        raise CheckFailed(f"{path.name}: t_value outside [0, 1-1/Q]")
    return labels, np.flatnonzero(chosen == 1), t


def _check_level(selected: np.ndarray, t: np.ndarray, level: float, what: str):
    if selected.size and float(t[selected].mean()) > level + 1e-12:
        raise CheckFailed(f"{what}: selected mean t_value exceeds level {level}")


def _loglik(fc, params_path: Path, x: np.ndarray, q: int) -> float:
    params = fc.mixtures.load_mixture_json(params_path)
    if params.q != q:
        raise CheckFailed(f"{params_path.name}: q={params.q}, expected {q}")
    ll = fc.mixtures.mixture_loglik(params, x)
    if not math.isfinite(ll):
        raise CheckFailed(f"{params_path.name}: log-likelihood not finite")
    return ll


# --- the workloads ---------------------------------------------------------------

class Workload:
    """A named pool of seeded operations with their output checks."""

    name = ""
    pool_size = 0

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.streams = _streams(self.name, self.pool_size)

    def prepare(self, key: int, workdir: Path) -> Op:
        raise NotImplementedError

    def check(self, op: Op, fc) -> Outcome:
        raise NotImplementedError


class Calibrate(Workload):
    """``fcrcluster calibrate``: multi-start fit plus B bootstrap refits."""

    name = "calibrate"
    pool_size = 32

    def prepare(self, key, workdir):
        s = CALIBRATE_TINY if self.tiny else CALIBRATE
        rng = np.random.default_rng(self.streams[key])
        z, x = _two_gaussians(rng, s["n"])
        workdir.mkdir(parents=True, exist_ok=True)
        _write_csv(x, workdir / "data.csv")
        argv = [
            "calibrate", "--data", str(workdir / "data.csv"), "--q", "2",
            "--alpha", str(s["alpha"]), "--mode", "parametric",
            "--b", str(s["b"]), "--structure", "diagonal",
            "--seed", str(int(rng.integers(2**31))), "--out", str(workdir / "out"),
        ]
        return Op(key=key, workdir=workdir, argvs=[argv], truth=z, data=x)

    def check(self, op, fc):
        alpha = CALIBRATE["alpha"]
        out = op.workdir / "out"
        n = op.truth.size
        labels, selected, t = _read_labels(out / "labels.csv", n, 2)
        header, rows = _read_table(out / "curve.csv")
        curve = np.array(rows, dtype=float)
        if header != ["level", "fcr_hat"] or curve.ndim != 2 or not np.all(
            np.isfinite(curve)
        ):
            raise CheckFailed("curve.csv: malformed")
        levels, fcr_hat = curve[:, 0], curve[:, 1]
        report = dict(
            line.split(": ", 1) for line in (out / "report.txt").read_text().splitlines()
        )
        chosen_text = report["chosen working level"].split(" ")[0]
        if chosen_text == "none":
            chosen = -1
            if selected.size:
                raise CheckFailed("no admissible level, yet items are selected")
        else:
            matches = [i for i, lv in enumerate(levels) if f"{lv:.6g}" == chosen_text]
            if not matches:
                raise CheckFailed(f"chosen level {chosen_text} is not on the grid")
            chosen = matches[0]
            if fcr_hat[chosen] > alpha:
                raise CheckFailed("chosen level is not admissible")
            _check_level(selected, t, float(levels[chosen]), "calibrate")
        if report["selected"] != f"{selected.size}/{n}":
            raise CheckFailed("report.txt disagrees with labels.csv")
        loglik = _loglik(fc, out / "params.json", op.data, 2)
        fcr, frac = score(op.truth, labels, selected, 2)
        summary = {
            "exact": {
                "labels": _digest(labels),
                "selected": _digest(selected),
                "chosen": chosen,
            },
            "approx": {"loglik": [loglik], "fcr_hat": fcr_hat.tolist()},
        }
        return Outcome(summary=summary, fcr=fcr, selected_frac=frac)


class FitLarge(Workload):
    """``fit`` -> ``cluster`` -> ``oracle-curve`` on a large Student-t sample."""

    name = "fit_large"
    pool_size = 16

    def prepare(self, key, workdir):
        s = FIT_LARGE_TINY if self.tiny else FIT_LARGE
        rng = np.random.default_rng(self.streams[key])
        z, x = _typical_student(rng, s["n"])
        seed = str(int(rng.integers(2**31)))
        workdir.mkdir(parents=True, exist_ok=True)
        data = str(workdir / "data.csv")
        params = str(workdir / "params.json")
        _write_csv(x, workdir / "data.csv")
        argvs = [
            ["fit", "--data", data, "--q", "3", "--family", "student",
             "--structure", "full", "--starts", str(s["starts"]), "--seed", seed,
             "--out", params],
            ["cluster", "--data", data, "--params", params,
             "--alpha", str(s["alpha"]), "--out", str(workdir / "labels.csv")],
            ["oracle-curve", "--params", params, "--alpha", str(s["alpha"]),
             "--mc-size", str(s["mc_size"]), "--seed", seed,
             "--out", str(workdir / "oracle.csv")],
        ]
        return Op(key=key, workdir=workdir, argvs=argvs, truth=z, data=x)

    def check(self, op, fc):
        alpha = FIT_LARGE["alpha"]
        n = op.truth.size
        loglik = _loglik(fc, op.workdir / "params.json", op.data, 3)
        labels, selected, t = _read_labels(op.workdir / "labels.csv", n, 3)
        _check_level(selected, t, alpha, "cluster")
        header, rows = _read_table(op.workdir / "oracle.csv")
        curve = np.array(rows, dtype=float)
        if header != ["t", "mfcr", "se", "mc_size"] or not np.all(np.isfinite(curve)):
            raise CheckFailed("oracle.csv: malformed")
        mfcr = curve[:, 1]
        if mfcr.min() < 0 or mfcr.max() > 1:
            raise CheckFailed("oracle.csv: mfcr outside [0, 1]")
        oracle_line = op.stdout[2].strip().splitlines()[-1]
        fields = dict(item.split("=", 1) for item in oracle_line.split())
        t_star = float(fields["t_star"])
        if not math.isfinite(t_star):
            raise CheckFailed("oracle-curve: t_star not finite")
        fcr, frac = score(op.truth, labels, selected, 3)
        summary = {
            "exact": {"labels": _digest(labels), "selected": _digest(selected)},
            "approx": {"loglik": [loglik], "t_star": [t_star], "mfcr": mfcr.tolist()},
        }
        return Outcome(summary=summary, fcr=fcr, selected_frac=frac)


class Simulate(Workload):
    """``fcrcluster simulate`` on a small JSON scenario with all procedures."""

    name = "simulate"
    pool_size = 16

    def prepare(self, key, workdir):
        s = SIMULATE_TINY if self.tiny else SIMULATE
        rng = np.random.default_rng(self.streams[key])
        scenario = {
            "name": "bench",
            "generator": {"family": "gaussian_separation", "q": 3, "d": 2,
                          "epsilon": math.sqrt(2.0)},
            "n": s["n"],
            "reps": s["reps"],
            "procedures": PROCEDURES,
            "sweep": {"kind": "alpha", "values": s["alphas"]},
            "alpha": 0.1,
            "em": {"family": "gaussian", "structure": "diagonal", "max_iter": 100,
                   "n_starts": 2},
            "boot": {"b": s["b"], "refit": {"warm_start": 10}},
            "seed": int(rng.integers(2**31)),
        }
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "scenario.json").write_text(json.dumps(scenario, indent=2) + "\n")
        argv = ["simulate", "--scenario", str(workdir / "scenario.json"),
                "--out", str(workdir / "out")]
        return Op(key=key, workdir=workdir, argvs=[argv])

    def check(self, op, fc):
        s = SIMULATE_TINY if self.tiny else SIMULATE
        out = op.workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        failed = manifest["failed_replications"]
        op.failed_replications = len(failed)
        if failed:
            raise CheckFailed(f"simulate: {len(failed)} failed replications")
        header, rows = _read_table(out / "details.csv")
        if header[3:] != ["procedure", "fcr", "selection_frequency", "n_selected"]:
            raise CheckFailed(f"details.csv: unexpected header {header}")
        if len(rows) != len(PROCEDURES) * len(s["alphas"]) * s["reps"]:
            raise CheckFailed(f"details.csv: {len(rows)} rows")
        fcr = np.array([float(r[4]) for r in rows])
        sel = np.array([float(r[5]) for r in rows])
        n_selected = [int(r[6]) for r in rows]
        if not (np.all((fcr >= 0) & (fcr <= 1)) and np.all((sel >= 0) & (sel <= 1))):
            raise CheckFailed("details.csv: fcr or selection frequency outside [0, 1]")
        for name in ("results.csv", "bench_sweep.svg"):
            if not (out / name).is_file():
                raise CheckFailed(f"simulate: {name} missing")
        summary = {
            "exact": {"n_selected": n_selected},
            "approx": {"fcr": fcr.tolist()},
        }
        return Outcome(
            summary=summary,
            fcr=float(fcr.mean()),
            selected_frac=float(sel.mean()),
        )


WORKLOADS = {w.name: w for w in (Calibrate, FitLarge, Simulate)}


# --- running and comparing ---------------------------------------------------------

def run_op(op: Op, cli_main) -> None:
    """Run the operation's commands in process; raise on a nonzero exit."""
    for argv in op.argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli_main(argv)
        op.stdout.append(buf.getvalue())
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited {code}: {buf.getvalue().strip()[-300:]}")


def summary_digest(summary: dict) -> str:
    """Bit-exact digest of a summary (used for traced vs untraced runs)."""
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def matches_reference(summary: dict, ref: dict | None) -> bool:
    """Exact fields equal and float lists within 1e-9 relative."""
    if ref is None or summary["exact"] != ref["exact"]:
        return False
    if summary["approx"].keys() != ref["approx"].keys():
        return False
    for name, values in summary["approx"].items():
        expected = ref["approx"][name]
        if len(values) != len(expected):
            return False
        if not all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(values, expected)):
            return False
    return True
