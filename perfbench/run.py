#!/usr/bin/env python3
"""Benchmark for groupdet: four exact-scan workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; the package is used from ``src/``, not installed:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

``--trace 0`` runs the workload as a closed loop (one client, the next
operation starts when the previous one ends) for about ``--seconds`` and
prints the end-to-end metrics. ``--trace 1`` makes one traced run at jobs=1,
with its untraced twins, and prints the per-layer metrics; it does a fixed
amount of work and ignores ``--seconds``. Every output is checked against a
second path; a failed check counts as a failed operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the run's
record (provenance, per-operation samples, problems), which is also appended
to ``perfbench/results/runs.jsonl``. ``--quick`` runs every workload on tiny
inputs and checks the benchmark itself. perfbench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("scan", "scan_pruned", "verify", "factor")
GROUP = "4x2"  # scans search Z/4 x Z/2; verify covers H=4, l=1, the same group
GROUP_ORDER = 8
EVEN_EXPONENT = 8  # every even determinant of Z/4 x Z/2 is divisible by 2^8
SETUPS_PER_ROUND = 2  # set-up commands before each operation, and after the last
FACTOR_CHUNK_S = 5.0  # the factor loop runs in fresh processes of this many seconds
ENUMERATE_REPEATS = 3
OP_TIMEOUT_S = 170

E2E_UNITS = {
    "assignments_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
}
LAYER_UNITS = {
    "cli.self_s": "s",
    "determinant.build_us": "us",
    "determinant.bareiss_us": "us",
    "determinant.calls": "count",
    "search.self_s": "s",
    "search.evaluated": "count",
    "search.pruned_fraction": "fraction",
    "search.distinct": "count",
    "search.report_write_s": "s",
    "search.cpu_util": "fraction",
    "boxes.enumerate_s": "s",
    "divisibility.self_s": "s",
    "divisibility.bareiss_calls": "count",
    "factorization.character_sums_us": "us",
    "factorization.dedekind_us": "us",
    "factorization.direct_product_factors_us": "us",
    "factorization.laquer_us": "us",
    "cyclotomic.mul_calls": "count",
    "trace.overhead_frac": "fraction",
}
EXACT_COUNTERS = (
    "search.evaluated",
    "search.distinct",
    "determinant.calls",
    "divisibility.bareiss_calls",
    "cyclotomic.mul_calls",
)


@dataclass(frozen=True)
class Scale:
    box: int  # scans and verify cover [-box, box]^8
    factor_count: int  # assignments in a traced factor batch


FULL = Scale(box=2, factor_count=800)
QUICK = Scale(box=1, factor_count=40)


@dataclass
class Op:
    """One child.py run: wall and CPU time of its whole process tree, and what it reported."""

    wall_s: float
    cpu_s: float
    exit: int
    result: dict | None = None
    problem: str | None = None

    @property
    def stdout(self) -> str:
        return self.result["stdout"] if self.result else ""

    @property
    def main_s(self) -> float:
        """Wall time of cli.main inside the child, without interpreter start."""
        return self.result["wall_s"] if self.result else self.wall_s

    @property
    def peak_rss_kb(self) -> int:
        return self.result["peak_rss_kb"] if self.result else 0


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs and checks the operations of one workload in a temporary directory."""

    def __init__(self, work: Path, seed: int, scale: Scale) -> None:
        self.work = work
        self.seed = seed
        self.scale = scale
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}-{self._serial}.json"

    def child(self, mode: str, *args: str) -> Op:
        """Run child.py to completion in a new process group.

        The rusage from wait4 covers the child and every child it reaped.
        """
        result_path = self.path("child")
        argv = [sys.executable, str(CHILD), mode, str(result_path), *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, cwd=ROOT, env=self.env, start_new_session=True
        )
        timer = threading.Timer(OP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = _read_json(result_path)
        result_path.unlink(missing_ok=True)
        return Op(wall, usage.ru_utime + usage.ru_stime, proc.returncode, result)

    # --- box workloads: scan, scan_pruned, verify -------------------------------

    def box_argv(self, workload: str, box: int, report: Path) -> list[str]:
        if workload == "verify":
            return ["verify", "--suite", "theorem2", "--H", "4", "--l", "1", "--box", str(box)]
        argv = ["search", "--group", GROUP, "--box", str(box), "--out", str(report)]
        return argv + ["--prune"] if workload == "scan_pruned" else argv

    def box_op(self, workload: str, box: int, jobs1: bool = False, trace: bool = False) -> Op:
        """The groupdet command through cli.main, checked; default jobs unless jobs1."""
        report = self.path("report")
        argv = self.box_argv(workload, box, report) + (["--jobs", "1"] if jobs1 else [])
        op = self.child("cli", str(int(trace)), "--", *argv)
        op.problem = check_box_output(workload, box, op, report)
        report.unlink(missing_ok=True)
        return op

    def trace_box(self, workload: str) -> Outcome:
        box = self.scale.box
        base = self.box_op(workload, box)
        plain = self.box_op(workload, box, jobs1=True)
        traced = self.box_op(workload, box, jobs1=True, trace=True)
        ops = [base, plain, traced]
        counts = {"evaluated": 0, "distinct": 0}
        if workload != "verify" and traced.problem is None:
            counts = json.loads(traced.stdout)["counts"]
        metrics = layer_metrics(
            (traced.result or {}).get("trace", {"spans": [], "counts": {}}),
            evaluated=counts["evaluated"],
            distinct=counts["distinct"],
            points=box_points(box) if workload != "verify" else 0,
            cpu_util=base.cpu_s / (base.wall_s * (os.cpu_count() or 1)),
            enumerate_s=enumerate_seconds(box),
            overhead_frac=traced.main_s / plain.main_s - 1,
        )
        return _outcome(metrics, ops, {"op_wall_s": [op.wall_s for op in ops]})

    # --- factor workload --------------------------------------------------------

    def factor_setup(self) -> Op:
        """The dedekind command on one seeded assignment of Z/12."""
        rng = random.Random(self.seed)
        xs = ",".join(str(rng.randint(-3, 3)) for _ in range(12))
        op = self.child("cli", "0", "--", "dedekind", "--group", "12", f"--assign={xs}")
        if op.result is None or (_loads(op.stdout) or {}).get("match") is not True:
            op.problem = f"dedekind --group 12 --assign={xs}: {op.stdout[-200:]}"
        return op

    def factor_batch(self, seconds: float, count: int, trace: bool) -> Op:
        op = self.child("factor", str(int(trace)), str(self.seed), str(seconds), str(count))
        if op.result is None:
            raise RuntimeError(f"factor batch ended with exit {op.exit} and no result")
        return op

    def trace_factor(self) -> Outcome:
        n = self.scale.factor_count
        plain = self.factor_batch(0, n, trace=False).result
        traced = self.factor_batch(0, n, trace=True).result
        busy_plain = sum(plain["latency_ns"]) / 1e9
        metrics = layer_metrics(
            traced["trace"],
            evaluated=0,
            distinct=0,
            points=0,
            cpu_util=plain["cpu_s"] / busy_plain,
            enumerate_s=0.0,
            overhead_frac=sum(traced["latency_ns"]) / 1e9 / busy_plain - 1,
        )
        return Outcome(metrics, plain["ops"] + traced["ops"],
                       plain["failed"] + traced["failed"], plain["problems"] + traced["problems"])

    # --- the closed loop -------------------------------------------------------

    def measure_loop(self, workload: str, seconds: float) -> Outcome:
        """Rounds of set-up commands and one operation until the window ends.

        Host speed drifts over seconds, so set-up runs are spread over the
        whole window rather than taken in one burst at its start.
        """
        factor = workload == "factor"
        setup: list[Op] = []
        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            setup += [self.setup_op(workload) for _ in range(SETUPS_PER_ROUND)]
            if factor:
                ops.append(self.factor_batch(min(FACTOR_CHUNK_S, seconds), 0, trace=False))
            else:
                ops.append(self.box_op(workload, self.scale.box))
            # Start another round only if it should end inside the window.
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        setup += [self.setup_op(workload) for _ in range(SETUPS_PER_ROUND)]
        out = self.factor_metrics(ops) if factor else self.box_metrics(ops)
        out.metrics["setup_s"] = median(op.wall_s for op in setup)
        out.samples["setup_wall_s"] = [op.wall_s for op in setup]
        setup_problems = [op.problem for op in setup if op.problem is not None]
        out.attempted += len(setup)
        out.failed += len(setup_problems)
        out.problems = (setup_problems + out.problems)[:5]
        return out

    def setup_op(self, workload: str) -> Op:
        return self.factor_setup() if workload == "factor" else self.box_op(workload, 0)

    def box_metrics(self, ops: list[Op]) -> Outcome:
        walls = [op.wall_s for op in ops]
        good = sum(op.problem is None for op in ops)
        metrics = {
            "assignments_per_s": box_points(self.scale.box) * good / sum(walls),
            "cpu_s": sum(op.cpu_s for op in ops) / len(ops),
            "peak_rss_mb": max(op.peak_rss_kb for op in ops) / 1024,
            "latency_ms_p50": median(walls) * 1e3,
            "latency_ms_p99": percentile(walls, 0.99) * 1e3,
        }
        return _outcome(metrics, ops, {"op_wall_s": walls, "op_cpu_s": [op.cpu_s for op in ops]})

    @staticmethod
    def factor_metrics(chunks: list[Op]) -> Outcome:
        results = [op.result for op in chunks]
        lat_s = [ns / 1e9 for r in results for ns in r["latency_ns"]]
        failed = sum(r["failed"] for r in results)
        metrics = {
            "assignments_per_s": (len(lat_s) - failed) / sum(lat_s),
            "cpu_s": sum(r["cpu_s"] for r in results) / len(lat_s),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024,
            "latency_ms_p50": median(lat_s) * 1e3,
            "latency_ms_p99": percentile(lat_s, 0.99) * 1e3,
        }
        problems = [p for r in results for p in r["problems"]]
        return Outcome(metrics, len(lat_s), failed, problems[:5],
                       {"chunk_ops": [r["ops"] for r in results]})

    def measure(self, workload: str, seconds: float, trace: bool) -> Outcome:
        if not trace:
            return self.measure_loop(workload, seconds)
        return self.trace_factor() if workload == "factor" else self.trace_box(workload)


def box_points(box: int) -> int:
    return (2 * box + 1) ** GROUP_ORDER


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _loads(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _outcome(metrics: dict, ops: list[Op], samples: dict) -> Outcome:
    problems = [op.problem for op in ops if op.problem is not None]
    return Outcome(metrics, len(ops), len(problems), problems[:5], samples)


def reference_digest(box: int) -> str | None:
    """Digest of the unpruned scan's value list at this box, from reference.json."""
    table = json.loads((HERE / "reference.json").read_text())
    return table["values_sha256"].get(str(box))


def values_digest(values: list) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


def check_box_output(workload: str, box: int, op: Op, report: Path) -> str | None:
    """Why a scan or verify output is wrong, or None. Checks use paths other
    than the one that produced the output: the closed-form Z4Z2 value set, the
    character product for each witness, and the unpruned scan's digest."""
    from groupdet.factorization import dedekind_product
    from groupdet.groups import parse_group_spec

    if op.result is None:
        return f"{workload} box {box}: child exit {op.exit} without a result"
    if op.result["exit"] != 0:
        return f"{workload} box {box}: exit {op.result['exit']}: {op.stdout[-200:]}"
    # Any exception while reading the output is a failed check, not a crash.
    try:
        payload = json.loads(op.stdout)
        points = box_points(box)
        if workload == "verify":
            expected = {"status": "pass", "bound_exponent": EVEN_EXPONENT,
                        "assignments_checked": points, "failures": []}
            got = {k: payload.get(k) for k in expected}
            return None if got == expected else f"verify box {box}: {got}"
        data = json.loads(report.read_text())
        if workload == "scan" and data["counts"]["evaluated"] != points:
            return f"scan evaluated {data['counts']['evaluated']} of {points} points"
        group = parse_group_spec(GROUP)
        for row in data["values"]:
            v, w = int(row["v"]), tuple(row["witness"])
            if not (v % 8 == 1 or v % 256 == 0):
                return f"{v} is outside the Z4Z2 value set {{8m+1}} u {{2^8 m}}"
            if v % 2 == 0 and v % (1 << EVEN_EXPONENT):
                return f"even value {v} is not divisible by 2^{EVEN_EXPONENT}"
            if len(w) != GROUP_ORDER or max(map(abs, w)) > box or dedekind_product(group, w) != v:
                return f"witness {w} does not give {v}"
        if values_digest(data["values"]) != reference_digest(box):
            return f"{workload} box {box}: values or witnesses differ from the unpruned scan's"
    except Exception as exc:
        return f"{workload} box {box}: {type(exc).__name__}: {exc}"
    return None


def enumerate_seconds(box: int) -> float:
    """Median time to drain iter_box over the scanned box."""
    from groupdet.boxes import iter_box

    times = []
    for _ in range(ENUMERATE_REPEATS):
        t0 = time.perf_counter()
        for _ in iter_box(GROUP_ORDER, box):
            pass
        times.append(time.perf_counter() - t0)
    return median(times)


def layer_metrics(trace: dict, *, evaluated: int, distinct: int, points: int,
                  cpu_util: float, enumerate_s: float, overhead_frac: float) -> dict:
    spans = trace["spans"]

    def total(key: str, name: str | None = None, parent: str | None = None) -> int:
        return sum(s[key] for s in spans
                   if name in (None, s["name"]) and parent in (None, s["parent"]))

    def mean_us(name: str) -> float:
        calls = total("calls", name)
        return total("ns", name) / calls / 1e3 if calls else 0.0

    def self_s(name: str) -> float:
        return (total("ns", name) - total("ns", parent=name)) / 1e9

    return {
        "cli.self_s": self_s("cli.main"),
        "determinant.build_us": mean_us("determinant.build"),
        "determinant.bareiss_us": mean_us("determinant.bareiss"),
        "determinant.calls": total("calls", "determinant.bareiss"),
        "search.self_s": self_s("search.search_values"),
        "search.evaluated": evaluated,
        "search.pruned_fraction": 1 - evaluated / points if points else 0.0,
        "search.distinct": distinct,
        "search.report_write_s": total("ns", "search.report_write") / 1e9,
        "search.cpu_util": cpu_util,
        "boxes.enumerate_s": enumerate_s,
        "divisibility.self_s": self_s("divisibility.suite"),
        "divisibility.bareiss_calls": total("calls", "determinant.bareiss", "divisibility.suite"),
        "factorization.character_sums_us": mean_us("factorization.character_sums"),
        "factorization.dedekind_us": mean_us("factorization.dedekind"),
        "factorization.direct_product_factors_us": mean_us("factorization.direct_product_factors"),
        "factorization.laquer_us": mean_us("factorization.laquer"),
        "cyclotomic.mul_calls": trace["counts"].get("cyclotomic.mul", 0),
        "trace.overhead_frac": overhead_frac,
    }


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import groupdet

    cpu_model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if commit else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "groupdet_version": groupdet.__version__,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    """One benchmark run: the contract's result object, with the run's record."""
    record = {"provenance": provenance(workload, seed, seconds, trace)}
    (HERE / "tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "tmp"))
    try:
        out = Runner(work, seed, scale).measure(workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": u} for name, u in units.items()},
    }
    record["provenance"]["loadavg_end"] = list(os.getloadavg())
    record.update(problems=out.problems, samples=out.samples, result=result)
    (HERE / "results").mkdir(exist_ok=True)
    with open(HERE / "results" / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("provenance", "problems")}))
    return result


def quick() -> int:
    """Every workload on tiny inputs: outputs correct, metric names and units as
    in BENCHMARK.json, and the exact counters equal across two seeds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        counters = []
        for seed, trace in ((1, False), (1, True), (2, True)):
            result = run_workload(workload, seed, 1.0, trace, QUICK)
            metrics = result["metrics"]
            units = {name: m["unit"] for name, m in metrics.items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
            if units != want[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics differ from the spec")
            if trace:
                counters.append({k: metrics[k]["value"] for k in EXACT_COUNTERS})
            print(json.dumps({"workload": workload, "trace": int(trace),
                              "metrics": {k: m["value"] for k, m in metrics.items()}}))
        if counters[0] != counters[1]:
            problems.append(f"{workload}: counters differ between seeds: {counters}")
    print(json.dumps({"quick": "pass" if not problems else "fail", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload on tiny inputs and check the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "groupdet" / "cli.py").is_file():
        print(f"perfbench: no groupdet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
