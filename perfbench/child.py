"""One measured operation batch in a fresh interpreter, started by run.py.

    python3 perfbench/child.py cli RESULT TRACE -- <groupdet arguments>
    python3 perfbench/child.py factor RESULT TRACE SEED SECONDS COUNT

``cli`` runs ``groupdet.cli.main`` once in this process, as the ``groupdet``
console script does. ``factor`` runs the
factor batch as a closed loop, for SECONDS of wall time, or for exactly COUNT
assignments when COUNT is positive, and checks every result between
operations, outside the timed region. TRACE is 1 to install the tracer. The
outcome is written to RESULT as one JSON object, with the peak resident
memory of this process and its reaped children.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from groupdet import cli, determinant, factorization  # noqa: E402
from groupdet.groups import parse_group_spec, split_factors  # noqa: E402

# The factor batch cycles through these commands in this order, so the mix of
# shapes in a run does not depend on the seed; the seed draws the values.
FACTOR_MIX = (
    ("dedekind", "6"),
    ("dedekind", "8"),
    ("dedekind", "12"),
    ("factor", "4x2", 1),
    ("factor", "3x3", 1),
    ("factor", "2x2x3", 2),
    ("factor", "4x4", 1),
    ("laquer", 3, 5),
)
FACTOR_ENTRY_BOUND = 3


def _factor_inputs(seed: int):
    """Endless seeded stream of (command, group argument, assignment)."""
    rng = random.Random(seed)
    prepared = []
    for kind, *spec in FACTOR_MIX:
        if kind == "dedekind":
            group = parse_group_spec(spec[0])
            prepared.append((kind, group, group.order))
        elif kind == "factor":
            group = parse_group_spec(spec[0])
            prepared.append((kind, split_factors(group, spec[1]), group.order))
        else:
            prepared.append((kind, tuple(spec), spec[0] * spec[1]))
    while True:
        for kind, arg, size in prepared:
            yield kind, arg, tuple(
                rng.randint(-FACTOR_ENTRY_BOUND, FACTOR_ENTRY_BOUND) for _ in range(size)
            )


def _call(kind: str, arg, xs):
    if kind == "dedekind":
        return factorization.dedekind_product(arg, xs)
    if kind == "factor":
        return factorization.direct_product_factors(*arg, xs)
    return factorization.laquer_factors(*arg, xs)


def _check(kind: str, arg, xs, out) -> str | None:
    """A problem with one result, or None; dedekind is checked against the matrix path."""
    if kind == "dedekind":
        direct = determinant.group_determinant(arg, xs)
        return None if out == direct else f"dedekind_product {out} != {direct} at {arg} {xs}"
    return None if out.match else f"{kind} mismatch: {out.split} at {xs}"


def peak_rss_kb() -> int:
    """Peak RSS in KiB of this process since exec (VmHWM) and of its reaped children.

    ru_maxrss of this process would also count the image of the parent it was
    forked from, before exec.
    """
    hwm = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_factor(tracer: Tracer | None, seed: int, seconds: float, count: int) -> dict:
    latency_ns = array("q")
    problems: list[str] = []
    failed = 0
    cpu_ns = 0
    checks = tracer.paused if tracer else contextlib.nullcontext
    inputs = _factor_inputs(seed)
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    deadline = clock() + int(seconds * 1e9)
    start = clock()
    while (len(latency_ns) < count) if count > 0 else (clock() < deadline):
        kind, arg, xs = next(inputs)
        c0 = cpu_clock()
        t0 = clock()
        # Any exception is a failed operation: the loop must keep running and count it.
        try:
            out = _call(kind, arg, xs)
            problem = None
        except Exception as exc:
            out, problem = None, f"{type(exc).__name__}: {exc}"
        latency_ns.append(clock() - t0)
        cpu_ns += cpu_clock() - c0
        if problem is None:
            with checks():
                try:
                    problem = _check(kind, arg, xs, out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(problem)
    peak = peak_rss_kb()
    return {
        "peak_rss_kb": peak,
        "ops": len(latency_ns),
        "failed": failed,
        "problems": problems,
        "wall_s": (clock() - start) / 1e9,
        "cpu_s": cpu_ns / 1e9,
        "latency_ns": latency_ns.tolist(),
    }


def run_cli(tracer: Tracer | None, argv: list[str]) -> dict:
    main = tracer.span("cli.main", cli.main) if tracer else cli.main
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    wall = time.perf_counter() - t0
    return {"exit": code, "wall_s": wall, "stdout": out.getvalue(), "peak_rss_kb": peak_rss_kb()}


def main(argv: list[str]) -> int:
    mode, result_path, trace = argv[0], Path(argv[1]), argv[2] == "1"
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "cli":
        result = run_cli(tracer, argv[argv.index("--") + 1:])
    else:
        seed, seconds, count = int(argv[3]), float(argv[4]), int(argv[5])
        result = run_factor(tracer, seed, seconds, count)
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.records()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
