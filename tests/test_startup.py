"""What a command loads at start-up, and the attributes the benchmark tracer
patches."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import groupdet
from groupdet import cli, divisibility

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(groupdet.__file__).resolve().parent.parent

# Run in a fresh interpreter: the modules groupdet adds to those the
# interpreter had loaded before it, after importing the CLI and after each
# command.
PROBE = """
import contextlib, io, json, sys
heavy = ("dataclasses", "multiprocessing")
before = {m for m in heavy if m in sys.modules}
import groupdet.cli
loaded = {"import": sorted(m for m in heavy if m in sys.modules and m not in before)}
for name, argv in [
    ("search", ["search", "--group", "4x2", "--box", "0", "--out", sys.argv[1]]),
    ("verify", ["verify", "--suite", "theorem2", "--H", "4", "--l", "1", "--box", "0"]),
]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = groupdet.cli.main(argv)
    assert code == 0 and json.loads(out.getvalue()), (name, code)
    loaded[name] = sorted(m for m in heavy if m in sys.modules and m not in before)
print(json.dumps(loaded))
"""


def test_cli_start_up_loads_neither_dataclasses_nor_multiprocessing(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "r.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "search": [], "verify": []}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_exist_and_install_cleanly():
    tracer = load_tracer()
    hooks = [(cli, "run_divisibility_suite"), (divisibility, "bareiss_det")]
    hooks += [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.COUNTERS]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in hooks
               if not hasattr(owner, attr)]
    assert not missing
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in hooks]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        with t.paused():
            assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
        assert cli.main(["dedekind", "--group", "4", "--assign", "1,2,0,1"]) == 0
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert t.records()["spans"]
