"""What the package and each command load at start-up, and the attributes the
benchmark tracer patches."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupdet
from groupdet import cli, divisibility, search

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


def run_probe(script: str, *args: str):
    """The JSON that script prints, run in a fresh interpreter on the package under src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_start_up_loads_neither_dataclasses_nor_multiprocessing(tmp_path):
    assert run_probe(PROBE, str(tmp_path / "r.json")) == {"import": [], "search": [],
                                                           "verify": []}


# Run in a fresh interpreter: the groupdet submodules loaded by `import
# groupdet`, then by one command through cli.main.
MODULES_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m.removeprefix("groupdet.") for m in sys.modules if m.startswith("groupdet."))
import groupdet
result = {"import": loaded()}
if len(sys.argv) > 1:
    import groupdet.cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = groupdet.cli.main(sys.argv[1:])
    assert code == 0 and json.loads(out.getvalue()), code
    result["command"] = loaded()
print(json.dumps(result))
"""

ENGINE = {"boxes", "norms", "search", "divisibility"}


def test_importing_the_package_loads_no_submodule():
    assert run_probe(MODULES_PROBE) == {"import": []}


def test_det_loads_only_the_cli_the_matrix_and_the_group():
    loaded = run_probe(MODULES_PROBE, "det", "--group", "4", "--assign", "1,2,0,1")
    assert loaded == {"import": [], "command": ["cli", "determinant", "groups"]}


@pytest.mark.parametrize("argv", [
    ["dedekind", "--group", "12", "--assign", "1,2,0,-1,3,0,0,1,2,1,0,-2"],
    ["factor", "--group", "4x2", "--cut", "1", "--assign", "1,2,0,1,0,0,1,0"],
    ["laquer", "--r", "3", "--s", "5", "--assign", "1,2,0,-1,3,0,0,1,2,1,0,-2,1,1,0"],
], ids=lambda argv: argv[0])
def test_character_product_commands_load_no_box_engine(argv):
    loaded = run_probe(MODULES_PROBE, *argv)["command"]
    assert "factorization" in loaded and not ENGINE & set(loaded)


def test_search_loads_no_suite_and_verify_no_search(tmp_path):
    search = run_probe(MODULES_PROBE, "search", "--group", "4x2", "--box", "0",
                       "--out", str(tmp_path / "r.json"))["command"]
    assert "search" in search and "divisibility" not in search
    verify = run_probe(MODULES_PROBE, "verify", "--suite", "theorem2", "--H", "4", "--l", "1",
                       "--box", "0")["command"]
    assert "divisibility" in verify and "search" not in verify


EXPORTS_PROBE = """
import json, groupdet
names = {name: type(getattr(groupdet, name)).__name__ for name in groupdet.__all__}
try:
    groupdet.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from groupdet import *", star)
print(json.dumps({"names": names, "unknown": unknown, "dir": sorted(dir(groupdet)),
                  "star": sorted(set(star) - {"__builtins__"})}))
"""


def test_every_export_resolves_on_first_use():
    out = run_probe(EXPORTS_PROBE)
    assert len(out["names"]) == len(set(groupdet.__all__)) > 50
    assert out["unknown"] == "module 'groupdet' has no attribute 'no_such_name'"
    assert out["star"] == sorted(groupdet.__all__)
    assert set(groupdet.__all__) <= set(out["dir"])
    # the same objects as the defining modules'
    assert groupdet.two_adic_valuation is divisibility.two_adic_valuation
    assert groupdet.search_values is search.search_values


# Run in a fresh interpreter: patch the three cli names the tracer and tests
# patch, run a command for each, and list which stubs ran and whether the
# modules they stand for were loaded.
PATCH_PROBE = """
import contextlib, io, json, sys, types
from groupdet import cli
calls = []
def stub(name, result):
    def fn(*args, **kwargs):
        calls.append(name)
        return result
    return fn
report = types.SimpleNamespace(save=lambda path: None, evaluated=5, distinct=1,
                               min_even_valuation=None)
cli.group_determinant = stub("group_determinant", 7)
cli.search_values = stub("search_values", report)
cli.run_divisibility_suite = stub("run_divisibility_suite", {"status": "pass"})
outs = []
for argv in (["det", "--group", "2", "--assign", "1,0"],
             ["search", "--group", "2", "--box", "0", "--out", "unused.json"],
             ["verify", "--suite", "theorem2", "--H", "2", "--l", "1", "--box", "0"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    outs.append([code, json.loads(out.getvalue())])
print(json.dumps({"calls": calls, "outs": outs,
                  "loaded": [m in sys.modules for m in ("groupdet.search", "groupdet.divisibility")]}))
"""


def test_patching_the_cli_names_changes_what_main_calls():
    out = run_probe(PATCH_PROBE)
    assert out["calls"] == ["group_determinant", "search_values", "run_divisibility_suite"]
    (det_code, det), (search_code, found), (verify_code, suite) = out["outs"]
    assert det_code == search_code == verify_code == 0
    assert det["det"] == "7" and found["counts"] == {"evaluated": 5, "distinct": 1}
    assert suite == {"status": "pass"}
    # the stubs stand in for their modules, which no command loaded
    assert out["loaded"] == [False, False]


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
