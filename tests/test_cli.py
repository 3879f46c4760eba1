"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from groupdet.cli import main
from groupdet.determinant import ensure_tables


def run_cli(capsys, *argv):
    """Run the CLI in-process and return (exit_code, parsed_json)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_det_product_group(capsys):
    code, payload = run_cli(capsys, "det", "--group", "2x2", "--assign", "2,0,0,0")
    assert code == 0
    assert payload["status"] == "value"
    assert payload["group"] == "2x2"
    assert payload["det"] == "16"


def test_det_cyclic(capsys):
    code, payload = run_cli(capsys, "det", "--group", "2", "--assign", "7,5")
    assert code == 0
    assert payload["det"] == "24"


def test_det_big_value_is_decimal_string(capsys):
    code, payload = run_cli(capsys, "det", "--group", "4", "--assign", "1000,0,0,0")
    assert code == 0
    assert payload["det"] == str(1000**4)


def test_det_bad_assignment_text(capsys):
    code, payload = run_cli(capsys, "det", "--group", "2", "--assign", "1,x")
    assert code == 2
    assert payload["status"] == "error"
    assert "assignment" in payload["message"]


def test_det_wrong_length(capsys):
    code, payload = run_cli(capsys, "det", "--group", "2x2", "--assign", "1,2,3")
    assert code == 2
    assert payload["status"] == "error"


def test_det_bad_group_spec(capsys):
    code, payload = run_cli(capsys, "det", "--group", "2x0", "--assign", "1,2")
    assert code == 2
    assert payload["status"] == "error"


def test_dedekind_matches_direct(capsys):
    code, payload = run_cli(capsys, "dedekind", "--group", "2", "--assign", "3,1")
    assert code == 0
    assert payload["status"] == "value"
    assert payload["det"] == "8"
    assert payload["direct_det"] == "8"
    assert payload["match"] is True


def test_dedekind_cyclotomic_group(capsys):
    code, payload = run_cli(capsys, "dedekind", "--group", "3", "--assign", "1,3,2")
    assert code == 0
    assert payload["det"] == "18"
    assert payload["match"] is True


def test_factor_integer_split(capsys):
    code, payload = run_cli(
        capsys, "factor", "--group", "2x2", "--cut", "1", "--assign", "2,0,0,0"
    )
    assert code == 0
    assert payload["status"] == "value"
    assert payload["factors"] == ["4", "4"]
    assert payload["product"] == "16"
    assert payload["direct_det"] == "16"
    assert payload["match"] is True


def test_factor_bad_cut(capsys):
    code, payload = run_cli(
        capsys, "factor", "--group", "2x2", "--cut", "2", "--assign", "2,0,0,0"
    )
    assert code == 2
    assert payload["status"] == "error"


def test_laquer_unit(capsys):
    code, payload = run_cli(
        capsys, "laquer", "--r", "3", "--s", "2", "--assign", "1,0,0,0,0,0"
    )
    assert code == 0
    assert payload["status"] == "value"
    assert payload["factors"] == ["1", "1"]
    assert payload["product"] == "1"
    assert payload["match"] is True


def test_laquer_frozen_example(capsys):
    code, payload = run_cli(
        capsys, "laquer", "--r", "3", "--s", "2", "--assign", "1,2,3,4,5,6"
    )
    assert code == 0
    assert payload["factors"] == ["252", "-108"]
    assert payload["product"] == "-27216"


def test_laquer_rejects_common_factor(capsys):
    code, payload = run_cli(capsys, "laquer", "--r", "2", "--s", "4",
                            "--assign", "1,0,0,0,0,0,0,0")
    assert code == 2
    assert payload["status"] == "error"


def test_verify_suite_passes(capsys):
    code, payload = run_cli(
        capsys, "verify", "--suite", "theorem2", "--H", "2", "--l", "1",
        "--box", "2", "--jobs", "1",
    )
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["group"] == "2x2"
    assert payload["assignments_checked"] == 625
    assert payload["bound_exponent"] == 4
    assert payload["min_even_valuation"] == 4
    assert payload["failures"] == []


def test_verify_unknown_suite(capsys):
    code, payload = run_cli(
        capsys, "verify", "--suite", "theorem9", "--H", "2", "--l", "1", "--box", "1"
    )
    assert code == 2
    assert "theorem2" in payload["message"]


def test_search_then_check_spec(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    code, payload = run_cli(
        capsys, "search", "--group", "2x2", "--box", "1", "--jobs", "1", "--out", out
    )
    assert code == 0
    assert payload["counts"] == {"evaluated": 81, "distinct": 4}
    assert payload["out"] == out

    saved = json.loads((tmp_path / "report.json").read_text())
    assert sorted(int(row["v"]) for row in saved["values"]) == [-16, -3, 0, 1]

    code, payload = run_cli(capsys, "check", "--report", out, "--spec", "Z2Z2")
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["check"] == "membership in Z2Z2"
    assert payload["violations"] == []


def test_search_then_check_exponent(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    run_cli(capsys, "search", "--group", "2x2", "--box", "1", "--jobs", "1", "--out", out)

    code, payload = run_cli(capsys, "check", "--report", out, "--exponent", "4")
    assert code == 0
    assert payload["status"] == "pass"

    code, payload = run_cli(capsys, "check", "--report", out, "--exponent", "5")
    assert code == 1
    assert payload["status"] == "fail"
    assert [row["v"] for row in payload["violations"]] == ["-16"]

    # decided by valuation: 2^(10^11) is never built, and only 0 is divisible by it
    code, payload = run_cli(capsys, "check", "--report", out, "--exponent", "100000000000")
    assert code == 1
    assert [row["v"] for row in payload["violations"]] == ["-16"]

    code, payload = run_cli(capsys, "check", "--report", out, "--exponent", "-1")
    assert code == 2
    assert payload["status"] == "error"
    assert "exponent must be at least 0, got -1" in payload["message"]


def test_check_revalidate_catches_an_edited_value(capsys, tmp_path):
    out = tmp_path / "report.json"
    run_cli(capsys, "search", "--group", "2x2", "--box", "1", "--jobs", "1", "--out", str(out))
    code, payload = run_cli(capsys, "check", "--report", str(out), "--spec", "Z2Z2",
                            "--revalidate")
    assert code == 0 and payload["status"] == "pass"
    # -16 -> -64: still in the Z2Z2 value set, so only the re-evaluation sees it
    data = json.loads(out.read_text())
    row = next(row for row in data["values"] if row["v"] == "-16")
    row["v"] = "-64"
    out.write_text(json.dumps(data))
    code, payload = run_cli(capsys, "check", "--report", str(out), "--spec", "Z2Z2")
    assert code == 0 and payload["status"] == "pass"
    code, payload = run_cli(capsys, "check", "--report", str(out), "--spec", "Z2Z2",
                            "--revalidate")
    assert code == 2 and payload["status"] == "error"
    assert "gives -64" in payload["message"] and "gives -16" in payload["message"]
    # a witness outside the box is refused too
    row["v"], row["witness"] = "-16", [-2, 0, 0, 0]
    out.write_text(json.dumps(data))
    code, payload = run_cli(capsys, "check", "--report", str(out), "--exponent", "4",
                            "--revalidate")
    assert code == 2 and "outside the box 1" in payload["message"]


def test_check_modes_are_exclusive(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    run_cli(capsys, "search", "--group", "2", "--box", "1", "--jobs", "1", "--out", out)
    with pytest.raises(SystemExit) as info:
        main(["check", "--report", out, "--spec", "Z2Z2", "--exponent", "4"])
    assert info.value.code == 2


def test_check_missing_report(capsys, tmp_path):
    code, payload = run_cli(
        capsys, "check", "--report", str(tmp_path / "nope.json"), "--exponent", "1"
    )
    assert code == 2
    assert payload["status"] == "error"


@pytest.mark.parametrize("text,field", [
    ("{}", "group"),
    ("[]", "JSON object"),
    ('{"group": "2", "box": 1, "pruned": false, "value_cap": null, '
     '"counts": {"evaluated": 9, "distinct": 1}, "values": [{"v": "0", "witness": 3}]}',
     "values[0].witness"),
    ('{"values": [{"v": "-1", "witness": [0, -1]}, {"v": "-1", "witness": [0, 1]}], '
     '"group": "2", "box": 1, "pruned": false, "counts": {"evaluated": 9, "distinct": 2}}',
     "values[1].v lists -1 a second time"),
    ('{"group": "2", "box": 1, "pruned": false, "value_cap": null, '
     '"counts": {"evaluated": 0, "distinct": 1}, "values": [{"v": "0", "witness": [1, 1]}]}',
     "counts.evaluated 0"),
    ('{"group": "2", "box": 1, "pruned": false, "value_cap": null, '
     '"counts": {"evaluated": 9, "distinct": 1}, "values": [{"v": "-1", "witness": [0, -99]}]}',
     "values[0].witness [0, -99] lies outside the box 1"),
])
def test_check_malformed_report_exits_2_as_json(capsys, tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, payload = run_cli(capsys, "check", "--report", str(path), "--exponent", "1")
    assert code == 2
    assert payload["status"] == "error"
    assert "malformed report" in payload["message"] and field in payload["message"]


def test_verify_huge_l_exits_2_as_json(capsys):
    code, payload = run_cli(
        capsys, "verify", "--suite", "theorem2", "--H", "2", "--l", "100000", "--box", "1"
    )
    assert code == 2
    assert payload["status"] == "error"
    assert "budget" in payload["message"] and "force=True" not in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("det", "--group", "4000"),
        ("dedekind", "--group", "100x40"),
        ("factor", "--group", "4000x2", "--cut", "1"),
        ("laquer", "--r", "3999", "--s", "2"),
        ("det", "--group", "223"),
        ("det", "--group", "2000"),
        ("dedekind", "--group", "223"),
        ("factor", "--group", "223x1", "--cut", "1"),
        ("laquer", "--r", "223", "--s", "1"),
    ],
)
def test_per_assignment_commands_refuse_huge_groups(capsys, argv):
    # |G|^2 > 10^7, or a split re-check of more than 10^7 elimination steps (1 + 222^3 for
    # Z/223, about 2 * 10^9 for Z/2000): refused before the (unparseable) assignment is read
    code, payload = run_cli(capsys, *argv, "--assign", "not-an-assignment")
    assert code == 2
    assert payload["status"] == "error"
    assert "budget" in payload["message"] and "order" in payload["message"]
    # the message names no Python keyword the CLI does not take
    assert "force=True" not in payload["message"]


def test_the_split_recheck_gate_answers_shapes_within_the_budget(capsys):
    # Z/211 needs 1 + 210^3 = 9,261,001 steps, just under the budget, and order 2,048 of
    # exponent 2 needs 2,048 (one Walsh-Hadamard transform of blocks of size 1)
    ensure_tables((211,))
    group = "x".join(["2"] * 11)
    code, payload = run_cli(capsys, "det", "--group", group, "--assign", ",".join(["1"] * 2048))
    assert code == 0 and payload["det"] == "0"
    code, payload = run_cli(capsys, "det", "--group", group,
                            "--assign", ",".join(["1"] + ["0"] * 2047))
    assert code == 0 and payload["det"] == "1"
    # Z/390 = 2 x 3 x 5 x 13 is square-free, so K = G: its 16 blocks need
    # 2 * 9 * 65 * 1729 = 2,022,930 steps, where the cheapest single prime, 2, needed
    # 14,829,750; det(2 + g) = prod_k (2 + zeta^k) = 2^390 - 1 at even order
    ensure_tables((390,))
    code, payload = run_cli(capsys, "det", "--group", "390",
                            "--assign", ",".join(["2", "1"] + ["0"] * 388))
    assert code == 0 and payload["det"] == str(2**390 - 1)


def test_verify_without_a_known_exponent_names_h(capsys):
    code, payload = run_cli(
        capsys, "verify", "--suite", "theorem2", "--H", "3", "--l", "1", "--box", "1"
    )
    assert code == 2
    assert payload["status"] == "error"
    assert "H = 3" in payload["message"]
    # the message names no Python keyword the CLI does not take
    assert "exponent=" not in payload["message"]


def test_check_unknown_spec(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    run_cli(capsys, "search", "--group", "2", "--box", "1", "--jobs", "1", "--out", out)
    code, payload = run_cli(capsys, "check", "--report", out, "--spec", "S2p(4)")
    assert code == 2
    assert payload["status"] == "error"


def test_witness_found(capsys):
    code, payload = run_cli(
        capsys, "witness", "--group", "2x2", "--box", "2", "--target", "16"
    )
    assert code == 0
    assert payload["status"] == "value"
    assert payload["witness"] == [-2, 0, 0, 0]
    assert payload["det"] == "16"


def test_witness_not_found(capsys):
    code, payload = run_cli(
        capsys, "witness", "--group", "2x2", "--box", "1", "--target", "2"
    )
    assert code == 1
    assert payload["status"] == "fail"
    assert payload["witness"] is None
    assert payload["det"] is None


def test_search_budget_guard(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    code, payload = run_cli(
        capsys, "search", "--group", "2", "--box", "5", "--budget", "10", "--out", out
    )
    assert code == 2
    assert payload["status"] == "error"
    assert "budget" in payload["message"] and "force=True" not in payload["message"]

    code, payload = run_cli(
        capsys, "search", "--group", "2", "--box", "5", "--budget", "10",
        "--force", "--jobs", "1", "--out", out,
    )
    assert code == 0
    assert payload["counts"]["evaluated"] == 121


@pytest.mark.parametrize("argv", [
    ("search", "--group", "12", "--box", "0", "--out", "unused.json"),
    ("witness", "--group", "12", "--box", "0", "--target", "0"),
    ("verify", "--suite", "theorem2", "--H", "2", "--l", "2", "--box", "0"),
])
def test_group_order_squared_counts_against_the_budget(capsys, tmp_path, monkeypatch, argv):
    # one point each, but |G|^2 = 144 (12) or 64 (2x2x2) table entries
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(capsys, *argv, "--budget", "50")
    assert code == 2
    assert payload["status"] == "error"
    assert "budget" in payload["message"] and "order" in payload["message"]
    assert not (tmp_path / "unused.json").exists()
    code, payload = run_cli(capsys, *argv, "--budget", "50", "--force")
    assert code == 0


@pytest.mark.parametrize("argv,budget,message", [
    (("search", "--group", "13", "--box", "0", "--out", "unused.json"),
     1000, "order 13 needs 1729"),
    (("witness", "--group", "13", "--box", "0", "--target", "0"),
     1000, "order 13 needs 1729"),
    (("verify", "--suite", "theorem2", "--H", "16", "--l", "1", "--box", "0"),
     2000, "order 32 needs 2048"),
])
def test_bareiss_recheck_counts_against_the_budget(capsys, tmp_path, monkeypatch, argv, budget,
                                                   message):
    # the |G|^2 tables fit the budget, but one split re-check takes more steps: 1 + 12^3
    # for Z/13, and 8^3 * 4 for 16x2 (K = G[2] of rank 2)
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(capsys, *argv, "--budget", str(budget))
    assert code == 2
    assert payload["status"] == "error" and message in payload["message"]
    assert not (tmp_path / "unused.json").exists()
    code, payload = run_cli(capsys, *argv, "--budget", str(budget), "--force")
    assert code == 0


def test_search_gates_on_the_split_recheck_not_on_order_cubed(capsys, tmp_path):
    # Z/390's re-check needs 2,022,930 steps, under the budget that 390^3 = 59,319,000 was over
    out = str(tmp_path / "r.json")
    code, payload = run_cli(capsys, "search", "--group", "390", "--box", "0", "--out", out)
    assert code == 0
    code, det = run_cli(capsys, "det", "--group", "390", "--assign", ",".join(["0"] * 390))
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert [entry["v"] for entry in report["values"]] == [det["det"]] == ["0"]


def test_one_point_of_a_huge_group_is_refused_at_once(capsys, tmp_path):
    # one point on a group of order 2,000 used to run a 31 s Bareiss re-check
    out = str(tmp_path / "r.json")
    code, payload = run_cli(capsys, "search", "--group", "2000", "--box", "0", "--out", out)
    assert code == 2
    assert payload["status"] == "error" and "order 2000" in payload["message"]


def test_missing_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "groupdet", "det", "--group", "2", "--assign", "3,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["det"] == "8"


def test_closed_stdout_exits_2_with_json_on_stderr(tmp_path):
    # the reader of stdout is gone before the result is written, as after `| head`
    read, write = os.pipe()
    os.close(read)
    out = tmp_path / "r.json"
    argv = ["search", "--group", "8", "--box", "1", "--prune", "--out", str(out)]
    try:
        proc = subprocess.run([sys.executable, "-m", "groupdet", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    payload = json.loads(proc.stderr)
    assert payload["status"] == "error"
    assert "stdout closed" in payload["message"]
    # the report was saved before the result was printed
    assert json.loads(out.read_text())["group"] == "8"


def test_arithmetic_error_is_reported_as_json(capsys, monkeypatch):
    def inexact(group, values):
        raise ArithmeticError("fraction-free elimination: inexact division")

    monkeypatch.setattr("groupdet.cli.group_determinant", inexact)
    code, payload = run_cli(capsys, "det", "--group", "2", "--assign", "7,5")
    assert code == 2
    assert payload["status"] == "error"
    assert "inexact division" in payload["message"]


def test_a_corrupted_kernel_fails_the_cross_checks(capsys, monkeypatch):
    # one sign swapped in one form of 4x2's compiled kernel: dedekind's product no longer
    # matches, and search's re-check raises at a witness it reports
    from groupdet import determinant, make_group, search_values

    group = make_group((4, 2))
    witnesses = set(search_values(group, 1, jobs=1).achieved.values())
    forms = determinant._block_forms(group)
    (k, c), *rest = forms[-1][0][0]
    forms[-1][0][0] = ((k, -c), *rest)
    monkeypatch.setitem(determinant._KERNELS, group.orders, determinant._compile_kernel(forms))
    code, payload = run_cli(capsys, "dedekind", "--group", "4x2", "--assign", "1,2,0,1,0,0,1,0")
    assert code == 1
    assert payload["match"] is False and payload["det"] != payload["direct_det"]
    with pytest.raises(ArithmeticError, match="Bareiss") as info:
        search_values(group, 1, jobs=1)
    assert any(str(list(w)) in str(info.value) for w in witnesses)


@pytest.mark.parametrize("command", ["search", "verify"])
def test_jobs_below_one_exit_2_as_json(capsys, tmp_path, command):
    if command == "search":
        argv = ["search", "--group", "2", "--box", "1", "--out", str(tmp_path / "r.json")]
    else:
        argv = ["verify", "--suite", "theorem2", "--H", "2", "--l", "1", "--box", "1"]
    code, payload = run_cli(capsys, *argv, "--jobs", "0")
    assert code == 2
    assert payload["status"] == "error"
    assert "jobs must be at least 1" in payload["message"]


@pytest.mark.parametrize("argv,message", [
    (("search", "--group", "2", "--box", "1", "--cap", "-1"), "value_cap must be at least 0, got -1"),
    (("witness", "--group", "2", "--box", "-1", "--target", "1"), "box must be at least 0, got -1"),
])
def test_negative_cap_and_box_exit_2_as_json(capsys, tmp_path, argv, message):
    out = tmp_path / "r.json"
    code, payload = run_cli(capsys, *argv, *(["--out", str(out)] if argv[0] == "search" else []))
    assert code == 2
    assert payload["status"] == "error"
    assert message in payload["message"]
    assert not out.exists()


def test_check_echoes_value_cap(capsys, tmp_path):
    out = tmp_path / "capped.json"
    code, _ = run_cli(capsys, "search", "--group", "2x2", "--box", "1", "--cap", "10",
                      "--out", str(out))
    assert code == 0
    code, payload = run_cli(capsys, "check", "--report", str(out), "--exponent", "4")
    assert code == 0
    assert payload["value_cap"] == "10"
    uncapped = tmp_path / "full.json"
    run_cli(capsys, "search", "--group", "2x2", "--box", "1", "--out", str(uncapped))
    code, payload = run_cli(capsys, "check", "--report", str(uncapped), "--spec", "Z2Z2")
    assert payload["value_cap"] is None


def test_deeply_nested_report_exits_2_as_json(capsys, tmp_path):
    # the JSON decoder recurses once per nested array
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    code, payload = run_cli(capsys, "check", "--report", str(path), "--exponent", "1")
    assert code == 2
    assert payload["status"] == "error" and "recursion" in payload["message"]


@pytest.mark.parametrize("argv", [
    ("search", "--prune", "--out", "unused.json"),
    ("witness", "--target", "1"),
    ("verify", "--suite", "theorem2", "--l", "1"),
])
def test_a_very_long_factor_list_exits_2_as_json(capsys, tmp_path, argv):
    # the automorphism search recurses once per factor
    spec = "x".join(["1"] * 1500)
    flag = "--H" if argv[0] == "verify" else "--group"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, payload = run_cli(capsys, *argv, flag, spec, "--box", "1")
    assert code == 2
    assert payload["status"] == "error" and "recursion" in payload["message"]
    assert not (tmp_path / "unused.json").exists()
