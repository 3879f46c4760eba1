import json
import os
import re
import tempfile
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdet import (
    BudgetExceededError,
    SearchReport,
    check_even_divisibility,
    check_membership,
    find_witness,
    group_determinant,
    make_group,
    membership_spec,
    search_values,
)
from groupdet.boxes import scan_plan
from groupdet.norms import OrbitPlan
from groupdet.search import _is_odd_prime
from oracles import box_value_set, first_witness


def test_small_boxes_match_oracle_sets():
    # full achieved sets frozen from the naive cofactor oracle
    assert set(search_values(make_group((1,)), 2).achieved) == {-2, -1, 0, 1, 2}
    assert set(search_values(make_group(2), 2).achieved) == {-4, -3, -1, 0, 1, 3, 4}
    assert set(search_values(make_group(3), 1).achieved) == {-4, -2, -1, 0, 1, 2, 4}
    assert set(search_values(make_group((2, 2)), 1).achieved) == {-16, -3, 0, 1}


@pytest.mark.parametrize("orders,box", [((2,), 2), ((3,), 1), ((2, 2), 1)])
def test_achieved_sets_equal_oracle(orders, box):
    rep = search_values(make_group(orders), box)
    assert set(rep.achieved) == box_value_set(orders, box)
    assert rep.evaluated == (2 * box + 1) ** make_group(orders).order


def test_witnesses_are_lexicographically_first_and_sound():
    g = make_group((2, 2))
    rep = search_values(g, 1)
    for v, w in rep.achieved.items():
        assert group_determinant(g, w) == v
        assert w == first_witness((2, 2), 1, v)


def test_determinism_across_job_counts():
    g = make_group((2, 2))
    serial = search_values(g, 2, jobs=1)
    sharded = search_values(g, 2, jobs=3)
    assert serial == sharded
    g3 = make_group(3)
    assert search_values(g3, 2, jobs=1) == search_values(g3, 2, jobs=2)


@pytest.mark.parametrize("orders", [(2,), (3,), (5,), (2, 2)])
def test_monotonicity_in_box(orders):
    g = make_group(orders)
    small = set(search_values(g, 1).achieved)
    mid = set(search_values(g, 2).achieved)
    big = set(search_values(g, 3).achieved)
    assert small <= mid <= big


def test_monotonicity_order_six():
    g = make_group(6)
    assert set(search_values(g, 1).achieved) <= set(search_values(g, 2).achieved)


def test_pruned_search_identical_reports():
    for orders, box in [((2, 2), 1), ((4,), 1), ((2, 3), 1)]:
        g = make_group(orders)
        full = search_values(g, box)
        pruned = search_values(g, box, prune=True)
        assert pruned.achieved == full.achieved  # same values AND same witnesses
        assert pruned.evaluated <= full.evaluated


def test_value_cap_drops_large_values():
    g = make_group(2)
    rep = search_values(g, 2, value_cap=3)
    assert set(rep.achieved) == {-3, -1, 0, 1, 3}
    assert rep.evaluated == 25
    with pytest.raises(ValueError, match="value_cap must be at least 0, got -1"):
        search_values(g, 1, value_cap=-1)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([((2,), 2), ((2, 2), 1), ((3,), 2), ((4, 2), 1), ((6,), 2)]),
       st.integers(0, 400), st.booleans())
def test_capped_report_is_the_uncapped_one_filtered(case, cap, prune):
    # values over the cap are remembered as seen, not reported
    orders, box = case
    g = make_group(orders)
    full = search_values(g, box, prune=prune)
    capped = search_values(g, box, value_cap=cap, prune=prune)
    kept = {v: w for v, w in full.achieved.items() if abs(v) <= cap}
    assert capped == SearchReport(orders, box, full.evaluated, kept, prune, cap)


def test_budget_guard():
    g = make_group((4, 2))
    with pytest.raises(BudgetExceededError):
        search_values(g, 3, budget=1000)
    with pytest.raises(BudgetExceededError):
        find_witness(g, 3, 1, budget=1000)
    # force runs anyway (keep it tiny)
    rep = search_values(make_group(2), 1, budget=2, force=True)
    assert rep.evaluated == 9
    with pytest.raises(ValueError, match="box must be at least 0, got -1"):
        find_witness(make_group(2), -1, 1)


def test_find_witness_frozen():
    g = make_group((2, 2))
    assert find_witness(g, 2, 16) == (-2, 0, 0, 0)
    assert find_witness(g, 2, 5) == (-2, -1, -1, -1)
    assert find_witness(g, 1, -3) == (-1, -1, -1, 0)
    assert find_witness(g, 3, 2) is None
    # the classical witness value is achieved by x_e = 2
    assert group_determinant(g, (2, 0, 0, 0)) == 16


def test_min_even_valuation():
    rep = search_values(make_group(2), 2)
    # even values here are -4, 0, 4; the 0 is excluded, so the minimum is 2
    assert rep.min_even_valuation == 2
    assert search_values(make_group((1,)), 2).min_even_valuation == 1
    assert search_values(make_group((1,)), 1).min_even_valuation is None  # only 0 is even there


def test_check_even_divisibility():
    rep = search_values(make_group((2, 2)), 1)
    ok = check_even_divisibility(rep, 4)
    assert ok.status == "pass" and ok.violations == ()
    strict = check_even_divisibility(rep, 5)
    assert strict.status == "fail"
    assert [v for v, _ in strict.violations] == [-16]
    # 0 is divisible by everything
    zero_rep = SearchReport((1,), 0, 1, {0: (0,)})
    assert check_even_divisibility(zero_rep, 99).status == "pass"


def test_membership_specs_frozen():
    z22 = membership_spec("Z2Z2")
    assert z22.predicate(1) and z22.predicate(5) and z22.predicate(-3)
    assert z22.predicate(16) and z22.predicate(-16) and z22.predicate(48)
    assert z22.predicate(64) and z22.predicate(0) and z22.predicate(-128)
    assert not z22.predicate(2) and not z22.predicate(3) and not z22.predicate(8)
    assert not z22.predicate(32)  # 2^5 * 1: not 16*odd, not divisible by 64

    z222 = membership_spec("Z2Z2Z2")
    assert z222.predicate(1) and z222.predicate(9) and z222.predicate(-7)
    assert z222.predicate(256) and z222.predicate(-768) and z222.predicate(0)
    assert z222.predicate(4096) and z222.predicate(2**12 * 3)
    assert not z222.predicate(3) and not z222.predicate(512) and not z222.predicate(2**9)

    z42 = membership_spec("Z4Z2")
    assert z42.predicate(1) and z42.predicate(-7) and z42.predicate(0)
    assert z42.predicate(256) and z42.predicate(-256) and z42.predicate(512)
    assert not z42.predicate(3) and not z42.predicate(16) and not z42.predicate(128)

    s6 = membership_spec("S2p(3)")
    assert s6.predicate(1) and s6.predicate(5) and s6.predicate(-5) and s6.predicate(7)
    assert s6.predicate(4) and s6.predicate(-8) and s6.predicate(9 * 4) and s6.predicate(0)
    assert s6.predicate(45)  # odd, divisible by 9
    assert not s6.predicate(2) and not s6.predicate(-2)  # even but not 4Z
    assert not s6.predicate(3) and not s6.predicate(15)  # divisible by 3, not by 9
    assert not s6.predicate(6)


def test_membership_spec_validation():
    with pytest.raises(ValueError):
        membership_spec("S2p(4)")
    with pytest.raises(ValueError):
        membership_spec("S2p(9)")
    # Miller-Rabin decides a 19-digit prime at once; trial division took over a minute
    assert membership_spec("S2p(1000000000000000003)").predicate(4)
    # strong pseudoprimes to the first bases, and a product of two large primes
    for n in [2047, 1373653, 3215031751, 3825123056546413051, 318665857834031151167461,
              (2**31 - 1) * 1000000007]:
        with pytest.raises(ValueError, match="odd prime"):
            membership_spec(f"S2p({n})")
    # beyond the bound where the fixed bases decide primality, refused
    with pytest.raises(ValueError, match="exactly only below"):
        membership_spec("S2p(123456789012345678901234567891)")


def test_is_odd_prime_matches_trial_division():
    def trial(p):
        return p > 2 and p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2))

    assert [p for p in range(-3, 20_000) if _is_odd_prime(p)] == [
        p for p in range(-3, 20_000) if trial(p)
    ]
    with pytest.raises(ValueError):
        membership_spec("nonsense")


def test_check_membership():
    rep = search_values(make_group((2, 2)), 1)
    res = check_membership(rep, membership_spec("Z2Z2"))
    assert res.status == "pass"
    bad = check_membership(rep, membership_spec("Z4Z2"))  # wrong set for this group
    assert bad.status == "fail"
    assert all(not membership_spec("Z4Z2").predicate(v) for v, _ in bad.violations)


def test_report_json_roundtrip(tmp_path):
    rep = search_values(make_group(2), 2)
    path = tmp_path / "report.json"
    rep.save(path)
    data = json.loads(path.read_text())
    assert data["group"] == "2"
    assert data["counts"] == {"evaluated": 25, "distinct": 7}
    by_value = {row["v"]: row for row in data["values"]}
    assert by_value["0"]["val2"] is None
    assert by_value["-4"]["val2"] == 2
    assert all(isinstance(row["v"], str) for row in data["values"])
    loaded = SearchReport.load(path)
    assert loaded == rep


def test_loaded_report_witnesses_revalidate(tmp_path):
    g = make_group((2, 3))
    rep = search_values(g, 1)
    path = tmp_path / "r.json"
    rep.save(path)
    loaded = SearchReport.load(path)
    for v, w in loaded.achieved.items():
        assert group_determinant(g, w) == v


def test_value_cap_round_trips_through_saved_reports(tmp_path):
    rep = search_values(make_group(2), 2, value_cap=3)
    path = tmp_path / "capped.json"
    rep.save(path)
    assert json.loads(path.read_text())["value_cap"] == "3"
    loaded = SearchReport.load(path)
    assert loaded.value_cap == 3 and loaded == rep
    # files written before value_cap was saved still load, as uncapped
    data = json.loads(path.read_text())
    del data["value_cap"]
    path.write_text(json.dumps(data))
    assert SearchReport.load(path).value_cap is None
    uncapped = search_values(make_group(2), 2)
    uncapped.save(path)
    assert json.loads(path.read_text())["value_cap"] is None
    assert SearchReport.load(path) == uncapped


@st.composite
def reports(draw):
    orders = draw(st.sampled_from([(1,), (2,), (3,), (2, 2), (4, 2)]))
    n = 1
    for o in orders:
        n *= o
    big = st.integers(-(2**200), 2**200)
    box = draw(st.integers(0, 2**70))
    # a loadable report has its witnesses in its box and a point per value
    witness = st.lists(st.integers(-box, box), min_size=n, max_size=n).map(tuple)
    achieved = draw(st.dictionaries(big, witness, max_size=6))
    return SearchReport(
        orders,
        box,
        draw(st.integers(len(achieved), 2**70)),
        achieved,
        draw(st.booleans()),
        draw(st.none() | st.integers(0, 2**200)),
    )


@settings(max_examples=60, deadline=None)
@given(reports())
def test_saved_reports_load_back_equal(report):
    # values and the cap are saved as decimal strings, so big ones survive
    # any JSON reader; empty reports, value_cap and pruned round-trip too
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        report.save(path)
        with open(path) as fh:
            data = json.load(fh)
        assert [row["v"] for row in data["values"]] == [str(v) for v in sorted(report.achieved)]
        assert data["value_cap"] == (None if report.value_cap is None else str(report.value_cap))
        assert SearchReport.load(path) == report
    finally:
        os.unlink(path)


def test_reports_save_one_value_per_line_and_old_layouts_still_load(tmp_path):
    report = search_values(make_group((2, 2)), 1)
    report.save(tmp_path / "new.json")
    lines = (tmp_path / "new.json").read_text().splitlines()
    assert len(lines) == report.distinct + 2
    assert [json.loads(line.rstrip(","))["v"] for line in lines[1:-1]] == [
        str(v) for v in sorted(report.achieved)
    ]
    # the layout written before one record per line
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(report.as_json_dict(), fh, indent=1)
        fh.write("\n")
    assert SearchReport.load(tmp_path / "old.json") == report
    assert json.loads((tmp_path / "old.json").read_text()) == json.loads("\n".join(lines))


def test_malformed_saved_reports_name_the_bad_field():
    good = search_values(make_group(2), 1).as_json_dict()
    cases = [
        ({k: v for k, v in good.items() if k != "values"}, "values"),
        ({**good, "group": "2x0"}, "group"),
        ({**good, "box": "two"}, "box"),
        ({**good, "counts": {}}, "counts.evaluated"),
        ({**good, "value_cap": [3]}, "value_cap"),
        ({**good, "values": [7]}, "values[0].witness"),
        ({**good, "values": [{"v": "0", "witness": [0]}]}, "values[0].witness"),
        ({**good, "values": [{"v": "0", "witness": [0, True]}]}, "values[0].witness"),
        ({**good, "values": [{"v": "zero", "witness": [0, 0]}]}, "values[0].v"),
        ({**good, "pruned": "false"}, "pruned"),
        ({**good, "pruned": 0}, "pruned"),
        ({**good, "box": -3}, "box"),
        ({**good, "counts": {"evaluated": -1}}, "counts.evaluated"),
        ({**good, "counts": {"evaluated": "-9"}}, "counts.evaluated"),
        ({**good, "value_cap": "-1"}, "value_cap"),
    ]
    for data, field in cases:
        with pytest.raises(ValueError, match=re.escape(field)):
            SearchReport.from_json_dict(data)
    assert SearchReport.from_json_dict(good) == search_values(make_group(2), 1)


def tampered(report):
    """The saved records of a report of group 2 with one tampering each: a value
    listed twice with its other witness -x (det(-x) = det(x) at even order),
    which would silently win; a distinct count one short; and a value in
    Arabic-Indic digits, which int() reads as 12; fewer points evaluated than
    values; and a witness outside the box."""
    good = report.as_json_dict()
    first, *rest = good["values"]
    twice = {**first, "witness": [-w for w in first["witness"]]}
    return {
        "evaluated": {**good, "counts": {**good["counts"], "evaluated": 0}},
        "outside": {**good, "values": [{**first, "witness": [0, -99]}, *rest]},
        "twice": {**good, "values": [first, twice, *rest],
                  "counts": {**good["counts"], "distinct": good["counts"]["distinct"] + 1}},
        "distinct": {**good, "counts": {**good["counts"], "distinct": len(rest)}},
        "digits": {**good, "values": [*good["values"], {"v": "\u0661\u0662", "witness": [2, 0]}],
                   "counts": {**good["counts"], "distinct": len(good["values"]) + 1}},
    }


@pytest.mark.parametrize("case,field", [
    ("twice", "values[1].v lists -1 a second time"), ("distinct", "counts.distinct 2"),
    ("digits", "values[3].v"), ("evaluated", "counts.evaluated 0 is less than the 3"),
    ("outside", "values[0].witness [0, -99] lies outside the box 1"),
], ids=["twice", "distinct", "digits", "evaluated", "outside"])
def test_tampered_reports_are_refused(case, field):
    report = search_values(make_group(2), 1)
    assert len(report.achieved) == 3
    with pytest.raises(ValueError, match="malformed report: .*" + re.escape(field)):
        SearchReport.from_json_dict(tampered(report)[case])


def test_witnesses_are_rechecked_by_bareiss(monkeypatch):
    import groupdet.search

    def off_by_one(group, values):
        return group_determinant(group, values) + 1

    monkeypatch.setattr(groupdet.search, "group_determinant", off_by_one)
    with pytest.raises(ArithmeticError, match="Bareiss"):
        search_values(make_group((2, 2)), 1)
    with pytest.raises(ArithmeticError, match="Bareiss"):
        find_witness(make_group((2, 2)), 2, 16)


# far above any determinant of an order-8 point in [-1, 1]^8, which is at most 8^8
WRONG = 10**9 + 7


@pytest.mark.parametrize("orders,factor", [((4, 2), 0), ((8,), 1)], ids=["4x2 A", "8 B"])
def test_a_corrupted_split_table_entry_fails_the_bareiss_recheck(orders, factor):
    # the entry of A (or B) that the witness of a nonzero value reads: every
    # point reading it gets a new value, whose first witness is re-checked
    g = make_group(orders)
    plan = scan_plan(orders, 1)
    assert plan.table is not None
    v, w = next((v, w) for v, w in sorted(search_values(g, 1, jobs=1).achieved.items()) if v)
    lookup = plan.orbits[factor]
    at = sum(map(mul, lookup.rows[0], w)) + lookup.offset
    entry, plan.table[at] = plan.table[at], WRONG
    try:
        with pytest.raises(ArithmeticError, match="Bareiss"):
            search_values(g, 1, jobs=1)
    finally:
        plan.table[at] = entry


@pytest.mark.parametrize("scan", [
    lambda: find_witness(make_group((4, 2)), 1, WRONG),
    lambda: find_witness(make_group(7), 1, WRONG),
    lambda: search_values(make_group(7), 1, jobs=1),
], ids=["witness 4x2", "witness 7", "search 7"])
def test_a_corrupted_orbit_kernel_fails_the_bareiss_recheck(monkeypatch, scan):
    # find_witness always runs the orbit kernel, and search_values does at odd
    # order: the kernels block() returns give WRONG at the first point
    block = OrbitPlan.block
    done = []

    def corrupted(self, keys=None):
        kernel = block(self, keys)

        def wrong(head, tails):
            ds = kernel(head, tails)
            if not done:
                done.append(True)
                ds = [WRONG, *ds[1:]]
            return ds

        return wrong

    monkeypatch.setattr(OrbitPlan, "block", corrupted)
    with pytest.raises(ArithmeticError, match="Bareiss"):
        scan()
