import json
import multiprocessing
import random
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdet.boxes
import groupdet.cli
import groupdet.divisibility
from groupdet import (
    BudgetExceededError,
    bound_exponent,
    check_even_bound,
    check_factor_congruence,
    even_divisibility_bound,
    known_even_exponent,
    make_group,
    run_divisibility_suite,
    two_adic_valuation,
)
from groupdet.boxes import holomorph_maps, iter_box, orderly_scan
from groupdet.determinant import _index_table, _split_blocks, bareiss_det
from groupdet.divisibility import KEPT_FAILURES
from groupdet.factorization import _sign_keys
from groupdet.norms import OrbitPlan, orbit_plan
from oracles import fraction_det, naive_group_det, naive_group_matrix, sign_twists


def test_two_adic_valuation_frozen():
    assert two_adic_valuation(16) == 4
    assert two_adic_valuation(18) == 1
    assert two_adic_valuation(-12) == 2
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(-1) == 0
    assert two_adic_valuation(2**40) == 40
    with pytest.raises(ValueError):
        two_adic_valuation(0)


def test_two_adic_valuation_is_additive():
    rng = random.Random(53)
    for _ in range(200):
        a = rng.randint(-10**6, 10**6) or 1
        b = rng.randint(-10**6, 10**6) or 1
        assert two_adic_valuation(a * b) == two_adic_valuation(a) + two_adic_valuation(b)


def test_known_even_exponent_table():
    assert known_even_exponent(make_group((1,))).exponent == 1
    assert known_even_exponent(make_group(2)).exponent == 2
    assert known_even_exponent(make_group((2, 2))).exponent == 4
    assert known_even_exponent(make_group((2, 2, 2))).exponent == 8
    assert known_even_exponent(make_group((4, 2))).exponent == 8
    assert known_even_exponent(make_group((2, 4))).exponent == 8  # order-insensitive
    assert known_even_exponent(make_group((2, 1, 2))).exponent == 4  # trivial factors ignored
    assert known_even_exponent(make_group(4)).exponent == 4
    assert known_even_exponent(make_group(8)).exponent == 5
    assert known_even_exponent(make_group(16)).exponent == 6
    assert known_even_exponent(make_group(64)).exponent == 8
    assert known_even_exponent(make_group(6)) is None
    assert known_even_exponent(make_group((3, 3))) is None
    for orders in [(2,), (4,), (8,), (2, 2), (4, 2)]:
        fact = known_even_exponent(make_group(orders))
        assert fact.source  # provenance string always present


def test_bound_frozen_values():
    assert even_divisibility_bound(make_group(2), 1) == 2**4
    assert even_divisibility_bound(make_group(2), 2) == 2**8
    assert even_divisibility_bound(make_group((4, 2)), 1) == 2**16
    assert even_divisibility_bound(make_group((1,)), 2) == 2**4
    assert even_divisibility_bound(make_group(6), 1, exponent=3) == 2**6


def test_bound_consistency_across_decompositions():
    # (Z/2Z)^2 reached as (2) + one factor or (1) + two factors: same bound
    assert even_divisibility_bound(make_group(2), 1) == even_divisibility_bound(make_group((1,)), 2)


def test_bound_validation():
    with pytest.raises(ValueError):
        bound_exponent(make_group(2), 0)
    with pytest.raises(ValueError):
        even_divisibility_bound(make_group(6), 1)  # no table entry, no override
    with pytest.raises(ValueError, match="at least 0, got -1"):
        bound_exponent(make_group(6), 1, exponent=-1)


def test_check_even_bound_frozen():
    h = make_group(2)
    even = check_even_bound(h, 1, (2, 0, 0, 0))
    assert even.status == "pass"
    assert even.det == 16
    assert even.valuation == 4
    assert even.bound_exponent == 4

    odd = check_even_bound(h, 1, (1, 1, 1, 0))
    assert odd.status == "not-applicable"
    assert odd.det == -3

    zero = check_even_bound(h, 1, (0, 0, 0, 0))
    assert zero.status == "pass"
    assert zero.det == 0
    assert zero.valuation is None

    # a synthetic too-strict exponent makes a real failure reportable
    forced = check_even_bound(h, 1, (2, 0, 0, 0), exponent=3)
    assert forced.status == "fail"
    assert forced.bound_exponent == 6


def test_check_factor_congruence_frozen():
    h = make_group(2)
    res = check_factor_congruence(h, 1, (1, 1, 1, 0))
    assert res.status == "pass"
    assert res.factors == (3, -1)
    res2 = check_factor_congruence(h, 1, (2, 0, 0, 0))
    assert res2.status == "pass"
    assert res2.factors == (4, 4)
    res3 = check_factor_congruence(make_group((1,)), 2, (0, 0, 0, 0))
    assert res3.status == "pass"
    assert res3.factors == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "h_orders,l,box",
    [((1,), 1, 4), ((1,), 2, 2), ((2,), 1, 2), ((2,), 2, 1), ((4,), 1, 1)],
)
def test_suite_boxes_pass(h_orders, l, box):
    summary = run_divisibility_suite(make_group(h_orders), l, box)
    dim = 1
    for n in h_orders:
        dim *= n
    dim *= 2**l
    assert summary["assignments_checked"] == (2 * box + 1) ** dim
    assert summary["failures"] == []
    assert summary["status"] == "pass"
    assert summary["even_count"] > 0
    if summary["min_even_valuation"] is not None:
        assert summary["min_even_valuation"] >= summary["bound_exponent"]


def test_suite_deterministic_across_jobs():
    h = make_group(2)
    one = run_divisibility_suite(h, 1, 1, jobs=1)
    three = run_divisibility_suite(h, 1, 1, jobs=3)
    assert one == three


def test_suite_reports_failures_with_synthetic_exponent():
    # exponent override above the truth must produce bound failures, proving
    # the failure path is exercised
    summary = run_divisibility_suite(make_group(2), 1, 1, exponent=5)
    assert summary["status"] == "fail"
    assert any(f["kind"] == "bound" for f in summary["failures"])
    assert all(f["kind"] == "bound" for f in summary["failures"])
    # the offending witnesses are reported in enumeration order with values as strings
    first = summary["failures"][0]
    assert isinstance(first["det"], str)
    assert len(first["witness"]) == 4


def test_suite_keeps_the_first_failures_and_counts_all():
    # exponent 8 is far above the truth for H = 2, so most even points fail
    full = run_divisibility_suite(make_group(2), 1, 2, exponent=8, jobs=1)
    assert full["status"] == "fail"
    assert full["failure_count"] > KEPT_FAILURES
    assert len(full["failures"]) == KEPT_FAILURES
    # the kept ones are the first in box order, whatever the sharding
    assert run_divisibility_suite(make_group(2), 1, 2, exponent=8, jobs=2) == full
    expected = []
    for vals in iter_box(4, 2):
        check = check_even_bound(make_group(2), 1, vals, exponent=8)
        if check.status == "fail":
            expected.append({"kind": "bound", "det": str(check.det), "witness": list(vals)})
    assert full["failure_count"] == len(expected)
    assert full["failures"] == expected[:KEPT_FAILURES]
    passing = run_divisibility_suite(make_group(2), 1, 2)
    assert passing["failure_count"] == 0 and passing["status"] == "pass"


def test_suite_rechecks_witnesses_by_bareiss(monkeypatch):
    import groupdet.divisibility

    real = groupdet.divisibility.bareiss_det
    monkeypatch.setattr(groupdet.divisibility, "bareiss_det", lambda m: real(m) + 2)
    with pytest.raises(ArithmeticError, match="Bareiss"):
        run_divisibility_suite(make_group(2), 1, 1, jobs=1)


def test_a_corrupted_suite_kernel_fails_the_bareiss_recheck(monkeypatch):
    # the kernel, not the re-check, is wrong: every sign factor of each
    # block's least point is tripled, which keeps its valuation, so that
    # point is still the suite's least one, re-checked in the parent
    suite = OrbitPlan.suite

    def corrupted(self, keys, exp):
        kernel = suite(self, keys, exp)

        def wrong(head, tails, sizes):
            even, fails, least, at, flagged = kernel(head, tails, sizes)
            if at is not None:
                at = (at[0], tuple(3 * f for f in at[1]))
            return even, fails, least, at, flagged

        return wrong

    monkeypatch.setattr(OrbitPlan, "suite", corrupted)
    with pytest.raises(ArithmeticError, match="Bareiss"):
        run_divisibility_suite(make_group(4), 1, 1, jobs=1)


def test_single_checks_recheck_their_failures_by_bareiss(monkeypatch):
    real = groupdet.divisibility.bareiss_det
    monkeypatch.setattr(groupdet.divisibility, "bareiss_det", lambda m: real(m) + 2)
    h = make_group(2)
    # passing and not-applicable verdicts are returned as they are
    assert check_even_bound(h, 1, (2, 0, 0, 0)).status == "pass"
    assert check_factor_congruence(h, 1, (1, 1, 1, 0)).status == "pass"
    # a failure is re-evaluated first, and the disagreement raises
    with pytest.raises(ArithmeticError, match="Bareiss"):
        check_even_bound(h, 1, (2, 0, 0, 0), exponent=3)
    calls = []
    monkeypatch.setattr(groupdet.divisibility, "bareiss_det", lambda m: calls.append(m) or real(m))
    assert check_even_bound(h, 1, (2, 0, 0, 0), exponent=3).status == "fail"
    assert len(calls) == 2
    monkeypatch.setattr(
        groupdet.divisibility, "integer_split_factors", lambda H, l, values: [4, 3]
    )
    with pytest.raises(ArithmeticError, match="Bareiss"):
        check_factor_congruence(h, 1, (2, 0, 0, 0))


def test_suite_refuses_a_huge_l_before_building_anything(monkeypatch):
    # 2^l, (2,) * l and the box of H x (Z/2Z)^l all grow with l; none may be built
    def unreachable(*args):
        raise AssertionError("built a group or box for a refused l")

    for name in ("bound_exponent", "direct_product", "ensure_budget", "AbelianGroup"):
        monkeypatch.setattr(groupdet.divisibility, name, unreachable)
    with pytest.raises(BudgetExceededError, match="2\\^100000"):
        run_divisibility_suite(make_group(2), 100_000, 1)
    with pytest.raises(BudgetExceededError):
        run_divisibility_suite(make_group(2), 25, 0, budget=10**7)
    monkeypatch.undo()
    # below the cut-off the order-squared check still refuses, and force still runs
    with pytest.raises(BudgetExceededError, match="order"):
        run_divisibility_suite(make_group(2), 22, 1)
    assert run_divisibility_suite(make_group(1), 4, 0, budget=1, force=True)["status"] == "pass"


@lru_cache(maxsize=None)
def twisted_factors(h_orders, l, box):
    """Every point of the box of H x (Z/2Z)^l with its split factors, each
    the Bareiss determinant of the H group matrix of one sign twist."""
    table = _index_table(h_orders)
    dets = {}
    points = []
    for x in iter_box(prod(h_orders) << l, box):
        factors = []
        for ys in map(tuple, sign_twists(l, x)):
            if ys not in dets:
                dets[ys] = bareiss_det([[ys[j] for j in row] for row in table])
            factors.append(dets[ys])
        points.append((x, factors))
    return points


def reference_summary(h_orders, l, box, exp):
    """The suite's counts and kept failures by the rules as the paper states
    them: every factor has the trivial factor's parity, and 2^exp divides
    every even determinant."""
    even = failure_count = 0
    least = None
    failures = []
    for x, factors in twisted_factors(h_orders, l, box):
        det = prod(factors)
        if det % 2:
            continue
        even += 1
        found = []
        if any((f - factors[0]) % 2 for f in factors):
            found.append({"kind": "congruence", "factors": [str(f) for f in factors], "witness": list(x)})
        if det:
            v = two_adic_valuation(det)
            least = v if least is None else min(least, v)
            if det % (1 << exp):
                found.append({"kind": "bound", "det": str(det), "witness": list(x)})
        failure_count += len(found)
        failures += found
    return {
        "assignments_checked": (2 * box + 1) ** (prod(h_orders) << l),
        "even_count": even,
        "min_even_valuation": least,
        "bound_exponent": exp,
        "failure_count": failure_count,
        "failures": failures[:KEPT_FAILURES],
        "status": "fail" if failure_count else "pass",
    }


@pytest.mark.parametrize(
    "h_orders,l,box",
    # l = 3, a phi(d) = 4 orbit (H = 5), and shapes whose bounds hold or fail
    [((1,), 3, 1), ((5,), 1, 1), ((2,), 2, 1), ((4,), 1, 1), ((3,), 1, 2)],
)
@pytest.mark.parametrize("exponent", [0, 1, 2, 15])
def test_suite_summaries_match_bareiss_on_sign_twists(h_orders, l, box, exponent):
    summary = run_divisibility_suite(make_group(h_orders), l, box, exponent=exponent, jobs=1)
    expected = reference_summary(h_orders, l, box, exponent << l)
    assert {k: summary[k] for k in expected} == expected


def bareiss_sign_factors(h_orders, l, x):
    """The split factors of x by the independent path: Bareiss on the H group
    matrix of each sign twist."""
    table = _index_table(h_orders)
    return [bareiss_det([[ys[j] for j in row] for row in table]) for ys in sign_twists(l, x)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_recheck_blocks_are_the_sign_twists_of_the_last_factors_in_character_order(data):
    # K the last l factors of H x (Z/2)^l, |G| <= 32; K is not G[2] when |H| is even
    h_orders = data.draw(st.sampled_from([(1,), (2,), (3,), (4,), (5,), (6,), (8,), (12,),
                                          (2, 2), (4, 2)]))
    l = data.draw(st.integers(1, min(3, (32 // prod(h_orders)).bit_length() - 1)))
    g = make_group(h_orders + (2,) * l)
    xs = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=g.order, max_size=g.order)))
    if prod(h_orders) <= 6:
        expected = [naive_group_det(h_orders, ys) for ys in sign_twists(l, xs)]
    else:
        expected = [fraction_det(naive_group_matrix(h_orders, ys)) for ys in sign_twists(l, xs)]
    last = tuple(range(len(h_orders), len(g.orders)))
    assert [bareiss_det(rows) for rows in _split_blocks(g, xs, 2, last)] == expected
    # verify's re-check reads these blocks: it passes on them and raises on any other factors
    groupdet.divisibility._recheck(h_orders, l, xs, expected)
    with pytest.raises(ArithmeticError):
        groupdet.divisibility._recheck(h_orders, l, xs, expected[:-1] + [expected[-1] + 1])


SPLIT_SHAPES = [((1,), 1), ((1,), 2), ((1,), 3), ((2,), 1), ((2,), 2), ((3,), 1), ((4,), 1),
                ((6,), 1), ((2, 2), 1)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_maps_permute_the_bareiss_sign_factors(data):
    # each split map sends the sign factors to a permutation of them up to
    # sign that keeps the trivial factor in place: parities, the congruence
    # and the 2-adic valuation of the determinant all stay
    h_orders, l = data.draw(st.sampled_from(SPLIT_SHAPES))
    n = prod(h_orders) << l
    x = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    base = bareiss_sign_factors(h_orders, l, x)
    for phi in holomorph_maps(h_orders + (2,) * l, None, l):
        image = bareiss_sign_factors(h_orders, l, tuple(x[i] for i in phi))
        assert abs(image[0]) == abs(base[0])
        assert sorted(map(abs, image)) == sorted(map(abs, base))


SPLIT_MAP_COUNTS = [((4,), 1, 32), ((2,), 1, 8), ((1,), 2, 24), ((2, 2), 1, 192), ((3,), 1, 12),
                    ((8,), 1, 128), ((2, 2, 2), 1, 21_504), ((2, 2), 2, 9_216)]


@pytest.mark.parametrize("h_orders,l,count", SPLIT_MAP_COUNTS)
def test_split_map_counts(h_orders, l, count):
    # every translation times the automorphisms keeping (Z/2Z)^l, identity included
    orders = h_orders + (2,) * l
    maps = holomorph_maps(orders, None, l)
    assert len(maps) + 1 == len(set(maps) | {tuple(range(prod(orders)))}) == count


# The shapes and boxes the suite runs on in these tests.
VERIFY_SHAPES = [((1,), 1, 4), ((1,), 2, 2), ((1,), 3, 1), ((2,), 1, 2), ((2,), 2, 1),
                 ((3,), 1, 2), ((4,), 1, 1), ((5,), 1, 1)]


@pytest.mark.parametrize("h_orders,l,box", VERIFY_SHAPES)
def test_orbit_sizes_sum_to_the_box(h_orders, l, box):
    # each kept point is the least of its orbit and stands for all of it
    orders = h_orders + (2,) * l
    dim = prod(orders)
    maps = holomorph_maps(orders, None, l)
    plan = orbit_plan(orders, box)
    kernel = plan.suite(_sign_keys(orders, l), 0)
    total = (2 * box + 1) ** dim
    weight = 0
    for prefix, suffixes, _, sizes in orderly_scan(plan, box, maps, range(total), kernel):
        for t, size in zip(suffixes, sizes):
            x = prefix + t
            orbit = {tuple(x[i] for i in phi) for phi in maps} | {x}
            assert min(orbit) == x and len(orbit) == size
            weight += size
    assert weight == total


@pytest.fixture
def three_cpus(monkeypatch):
    """Three CPUs, and a pool that runs its shards in this process."""

    class Pool:
        def __init__(self, size):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(groupdet.boxes.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "Pool", Pool)


@pytest.mark.parametrize("h_orders,l,box", [((2,), 1, 2), ((1,), 2, 2), ((4,), 1, 1),
                                            ((1,), 3, 1), ((2,), 2, 1)])
@pytest.mark.parametrize("exponent", [None, 3, 40])
def test_suite_reports_equal_at_jobs_1_2_3(three_cpus, h_orders, l, box, exponent):
    # shards hold whole orbits, whose failing images lie anywhere in the box
    reports = [run_divisibility_suite(make_group(h_orders), l, box, exponent=exponent, jobs=jobs)
               for jobs in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]


def test_failure_walk_rechecks_at_most_the_kept_failures(monkeypatch):
    # 4x2 at box 2 and exponent 40: nearly every even point fails the bound,
    # yet the walk for the listed failures stops at the KEPT_FAILURES-th
    # record, each failing point evaluated again by Bareiss once
    real = groupdet.divisibility._recheck
    calls = []
    monkeypatch.setattr(groupdet.divisibility, "_recheck",
                        lambda *args: calls.append(args[2]) or real(*args))
    full = run_divisibility_suite(make_group(4), 1, 2, exponent=40, jobs=1)
    assert len(full["failures"]) == KEPT_FAILURES and full["failure_count"] > 70_000
    # one re-check per shard for its least-valuation point, then the walk's
    walked = calls[1:]
    assert 0 < len(walked) <= KEPT_FAILURES
    assert [list(p) for p in walked] == [f["witness"] for f in full["failures"]][:len(walked)]
    expected = []
    for vals in iter_box(8, 2):
        check = check_even_bound(make_group(4), 1, vals, exponent=40)
        if check.status == "fail":
            expected.append({"kind": "bound", "det": str(check.det), "witness": list(vals)})
            if len(expected) == KEPT_FAILURES:
                break
    assert full["failures"] == expected


def test_a_count_the_walk_does_not_find_raises(monkeypatch):
    real = groupdet.divisibility._suite_shard
    # Z/2 at box 2 and exponent 3 fails at 4 points, fewer than KEPT_FAILURES,
    # so the walk lists every one of them
    failing = run_divisibility_suite(make_group(1), 1, 2, exponent=3, jobs=1)
    assert failing["failure_count"] == len(failing["failures"]) == 4 < KEPT_FAILURES
    monkeypatch.setattr(groupdet.divisibility, "_suite_shard", lambda *args: {
        **real(*args), "failure_count": real(*args)["failure_count"] + 1})
    # one failure more than there are: the walk finds 4 of the 5
    with pytest.raises(ArithmeticError, match="counts 5 failures .* finds 4"):
        run_divisibility_suite(make_group(1), 1, 2, exponent=3, jobs=1)
    # a failure counted where the bound holds at every point: the walk from
    # the first point of the box finds none
    with pytest.raises(ArithmeticError, match=r"from \[-1, -1, -1, -1\] finds 0"):
        run_divisibility_suite(make_group(2), 1, 1, jobs=1)


@pytest.mark.parametrize("jobs", [1, 3])
def test_suite_rechecks_only_in_the_parent(three_cpus, monkeypatch, jobs):
    # the shards only count: a passing suite makes the 2^l Bareiss
    # eliminations of its least-valuation point, a failing one 2^l more per
    # listed failing point
    real = groupdet.divisibility.bareiss_det
    calls = []
    monkeypatch.setattr(groupdet.divisibility, "bareiss_det", lambda m: calls.append(m) or real(m))
    h, l = make_group(2), 2
    passing = run_divisibility_suite(h, l, 1, jobs=jobs)
    assert passing["status"] == "pass" and passing["min_even_valuation"] is not None
    assert len(calls) == 1 << l
    calls.clear()
    failing = run_divisibility_suite(h, l, 1, exponent=9, jobs=jobs)
    listed = {tuple(f["witness"]) for f in failing["failures"]}
    assert failing["status"] == "fail" and len(listed) == KEPT_FAILURES
    assert len(calls) == (1 + len(listed)) << l


def test_a_least_point_that_bareiss_does_not_confirm_raises(monkeypatch):
    real = groupdet.divisibility._suite_shard

    def shard(*args):
        part = real(*args)
        point, factors = part["least"]
        return {**part, "least": (point, (factors[0] + 2, *factors[1:]))}

    monkeypatch.setattr(groupdet.divisibility, "_suite_shard", shard)
    with pytest.raises(ArithmeticError, match="Bareiss elimination gives"):
        run_divisibility_suite(make_group(2), 1, 1, jobs=1)


def test_orbit_sizes_that_miss_the_box_raise(capsys, monkeypatch):
    real = groupdet.divisibility._suite_shard
    monkeypatch.setattr(groupdet.divisibility, "_suite_shard",
                        lambda *args: {**real(*args), "checked": real(*args)["checked"] - 1})
    with pytest.raises(ArithmeticError, match="sum to 80, not to the 81 points"):
        run_divisibility_suite(make_group(2), 1, 1, jobs=1)
    # the CLI reports it as JSON with exit 2
    code = groupdet.cli.main(["verify", "--suite", "theorem2", "--H", "2", "--l", "1", "--box", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["status"] == "error" and "not to the 81" in payload["message"]
