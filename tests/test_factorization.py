import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdet import (
    CyclotomicInt,
    NotRationalError,
    char_sign,
    char_value,
    character_sums,
    circulant_det,
    crt_decompose,
    crt_transport,
    dedekind_product,
    direct_product,
    direct_product_factors,
    enumerate_characters,
    enumerate_elements,
    group_determinant,
    integer_split_factors,
    laquer_agrees_with_split,
    laquer_factors,
    make_group,
    root_power,
    split_factors,
)
from groupdet.characters import restriction
from groupdet.cyclotomic import cyclotomic_polynomial
from groupdet.factorization import FactorizationReport, _packed_products, _power_bound, _unpack
from groupdet.norms import norm_factors
from oracles import cofactor_det, naive_group_det, naive_group_matrix, sign_twists


def test_character_sums_frozen():
    sums = character_sums(make_group(2), (3, 1))
    assert [s.to_integer() for s in sums] == [4, 2]
    sums3 = character_sums(make_group(3), (1, 1, 1))
    assert sums3[0].to_integer() == 3
    assert sums3[1] == 0 and sums3[2] == 0


def test_dedekind_frozen_values():
    assert dedekind_product(make_group(2), (3, 1)) == 8
    assert dedekind_product(make_group(3), (1, 2, 3)) == 18
    assert dedekind_product(make_group((1,)), (5,)) == 5
    assert dedekind_product(make_group((2, 2)), (2, 0, 0, 0)) == 16


@pytest.mark.parametrize(
    "orders", [(2,), (3,), (4,), (6,), (2, 2), (2, 3), (4, 2), (2, 2, 2), (3, 3), (12,), (2, 5)]
)
def test_dedekind_equals_determinant_randomized(orders):
    rng = random.Random(orders[0] * 100 + len(orders))
    g = make_group(orders)
    for _ in range(8):
        x = tuple(rng.randint(-4, 4) for _ in range(g.order))
        assert dedekind_product(g, x) == group_determinant(g, x)


def test_direct_product_factors_frozen():
    h = k = make_group(2)
    rep = direct_product_factors(h, k, (1, 1, 1, 0))
    assert [f.to_integer() for f in rep.factors] == [3, -1]
    assert rep.product == -3
    assert rep.direct_det == -3
    assert rep.match
    rep2 = direct_product_factors(h, k, (2, 0, 0, 0))
    assert [f.to_integer() for f in rep2.factors] == [4, 4]
    assert rep2.product == 16 and rep2.match
    rep0 = direct_product_factors(h, k, (0, 0, 0, 0))
    assert all(f == 0 for f in rep0.factors)
    assert rep0.product == 0 and rep0.match


@pytest.mark.parametrize(
    "orders", [(2, 2), (2, 3), (4, 2), (3, 3), (2, 2, 2), (2, 2, 3), (4, 4)]
)
def test_direct_product_factors_match_every_split(orders):
    rng = random.Random(sum(orders))
    g = make_group(orders)
    for cut in range(1, len(orders)):
        h, k = split_factors(g, cut)
        for _ in range(10):
            x = tuple(rng.randint(-3, 3) for _ in range(g.order))
            rep = direct_product_factors(h, k, x)
            assert rep.match, (orders, cut, x, rep.product, rep.direct_det)
            if g.order <= 6:
                assert rep.direct_det == naive_group_det(orders, x)


def test_factor_coefficients_frozen_per_index():
    # exact coefficient tuples in factor order, so a regrouping that permutes
    # the factors (or moves them to another level) fails here
    lap = laquer_factors(3, 5, (1, 0, 2, -1, 3, 0, 1, 1, -2, 0, 1, 2, 0, 0, 1))
    assert [f.level for f in lap.factors] == [15] * 5
    assert [f.coeffs for f in lap.factors] == [
        (108, 0, 0, 0, 0, 0, 0, 0),
        (-58, 0, 57, -108, 0, 0, -14, 57),
        (-1, 0, -43, 57, 0, 0, -51, -43),
        (50, 0, -108, 94, 0, 0, 51, -108),
        (-44, 0, 94, -43, 0, 0, 14, 94),
    ]
    assert lap.product == 7359074748 and lap.match
    h, k = split_factors(make_group((2, 3)), 1)
    rep = direct_product_factors(h, k, (1, 2, 0, -1, 3, 2))
    assert [f.level for f in rep.factors] == [6] * 3
    assert [f.coeffs for f in rep.factors] == [(-7, 0), (-18, 7), (-11, -7)]
    assert rep.product == -1729 and rep.match


def test_report_json_rendering():
    rep = direct_product_factors(make_group(2), make_group(3), (1, 0, 2, 0, 0, -1))
    data = rep.as_json_dict()
    assert data["match"] is True
    assert isinstance(data["product"], str) and isinstance(data["direct_det"], str)
    assert len(data["factors"]) == 3
    assert all(isinstance(f, str) for f in data["factors"])
    # the non-trivial K characters give genuinely cyclotomic factors here
    assert any("z" in f for f in data["factors"])


@pytest.mark.parametrize(
    "orders,cut", [((2, 2), 1), ((4, 2), 1), ((2, 3), 1), ((3, 2), 1), ((2, 4), 1), ((2, 2, 2), 2)]
)
def test_direct_product_factor_is_twisted_h_determinant(orders, cut):
    # factor i is the H-determinant of y_h = sum_k chi_i(k) x_(h,k), taken here
    # by cofactor expansion over Z[zeta_L] on the twisted assignment itself
    rng = random.Random(29)
    h, k = split_factors(make_group(orders), cut)
    level = direct_product(h, k).exponent
    k_elems = enumerate_elements(k)
    for _ in range(3):
        x = tuple(rng.randint(-3, 3) for _ in range(h.order * k.order))
        rep = direct_product_factors(h, k, x)
        for chi, factor in zip(enumerate_characters(k), rep.factors, strict=True):
            twist = [char_value(chi, g).embed(level) for g in k_elems]
            zero = CyclotomicInt.zero(level)
            y = [
                sum((c * x[hi * k.order + ki] for ki, c in enumerate(twist)), zero)
                for hi in range(h.order)
            ]
            assert factor == cofactor_det(naive_group_matrix(h.orders, y)), (orders, cut, x, chi)


def test_integer_split_factors_frozen():
    h = make_group(2)
    assert integer_split_factors(h, 1, (1, 0, 0, 0)) == [1, 1]
    assert integer_split_factors(h, 1, (2, 0, 0, 0)) == [4, 4]
    assert integer_split_factors(h, 1, (1, 1, 1, 0)) == [3, -1]
    assert integer_split_factors(make_group((1,)), 2, (0, 0, 0, 0)) == [0, 0, 0, 0]


@pytest.mark.parametrize("h_orders,l", [((2,), 1), ((2,), 2), ((4,), 1), ((3,), 1), ((2, 2), 1), ((1,), 1)])
def test_integer_split_matches_general_split(h_orders, l):
    rng = random.Random(l * 10 + h_orders[0])
    h = make_group(h_orders)
    k = make_group((2,) * l)
    g = direct_product(h, k)
    for _ in range(8):
        x = tuple(rng.randint(-4, 4) for _ in range(g.order))
        ints = integer_split_factors(h, l, x)
        general = direct_product_factors(h, k, x)
        assert sorted(ints) == sorted(f.to_integer() for f in general.factors)
        assert general.match


def test_sign_twists_match_sign_characters():
    vals = tuple(range(-8, 8))  # H of order 4 times (Z/2Z)^2
    k = make_group((2, 2))
    expected = [
        [sum(char_sign(chi, e) * vals[4 * h + i] for i, e in enumerate(enumerate_elements(k)))
         for h in range(4)]
        for chi in enumerate_characters(k)
    ]
    assert sign_twists(2, vals) == expected


def test_integer_split_validation():
    with pytest.raises(ValueError):
        integer_split_factors(make_group(2), 0, (1, 1))
    with pytest.raises(ValueError):
        integer_split_factors(make_group(2), 1, (1, 1, 1))
    with pytest.raises(ValueError, match="int"):
        integer_split_factors(make_group(2), 1, (1, 1, 1, 0.5))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda values: norm_factors(make_group(2), values),
        lambda values: dedekind_product(make_group(2), values),
        lambda values: character_sums(make_group(2), values),
        lambda values: integer_split_factors(make_group(1), 1, values),
    ],
    ids=["norm_factors", "dedekind_product", "character_sums", "integer_split_factors"],
)
@pytest.mark.parametrize("values", [(0.5, 0.5), (1, 2.0), (1, "2"), (root_power(3, 1), 0)])
def test_non_integer_assignments_are_rejected(evaluate, values):
    with pytest.raises(ValueError, match="int"):
        evaluate(values)


def test_laquer_frozen_values():
    unit = laquer_factors(3, 2, (1, 0, 0, 0, 0, 0))
    assert [f.to_integer() for f in unit.factors] == [1, 1]
    assert unit.product == 1 and unit.direct_det == 1 and unit.match

    rep = laquer_factors(3, 2, (1, 1, 0, 0, 0, 0))
    assert [f.to_integer() for f in rep.factors] == [2, 0]
    assert rep.product == 0 and rep.direct_det == 0 and rep.match

    # cofactor-oracle value: C_6(1,2,3,4,5,6) = -27216
    full = laquer_factors(3, 2, (1, 2, 3, 4, 5, 6))
    assert [f.to_integer() for f in full.factors] == [252, -108]
    assert full.product == -27216
    assert full.direct_det == -27216
    assert full.match


@pytest.mark.parametrize("r,s", [(3, 2), (5, 2), (3, 5), (5, 3)])
def test_laquer_product_equals_circulant(r, s):
    rng = random.Random(r * 10 + s)
    n = r * s
    for _ in range(8):
        xs = tuple(rng.randint(-2, 2) for _ in range(n))
        rep = laquer_factors(r, s, xs)
        assert rep.match
        assert rep.product == circulant_det(n, xs)


def test_laquer_validation():
    with pytest.raises(ValueError):
        laquer_factors(2, 4, (1,) * 8)
    with pytest.raises(ValueError):
        laquer_factors(3, 2, (1, 2, 3))


def test_crt_transport_frozen():
    assert crt_transport(3, 2, (0, 1, 2, 3, 4, 5)) == (0, 3, 2, 5, 4, 1)
    # transport follows the residue decomposition exactly
    g = make_group((3, 2))
    xs = tuple(range(10, 16))
    moved = crt_transport(3, 2, xs)
    for x in range(6):
        a, b = crt_decompose(6, 3, 2, x)
        assert moved[a * 2 + b] == xs[x]


def test_transport_preserves_determinant():
    rng = random.Random(29)
    for r, s in [(3, 2), (5, 2), (3, 5)]:
        for _ in range(6):
            xs = tuple(rng.randint(-3, 3) for _ in range(r * s))
            moved = crt_transport(r, s, xs)
            assert group_determinant(make_group((r, s)), moved) == circulant_det(r * s, xs)


def test_laquer_agrees_with_split_frozen():
    assert laquer_agrees_with_split(3, 2, (1, 0, 0, 0, 0, 0))
    assert laquer_agrees_with_split(3, 2, (1, 1, 0, 0, 0, 0))


@pytest.mark.parametrize("r,s,bound", [(3, 2, 3), (5, 2, 2), (3, 5, 2)])
def test_laquer_agrees_with_split_randomized(r, s, bound):
    rng = random.Random(r + s)
    for _ in range(8):
        xs = tuple(rng.randint(-bound, bound) for _ in range(r * s))
        assert laquer_agrees_with_split(r, s, xs), (r, s, xs)


def test_dedekind_propagates_internal_errors():
    # a non-integer final product would be an internal inconsistency; the sum
    # of all character products over any integer assignment is always integral,
    # so just confirm the strict accessor is really in the path
    sums = character_sums(make_group(3), (0, 1, 0))
    with pytest.raises(NotRationalError):
        sums[1].to_integer()


# The packed products against the reference: the CyclotomicInt product of the
# character_sums, grouped by the restriction rule c mod |K|.
PACKED_SHAPES = [(1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,), (2, 2), (4, 2),
                 (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)]
LAQUER_PAIRS = [(1, 3), (3, 1), (2, 3), (3, 2), (5, 2), (2, 5), (4, 3), (3, 4), (3, 5)]


@st.composite
def packed_point(draw, n):
    """The all-(+-B) point, B * delta_e, a random-sign point or a random point,
    with B up to 2^64."""
    B = draw(st.one_of(st.integers(0, 4), st.integers(0, 2**64)))
    kind = draw(st.sampled_from(["all", "delta", "signs", "random"]))
    if kind == "all":
        return (draw(st.sampled_from([B, -B])),) * n
    if kind == "delta":
        return (B,) + (0,) * (n - 1)
    if kind == "signs":
        return tuple(draw(st.lists(st.sampled_from([B, -B]), min_size=n, max_size=n)))
    return tuple(draw(st.lists(st.integers(-B, B), min_size=n, max_size=n)))


def reference_report(split, factors, direct):
    product = reduce(operator.mul, factors).to_integer()
    return FactorizationReport(split, tuple(factors), product, direct, product == direct)


def restricted(sums, width, i):
    return reduce(operator.mul, [f for c, f in enumerate(sums) if c % width == i])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_packed_dedekind_and_splits_equal_reference(data):
    orders = data.draw(st.sampled_from(PACKED_SHAPES))
    g = make_group(orders)
    x = data.draw(packed_point(g.order))
    sums = character_sums(g, x)
    assert dedekind_product(g, x) == reduce(operator.mul, sums).to_integer()
    for cut in range(1, len(orders)):
        h, k = split_factors(g, cut)
        rep = direct_product_factors(h, k, x)
        ref = reference_report(
            rep.split, [restricted(sums, k.order, i) for i in range(k.order)],
            group_determinant(g, x),
        )
        assert rep == ref and rep.match
        assert rep.as_json_dict() == ref.as_json_dict()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_laquer_equals_reference(data):
    r, s = data.draw(st.sampled_from(LAQUER_PAIRS))
    xs = data.draw(packed_point(r * s))
    sums = character_sums(make_group(r * s), xs)
    rep = laquer_factors(r, s, xs)
    ref = reference_report(
        rep.split, [restricted(sums, s, r * i % s) for i in range(s)], circulant_det(r * s, xs)
    )
    assert rep == ref and rep.match
    assert rep.as_json_dict() == ref.as_json_dict()


@pytest.mark.parametrize("N", [*range(1, 31), 104, 105, 165, 195, 210])
def test_power_bound_is_the_largest_power_coefficient(N):
    expected = max(abs(c) for k in range(N) for c in root_power(N, k).coeffs)
    assert _power_bound(N) == expected == (2 if N in (105, 165, 195, 210) else 1)


def test_packed_split_at_a_level_with_power_bound_two():
    # 3x5x7 has exponent 105, where x^k mod Phi_105 has a coefficient 2
    g = make_group((3, 5, 7))
    h, k = split_factors(g, 2)
    rng = random.Random(105)
    x = tuple(rng.randint(-2, 2) for _ in range(g.order))
    rep = direct_product_factors(h, k, x)
    sums = character_sums(g, x)
    # direct_det is the report's own Bareiss run, so only the factors and product are re-derived
    ref = reference_report(rep.split, [restricted(sums, 7, i) for i in range(7)], rep.direct_det)
    assert rep == ref and rep.match
    assert rep.as_json_dict() == ref.as_json_dict()
    # the width carries C_105 = 2: 2^b >= 4 * 2 * L^15 + 1 for factors of 15 sums
    x = (2,) + (0,) * (g.order - 1)
    _, (N, b, q) = _packed_products(g, x, restriction(g.orders, range(7)))
    assert N == 105 and 1 << b >= 4 * 2 * 2**15 + 1
    assert q == sum(c << b * i for i, c in enumerate(cyclotomic_polynomial(105)))
    assert dedekind_product(g, x) == 2**105


@pytest.mark.parametrize(
    "orders,x",
    [((2,), (3, 0)), ((2,), (-3, 0)), ((2, 2), (3, 0, 0, 0)), ((2, 2), (2**64 - 1, 0, 0, 0)),
     ((2, 2), (2**64, 0, 0, 0)), ((2, 2), (-(2**64) + 1, 0, 0, 0))],
)
def test_packed_total_width_tight_end(orders, x):
    # at exponent 2, q = w + 1 and the product B^n sits next to q/2: no slack
    g = make_group(orders)
    assert dedekind_product(g, x) == group_determinant(g, x) == x[0] ** g.order


@pytest.mark.parametrize("B", [3, -3, 2**64 - 1, 2**64])
def test_packed_factor_width_tight_end(B):
    # at B * delta_e every factor of 5 sums is B^5 = A, the coefficient bound
    # itself, and the factor bound sets the width (phi(10) = 4 > |K| = 2)
    x = (B,) + (0,) * 9
    h, k = split_factors(make_group((5, 2)), 1)
    for rep in (laquer_factors(5, 2, x), direct_product_factors(h, k, x)):
        assert [f.to_integer() for f in rep.factors] == [B**5, B**5]
        assert rep.product == rep.direct_det == B**10 and rep.match


@pytest.mark.parametrize("N,b", [(1, 5), (5, 3), (12, 4), (15, 7)])
def test_unpack_reads_exactly_the_phi_digit_range(N, b):
    # phi balanced base-w digits in [-w/2, w/2) reach from -(w/2) S to (w/2 - 1) S,
    # S = (w^phi - 1)/(w - 1); one past either end leaves a digit over and raises. q is built
    # by hand, odd and past twice either end, so every residue here is its own symmetric one
    phi = len(cyclotomic_polynomial(N)) - 1
    w, half = 1 << b, 1 << b - 1
    ones = (w**phi - 1) // (w - 1)
    q = (1 << b * (phi + 2)) + 1
    packing = (N, b, q)
    low, high = _unpack([-half * ones % q, (half - 1) * ones % q], packing)
    assert low.coeffs == (-half,) * phi and high.coeffs == (half - 1,) * phi
    for r in (-half * ones - 1, (half - 1) * ones + 1):
        with pytest.raises(ArithmeticError):
            _unpack([r % q], packing)
