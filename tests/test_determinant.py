import ast
import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdet
from groupdet import (
    bareiss_det,
    build_group_matrix,
    circulant_det,
    convolve,
    enumerate_elements,
    group_determinant,
    index_of,
    make_group,
    root_power,
)
from groupdet.determinant import _split_blocks, _split_table
from groupdet.groups import translation_is_even
from oracles import (cofactor_det, cyclotomic_poly, fraction_det, naive_group_det,
                     naive_group_matrix, poly_mul, poly_reduced, subgroup_factor)


def test_build_group_matrix_frozen():
    g3 = make_group(3)
    assert build_group_matrix(g3, (1, 2, 3)) == [
        [1, 3, 2],
        [2, 1, 3],
        [3, 2, 1],
    ]
    g2 = make_group(2)
    assert build_group_matrix(g2, (7, 5)) == [[7, 5], [5, 7]]
    g22 = make_group((2, 2))
    assert build_group_matrix(g22, (2, 0, 0, 0)) == [
        [2, 0, 0, 0],
        [0, 2, 0, 0],
        [0, 0, 2, 0],
        [0, 0, 0, 2],
    ]


@pytest.mark.parametrize("orders", [(1,), (2,), (4,), (12,), (2, 2), (2, 3), (3, 3), (4, 2),
                                    (6, 4), (2, 2, 2)])
def test_build_group_matrix_matches_definition(orders):
    rng = random.Random(2)
    g = make_group(orders)
    x = tuple(rng.randint(-9, 9) for _ in range(g.order))
    assert build_group_matrix(g, x) == naive_group_matrix(orders, list(x))


def test_assignment_length_checked():
    with pytest.raises(ValueError):
        group_determinant(make_group(3), (1, 2))
    with pytest.raises(ValueError):
        circulant_det(2, (1, 2, 3))


def test_bareiss_frozen_values():
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert group_determinant(make_group(2), (3, 1)) == 8
    assert circulant_det(3, (1, 2, 3)) == 18
    assert circulant_det(1, (9,)) == 9
    assert circulant_det(6, (1, 1, 0, 0, 0, 0)) == 0
    assert group_determinant(make_group((2, 2)), (2, 0, 0, 0)) == 16
    assert group_determinant(make_group((2, 2)), (1, 1, 1, -1)) == -16


def test_identity_assignment_gives_one():
    for orders in [(2,), (3,), (2, 2), (4, 2), (2, 2, 2), (12,)]:
        g = make_group(orders)
        x = [0] * g.order
        x[0] = 1
        assert group_determinant(g, x) == 1


def test_bareiss_matches_cofactor_oracle_randomized():
    rng = random.Random(17)
    trials = 0
    for _ in range(260):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == cofactor_det(m)
        trials += 1
    assert trials >= 250


def test_bareiss_zero_pivot_paths():
    # leading zero entry forces a row swap
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 0], [0, 0]]) == 0
    # zero column short-circuits
    assert bareiss_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    # singular but nonzero
    assert bareiss_det([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0


def test_bareiss_rejects_bad_matrices():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2], [3]])
    with pytest.raises(ValueError):
        bareiss_det([[1, root_power(4, 1)], [0, 1]])
    with pytest.raises(ValueError):
        bareiss_det([[root_power(4, 1), root_power(3, 1)], [0, 0]])
    # integer-only elimination: a cyclotomic assignment is refused, not evaluated
    with pytest.raises(ValueError):
        group_determinant(make_group(2), (root_power(3, 1) + 2, root_power(3, 2)))


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (6,), (4, 2), (2, 2, 2), (8,)])
def test_group_determinant_matches_naive_oracle(orders):
    rng = random.Random(31)
    g = make_group(orders)
    for _ in range(8):
        x = tuple(rng.randint(-3, 3) for _ in range(g.order))
        assert group_determinant(g, x) == naive_group_det(orders, x)


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 2), (2, 3), (4, 2), (2, 2, 3)])
def test_convolution_multiplicativity(orders):
    rng = random.Random(41)
    g = make_group(orders)
    for _ in range(10):
        x = tuple(rng.randint(-3, 3) for _ in range(g.order))
        y = tuple(rng.randint(-3, 3) for _ in range(g.order))
        assert group_determinant(g, convolve(g, x, y)) == group_determinant(g, x) * group_determinant(g, y)


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (2, 3), (4, 2), (2, 2, 2)])
def test_translation_preserves_absolute_value(orders):
    rng = random.Random(43)
    g = make_group(orders)
    elems = enumerate_elements(g)
    for _ in range(5):
        x = tuple(rng.randint(-3, 3) for _ in range(g.order))
        base = abs(group_determinant(g, x))
        for a in elems:
            translated = tuple(
                x[index_of(g, tuple((gi + ai) % ni for gi, ai, ni in zip(e, a, g.orders)))]
                for e in elems
            )
            assert abs(group_determinant(g, translated)) == base


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (5,), (2, 2), (2, 3), (4, 2), (2, 2, 2), (12,)])
def test_unit_scaling_automorphism_invariance(orders):
    rng = random.Random(47)
    g = make_group(orders)
    elems = enumerate_elements(g)
    N = g.exponent
    units = [u for u in range(1, N + 1) if gcd(u, N) == 1]
    for _ in range(4):
        x = tuple(rng.randint(-3, 3) for _ in range(g.order))
        base = group_determinant(g, x)
        for u in units:
            relabeled = tuple(
                x[index_of(g, tuple(u * gi % ni for gi, ni in zip(e, g.orders)))]
                for e in elems
            )
            assert group_determinant(g, relabeled) == base


def test_inversion_relabel_preserves_value():
    # g -> -g is the u = N-1 unit scaling; spot-check it directly
    g = make_group(5)
    x = (1, 2, 3, 4, 5)
    inv = tuple(x[(-i) % 5] for i in range(5))
    assert group_determinant(g, inv) == group_determinant(g, x)


# G[2] of rank l = 0 to 4, a direct factor or not (8, 16, 4x4, 8x2, 2x2x3); G[p] for p = 3,
# 5 and 7 of rank 1 to 3, a direct factor or not (9, 27, 25, 3x9, 21)
SPLIT_SHAPES = [(1,), (2,), (2, 2), (2, 2, 2, 2), (8,), (16,), (4, 4), (8, 2), (2, 2, 3), (15,),
                (3, 3), (4, 2), (6,), (9,), (27,), (25,), (3, 9), (5, 5), (3, 3, 3), (2, 3, 3),
                (21,)]
SMALL = st.integers(-3, 3)
HUGE = st.integers(-(2**80), 2**80)


@st.composite
def split_points(draw):
    """A shape and an assignment of small, huge or zero entries; sparse ones
    give blocks with a zero pivot, and a zero sum a zero determinant."""
    orders = draw(st.sampled_from(SPLIT_SHAPES))
    dim = make_group(orders).order
    entry = draw(st.sampled_from([SMALL, HUGE, st.one_of(st.just(0), SMALL, HUGE),
                                  st.sampled_from([0, 0, 0, 1, -1])]))
    xs = draw(st.lists(entry, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        xs[-1] -= sum(xs)
    return orders, tuple(xs)


@settings(max_examples=200, deadline=None)
@given(split_points())
def test_split_determinant_matches_full_elimination_and_the_oracles(point):
    orders, xs = point
    g = make_group(orders)
    det = group_determinant(g, xs)
    assert det == bareiss_det(build_group_matrix(g, xs))
    # cofactor expansion where it is cheap, else rational elimination
    oracle = naive_group_det if g.order <= 8 else lambda o, x: fraction_det(naive_group_matrix(o, x))
    assert det == oracle(orders, xs)
    if sum(xs) == 0:
        assert det == 0


@pytest.mark.parametrize("orders", SPLIT_SHAPES)
def test_split_table_has_one_cell_per_pair_of_transversal_elements(orders):
    p, rank, n, cells, lines = _split_table(orders)
    m = p**rank
    dim = make_group(orders).order
    assert rank == sum(k % p == 0 for k in orders)
    assert n * m == dim and len(cells) == n * n * m
    # every cell (i, i) holds the elements of K = G[p], the identity first
    g = make_group(orders)
    members = [index_of(g, e) for e in enumerate_elements(g)
               if all(p * c % k == 0 for c, k in zip(e, orders))]
    for i in range(n):
        diagonal = cells[(i * n + i) * m:(i * n + i + 1) * m]
        assert diagonal[0] == 0 and sorted(diagonal) == members
    # B_1, then one block per line of F_p^rank
    assert len(lines) == 1 + (m - 1) // (p - 1)


# the prime of fewest elimination steps |T|^3 (1 + (p^l - 1)(p - 1)^2), ties to the smaller;
# None where K is trivial
@pytest.mark.parametrize("orders,prime", [
    ((15,), 3), ((3, 3), 3), ((9,), 3), ((27,), 3), ((3, 9), 3), ((21,), 3), ((2, 3, 3), 3),
    ((25,), 5), ((5, 5), 5), ((7,), 7), ((2, 2, 3), 2), ((6,), 2), ((10,), 2), ((12,), 2),
    ((4, 2), 2), ((16,), 2), ((2, 2, 2, 2), 2), ((1,), None)])
def test_the_split_prime_needs_the_fewest_elimination_steps(orders, prime):
    p, rank = _split_table(orders)[:2]
    assert (p if rank else None) == prime


@pytest.mark.parametrize("orders", [(9,), (15,), (3, 3), (2, 3, 3)])
def test_each_block_is_the_product_of_the_subgroup_factors_of_its_line(orders):
    # the block of line c has determinant prod_u det_(G/K)(y_psi) over psi = psi_c^u, u = 1,
    # ..., p - 1, psi_c(kappa) = zeta_p^<c, kappa>; B_1 is the factor of psi = 1
    g = make_group(orders)
    p, _, _, _, lines = _split_table(orders)
    members = [index_of(g, e) for e in enumerate_elements(g)
               if all(p * c % k == 0 for c, k in zip(e, orders))]
    along = [i for i, k in enumerate(orders) if k % p == 0]
    phi = cyclotomic_poly(g.exponent)
    rng = random.Random(53)
    points = [(1,) * g.order, tuple(range(g.order))]
    points += [tuple(rng.randint(-3, 3) for _ in range(g.order)) for _ in range(3)]
    for xs in points:
        blocks = list(_split_blocks(g, xs))
        assert len(blocks) == len(lines)
        for (c, *_), rows in zip(lines, blocks):
            product = [1]
            for u in range(1, p) if any(c) else [0]:
                chi = [0] * len(orders)
                for i, ci in zip(along, c):
                    chi[i] = u * ci
                product = poly_reduced(poly_mul(product, subgroup_factor(orders, members, chi, xs)),
                                       phi)
            assert product == [bareiss_det(rows)] + [0] * (len(phi) - 2)


@pytest.mark.parametrize("orders", SPLIT_SHAPES)
def test_a_translation_matrix_has_the_sign_of_its_permutation(orders):
    # the group matrix of the indicator of a is the permutation matrix of
    # translation by a; every block off K has a zero (0, 0) entry, so the
    # elimination swaps rows
    g = make_group(orders)
    for i, a in enumerate(enumerate_elements(g)):
        xs = [0] * g.order
        xs[i] = 1
        assert group_determinant(g, xs) == (1 if translation_is_even(g, a) else -1)


def test_library_has_no_assert_statements():
    # python -O strips assert, so exactness checks in the library must raise
    package = Path(groupdet.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
