import random

import pytest

from groupdet import (
    AbelianGroup,
    crt_decompose,
    direct_product,
    element_at,
    enumerate_elements,
    format_group_spec,
    group_inv,
    group_op,
    index_of,
    make_group,
    parse_group_spec,
    split_factors,
)
from groupdet.groups import addition_table, automorphisms, translation_is_even
from oracles import brute_crt


def test_make_group_basic():
    g = make_group((2, 2))
    assert g.order == 4
    assert g.exponent == 2
    assert g.identity == (0, 0)
    assert make_group(6).orders == (6,)
    assert make_group((4, 2)).order == 8
    assert make_group((4, 2)).exponent == 4
    assert make_group((1,)).order == 1


def test_bad_orders_rejected():
    with pytest.raises(ValueError):
        make_group((0,))
    with pytest.raises(ValueError):
        make_group((3, -1))
    with pytest.raises(ValueError):
        AbelianGroup(())


def test_enumeration_order_last_coordinate_fastest():
    g = make_group((2, 3))
    assert enumerate_elements(g) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert enumerate_elements(make_group(4)) == [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (2, 3), (4, 2), (2, 2, 2), (4, 4, 2), (12,), (64,)])
def test_index_element_roundtrip(orders):
    g = make_group(orders)
    elems = enumerate_elements(g)
    assert len(elems) == g.order
    for i, e in enumerate(elems):
        assert index_of(g, e) == i
        assert element_at(g, i) == e


@pytest.mark.parametrize("orders", [(2,), (5,), (2, 2), (4, 2), (2, 3), (16,)])
def test_group_axioms_exhaustive(orders):
    g = make_group(orders)
    elems = enumerate_elements(g)
    for a in elems:
        assert group_op(g, a, group_inv(g, a)) == g.identity
        assert group_op(g, a, g.identity) == a
        for b in elems:
            assert group_op(g, a, b) == group_op(g, b, a)
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert group_op(g, group_op(g, a, b), c) == group_op(g, a, group_op(g, b, c))


def test_element_validation():
    g = make_group((4, 2))
    with pytest.raises(ValueError):
        index_of(g, (4, 0))
    with pytest.raises(ValueError):
        index_of(g, (0, 0, 0))
    with pytest.raises(ValueError):
        group_op(g, (0, 0), (-1, 0))
    with pytest.raises(ValueError):
        element_at(g, 8)


def test_split_and_product():
    g = make_group((4, 2, 3))
    h, k = split_factors(g, 1)
    assert h.orders == (4,) and k.orders == (2, 3)
    h, k = split_factors(g, 2)
    assert h.orders == (4, 2) and k.orders == (3,)
    assert direct_product(h, k).orders == (4, 2, 3)
    with pytest.raises(ValueError):
        split_factors(g, 0)
    with pytest.raises(ValueError):
        split_factors(g, 3)


def test_group_spec_strings():
    assert parse_group_spec("4x2").orders == (4, 2)
    assert parse_group_spec("6").orders == (6,)
    assert format_group_spec(make_group((2, 2, 2))) == "2x2x2"
    assert parse_group_spec(format_group_spec(make_group((3, 5)))).orders == (3, 5)
    with pytest.raises(ValueError):
        parse_group_spec("4x")
    with pytest.raises(ValueError):
        parse_group_spec("abc")
    with pytest.raises(ValueError):
        parse_group_spec("4x0")


def test_crt_frozen_values():
    # brute-force oracle table for n = 6 = 3 * 2
    assert crt_decompose(6, 3, 2, 0) == (0, 0)
    assert crt_decompose(6, 3, 2, 1) == (2, 1)
    assert crt_decompose(6, 3, 2, 5) == (1, 1)
    assert crt_decompose(15, 5, 3, 7) == (4, 2)


@pytest.mark.parametrize("n,r,s", [(6, 3, 2), (6, 2, 3), (10, 5, 2), (15, 5, 3), (15, 3, 5)])
def test_crt_matches_oracle_and_is_isomorphism(n, r, s):
    images = []
    for x in range(n):
        a, b = crt_decompose(n, r, s, x)
        assert (a, b) == brute_crt(n, r, s, x)
        assert 0 <= a < r and 0 <= b < s
        assert (a * s + b * r) % n == x
        images.append((a, b))
    assert len(set(images)) == n
    for x in range(n):
        for y in range(n):
            ax, bx = crt_decompose(n, r, s, x)
            ay, by = crt_decompose(n, r, s, y)
            assert crt_decompose(n, r, s, (x + y) % n) == ((ax + ay) % r, (bx + by) % s)


def test_crt_rejects_bad_split():
    with pytest.raises(ValueError):
        crt_decompose(6, 3, 3, 1)
    with pytest.raises(ValueError):
        crt_decompose(12, 6, 2, 1)
    with pytest.raises(ValueError):
        crt_decompose(6, 4, 2, 1)


@pytest.mark.parametrize("orders,count", [
    ((1,), 1), ((2,), 1), ((6,), 2), ((8,), 4), ((12,), 4), ((2, 2), 6), ((4, 2), 8), ((2, 4), 8),
    ((2, 6), 12), ((3, 3), 48), ((2, 2, 2), 168), ((4, 4), 96),
])
def test_automorphisms_are_the_bijective_homomorphisms(orders, count):
    g = make_group(orders)
    add = addition_table(g)
    tables = list(automorphisms(g, add))
    assert len(tables) == len(set(map(tuple, tables))) == count
    for t in tables:
        assert sorted(t) == list(range(g.order))
        assert all(t[add[i][j]] == add[t[i]][t[j]] for i in range(g.order) for j in range(g.order))


@pytest.mark.parametrize("orders", [(1,), (5,), (12,), (4, 2), (3, 3), (6, 4), (2, 2, 2)])
def test_addition_table_matches_group_op(orders):
    g = make_group(orders)
    elems = enumerate_elements(g)
    assert addition_table(g) == [[index_of(g, group_op(g, a, b)) for b in elems] for a in elems]


def test_translation_parity():
    # translation by a has |G|/ord(a) cycles of length ord(a)
    assert not translation_is_even(make_group(8), (1,))
    assert translation_is_even(make_group(8), (2,))
    assert not translation_is_even(make_group(6), (3,))
    assert translation_is_even(make_group(6), (2,))
    assert not translation_is_even(make_group(2), (1,))
    assert translation_is_even(make_group((2, 2)), (1, 0))
    assert translation_is_even(make_group((4, 2)), (1, 1))
