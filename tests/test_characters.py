import pytest

from groupdet import (
    Character,
    CyclotomicInt,
    char_exponent,
    char_sign,
    char_value,
    enumerate_characters,
    enumerate_elements,
    make_group,
    root_power,
    split_factors,
)
from groupdet.characters import exponent_table


def test_character_count_and_order():
    g = make_group((2, 3))
    chars = enumerate_characters(g)
    assert len(chars) == 6
    assert chars[0].is_trivial
    assert [c.exponents for c in chars] == [e for e in enumerate_elements(g)]


def test_char_values_cyclic():
    g = make_group(3)
    chi = Character(g, (1,))
    assert char_value(chi, (0,)) == 1
    assert char_value(chi, (1,)) == root_power(3, 1)
    assert char_value(chi, (2,)) == root_power(3, 2)
    g4 = make_group(4)
    assert char_value(Character(g4, (1,)), (1,)) == root_power(4, 1)
    assert char_exponent(Character(g4, (3,)), (2,)) == 2  # 3*2 mod 4


def test_char_value_product_group():
    g = make_group((2, 2))
    chi = Character(g, (1, 1))
    assert char_value(chi, (1, 1)) == 1
    assert char_value(chi, (1, 0)) == -1
    # exponent weighting: (4,2) has N = 4, second coordinate weighted by N/2
    g42 = make_group((4, 2))
    chi42 = Character(g42, (1, 1))
    assert char_exponent(chi42, (1, 1)) == 3  # 1*1 + 2*1 mod 4
    assert char_value(chi42, (0, 1)) == -1


def test_trivial_character_is_one_everywhere():
    for orders in [(2,), (5,), (4, 2), (2, 2, 2)]:
        g = make_group(orders)
        chi = enumerate_characters(g)[0]
        for e in enumerate_elements(g):
            assert char_value(chi, e) == 1


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (6,), (4, 2), (2, 2, 2), (3, 3), (16,)])
def test_orthogonality(orders):
    g = make_group(orders)
    elems = enumerate_elements(g)
    N = g.exponent
    for chi in enumerate_characters(g):
        total = CyclotomicInt.zero(N)
        for e in elems:
            total = total + char_value(chi, e)
        assert total == (g.order if chi.is_trivial else 0)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (6,), (4, 2), (2, 2, 2), (3, 3)])
def test_dual_orthogonality(orders):
    g = make_group(orders)
    chars = enumerate_characters(g)
    N = g.exponent
    for e in enumerate_elements(g):
        total = CyclotomicInt.zero(N)
        for chi in chars:
            total = total + char_value(chi, e)
        assert total == (g.order if e == g.identity else 0)


@pytest.mark.parametrize("orders,cut", [((2, 2), 1), ((2, 3), 1), ((4, 2), 1), ((2, 2, 2), 2), ((3, 3), 1)])
def test_characters_factor_along_splits(orders, cut):
    g = make_group(orders)
    h, k = split_factors(g, cut)
    N = g.exponent
    for chi in enumerate_characters(g):
        chi_h = Character(h, chi.exponents[:cut])
        chi_k = Character(k, chi.exponents[cut:])
        for e in enumerate_elements(g):
            lhs = char_value(chi, e)
            rhs = char_value(chi_h, e[:cut]).embed(N) * char_value(chi_k, e[cut:]).embed(N)
            assert lhs == rhs


@pytest.mark.parametrize("orders", [(1,), (2,), (6,), (4, 2), (2, 3), (2, 2, 2), (12,),
                                    (2, 2, 3), (3, 3), (6, 4), (2, 2, 2, 2)])
def test_exponent_table_rows_are_characters(orders):
    # the table is built factor by factor; char_exponent is the per-entry definition
    g = make_group(orders)
    table = exponent_table(g.orders)
    elems = enumerate_elements(g)
    assert [list(row) for row in table] == [
        [char_exponent(chi, e) for e in elems] for chi in enumerate_characters(g)
    ]


def test_char_sign_matches_char_value():
    for orders in [(2,), (2, 2), (2, 2, 2), (1, 2)]:
        g = make_group(orders)
        for chi in enumerate_characters(g):
            for e in enumerate_elements(g):
                assert char_sign(chi, e) == char_value(chi, e).to_integer()


def test_char_sign_frozen():
    g = make_group((2, 2))
    assert char_sign(Character(g, (1, 0)), (1, 1)) == -1
    assert char_sign(Character(g, (0, 0)), (1, 1)) == 1
    g2 = make_group(2)
    assert char_sign(Character(g2, (1,)), (1,)) == -1


def test_char_sign_rejects_larger_exponent():
    g = make_group((4, 2))
    chi = Character(g, (1, 0))
    with pytest.raises(ValueError):
        char_sign(chi, (1, 0))


def test_character_validation():
    g = make_group((2, 2))
    with pytest.raises(ValueError):
        Character(g, (2, 0))
    chi = Character(g, (1, 0))
    with pytest.raises(ValueError):
        char_exponent(chi, (0, 2))
