"""characters.restriction, the one rule by which every split groups the
characters: against char_exponent by brute force, the packed products it
groups against the cofactor oracle of det_(G/K)(y_psi), and the Galois orbits
whose first character alone keys the orbit norms."""

from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdet import char_exponent, enumerate_characters, enumerate_elements, make_group
from groupdet.characters import restriction
from groupdet.factorization import _packed_products, _unpack
from groupdet.norms import orbit_plan
from oracles import subgroup_factor

SHAPES = [(1,), (2,), (3,), (4,), (6,), (8,), (12,), (2, 2), (4, 2), (2, 4), (3, 3), (2, 6),
          (3, 2, 2), (2, 2, 2), (5, 3)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_restriction_groups_the_characters_that_agree_on_members(data):
    orders = data.draw(st.sampled_from(SHAPES))
    n = prod(orders)
    members = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
    g = make_group(orders)
    elements = enumerate_elements(g)
    keys = [tuple(char_exponent(chi, elements[m]) for m in members)
            for chi in enumerate_characters(g)]
    slots = restriction(orders, members)
    assert len(slots) == n
    for c, d in product(range(n), repeat=2):
        assert (slots[c] == slots[d]) == (keys[c] == keys[d])
    # numbered in order of first appearance, the trivial character first
    seen = []
    for slot in slots:
        if slot not in seen:
            assert slot == len(seen)
            seen.append(slot)
    # each restriction is taken by |G| / |K| characters, |K| the number of slots
    assert all(slots.count(i) == n // len(seen) for i in seen)


@pytest.mark.parametrize("orders,k", [((3, 2), 2), ((4, 2), 2), ((3, 2, 2), 4), ((5, 3), 3),
                                      ((2, 2, 2), 8)])
def test_the_last_factors_restrict_to_c_mod_k(orders, k):
    assert restriction(orders, range(k)) == tuple(c % k for c in range(prod(orders)))


@pytest.mark.parametrize("r,s", [(3, 5), (4, 3), (2, 5), (4, 2), (2, 4), (6, 4), (1, 7), (7, 1)])
def test_r_in_z_rs_restricts_to_c_mod_s(r, s):
    n = r * s
    assert restriction((n,), (r % n,)) == tuple(c % s for c in range(n))


@pytest.mark.parametrize("orders", [(2,), (4,), (8,), (12,), (4, 2), (2, 4), (6, 4), (3, 4, 2)])
def test_the_element_of_order_two_restricts_to_a_i_mod_2(orders):
    for i, n in enumerate(orders):
        if n % 2 == 0:
            k = n // 2 * prod(orders[i + 1:])
            slots = restriction(orders, (k,))
            assert slots == tuple(a[i] % 2 for a in enumerate_elements(make_group(orders)))


def test_restriction_is_built_once_per_shape_and_members():
    restriction.cache_clear()
    for _ in range(3):
        restriction((4, 2), range(2))
    info = restriction.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# (orders, members): K not a direct factor (<2> in Z/8, <(2, 0)> in 4x2, <2>
# in Z/4 and in Z/12, <(1, 1)> in 2x2 and 3x3), a two-generator direct
# factor (2x2 in 3x2x2, as its elements and as two generators), a cyclic
# direct factor hidden in a cyclic group (<2> in Z/6) and K = 1, K = G
SUBGROUPS = [((8,), (2,)), ((4, 2), (4,)), ((4,), (2,)), ((12,), (2,)), ((2, 2), (3,)),
             ((3, 3), (4,)), ((3, 2, 2), range(4)), ((3, 2, 2), (1, 2)), ((6,), (2,)),
             ((4, 2), ()), ((4, 2), (1, 2))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_each_slot_is_the_factor_of_its_restriction(data):
    orders, members = data.draw(st.sampled_from(SUBGROUPS))
    n = prod(orders)
    x = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    slots = restriction(orders, members)
    products, packing = _packed_products(make_group(orders), x, slots)
    assert len(products) == max(slots) + 1
    chars = enumerate_elements(make_group(orders))  # exponent tuples, in character order
    for i, packed in enumerate(products):
        chi = chars[slots.index(i)]
        assert list(_unpack(packed, packing).coeffs) == subgroup_factor(orders, members, chi, x)


def galois_orbit(orders, a):
    """The exponent tuples u a, u a unit mod the order of the character a."""
    d = lcm(*(n // gcd(ai, n) for ai, n in zip(a, orders)))
    return {tuple(u * ai % n for ai, n in zip(a, orders)) for u in range(1, d + 1)
            if gcd(u, d) == 1}


def shapes(limit):
    """Every shape of order at most limit with at most four factors of 2 and up."""
    out = []

    def grow(shape, size):
        if shape:
            out.append(shape)
        for n in range(2, limit // size + 1):
            if len(shape) < 4:
                grow(shape + (n,), size * n)

    grow((), 1)
    return out


# every shape that a split or a sign grouping runs on in the tests, and more
ORBIT_SHAPES = shapes(24) + [(4, 4), (16,), (2, 2, 2, 2, 2), (4, 2, 2, 2), (8, 4), (32,)]


@pytest.mark.parametrize("orders", [o for o in ORBIT_SHAPES if prod(o) % 2 == 0],
                         ids=lambda o: "x".join(map(str, o)))
def test_a_galois_orbit_keeps_its_restriction_to_an_exponent_two_subgroup(orders):
    # _sign_keys and split_lookups read the slot of an orbit's first character
    # only, which is exact because K = (Z/2Z)^l or <k> has exponent 2: a unit
    # u is odd, and chi^u(h) = chi(h)^u = chi(h) for chi(h) = +-1
    g = make_group(orders)
    elements = enumerate_elements(g)
    index = {a: c for c, a in enumerate(elements)}
    ks = [n // 2 * prod(orders[i + 1:]) for i, n in enumerate(orders) if n % 2 == 0]
    l = next(j for j in range(len(orders), -1, -1) if orders[len(orders) - j:] == (2,) * j)
    subgroups = [(k,) for k in ks] + [range(1 << j) for j in range(1, l + 1)]
    orbits = [galois_orbit(orders, elements[o.char]) for o in orbit_plan(orders, 0).orbits]
    assert sorted(index[a] for orbit in orbits for a in orbit) == list(range(g.order))
    for members in subgroups:
        slots = restriction(orders, members)
        for orbit in orbits:
            assert len({slots[index[a]] for a in orbit}) == 1


def test_an_orbit_splits_over_a_subgroup_of_exponent_three():
    # the control: Z/3's characters 1 and 2 form one orbit, restricted to Z/3 apart
    assert galois_orbit((3,), (1,)) == {(1,), (2,)}
    assert restriction((3,), (1,)) == (0, 1, 2)
