import random

import pytest
import sympy

from groupdet import (
    CyclotomicInt,
    LevelMismatchError,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    root_power,
)
from oracles import poly_divmod


def test_phi_frozen_small_levels():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # oracle: divide x^6 - 1 by Phi_1, Phi_2, Phi_3 explicitly
    q, r = poly_divmod([-1, 0, 0, 0, 0, 0, 1], [-1, 1])
    assert r == []
    q, r = poly_divmod(q, [1, 1])
    assert r == []
    q, r = poly_divmod(q, [1, 1, 1])
    assert r == []
    assert q == [1, -1, 1]
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_phi_matches_sympy_and_totient_degree(n):
    x = sympy.Symbol("x")
    expected = tuple(int(c) for c in reversed(sympy.cyclotomic_poly(n, x).as_poly(x).all_coeffs()))
    assert cyclotomic_polynomial(n) == expected
    assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)
    assert euler_phi(n) == int(sympy.totient(n))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_phi_prime_pattern(p):
    assert cyclotomic_polynomial(p) == (1,) * p


def test_phi_constant_term_one():
    for n in range(2, 65):
        assert cyclotomic_polynomial(n)[0] == 1


def test_root_power_frozen():
    assert root_power(4, 1).coeffs == (0, 1)
    assert root_power(2, 1) == -1
    assert root_power(6, 3) == -1  # zeta_6^3 = -1
    assert root_power(1, 0) == 1
    assert root_power(5, 7) == root_power(5, 2)
    with pytest.raises(ValueError):
        root_power(0, 1)


def test_arithmetic_frozen_identities():
    z3 = root_power(3, 1)
    assert z3 + root_power(3, 2) == -1
    assert root_power(4, 1) * root_power(4, 1) == -1
    assert (1 + z3) * (1 + root_power(3, 2)) == 1
    assert 2 * z3 - z3 == z3
    assert (z3 - z3).to_integer() == 0


def test_geometric_sum_vanishes():
    for n in range(2, 25):
        total = CyclotomicInt.zero(n)
        for k in range(n):
            total = total + root_power(n, k)
        assert total == 0


def test_inverse_roots():
    for n in range(1, 25):
        for k in range(n):
            assert root_power(n, k) * root_power(n, n - k) == 1


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for level in (3, 4, 6, 8, 12):
        deg = euler_phi(level)
        def rand():
            return CyclotomicInt(level, tuple(rng.randint(-5, 5) for _ in range(deg)))
        for _ in range(40):
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + 0 == a and a * 1 == a


def test_level_mismatch_raises():
    with pytest.raises(LevelMismatchError):
        root_power(3, 1) + root_power(4, 1)
    with pytest.raises(LevelMismatchError):
        root_power(3, 1) * root_power(6, 1)


def test_to_integer():
    assert CyclotomicInt.integer(6, -7).to_integer() == -7
    assert CyclotomicInt.integer(1, 5).to_integer() == 5
    with pytest.raises(NotRationalError):
        root_power(4, 1).to_integer()


def test_embed_frozen():
    # rational integers are level independent
    assert CyclotomicInt.integer(2, -1).embed(6) == CyclotomicInt.integer(6, -1)
    # zeta_3 -> zeta_6^2 = zeta_6 - 1 in canonical coefficients
    assert root_power(3, 1).embed(6).coeffs == (-1, 1)
    # zeta_2 -> zeta_4^2 = -1
    assert root_power(2, 1).embed(4) == -1
    with pytest.raises(ValueError):
        root_power(4, 1).embed(6)


def test_embed_is_ring_homomorphism():
    rng = random.Random(5)
    for n, m in [(2, 4), (3, 6), (4, 12), (6, 24), (3, 24), (1, 7)]:
        deg = euler_phi(n)
        for _ in range(20):
            a = CyclotomicInt(n, tuple(rng.randint(-4, 4) for _ in range(deg)))
            b = CyclotomicInt(n, tuple(rng.randint(-4, 4) for _ in range(deg)))
            assert (a * b).embed(m) == a.embed(m) * b.embed(m)
            assert (a + b).embed(m) == a.embed(m) + b.embed(m)
    # embedding preserves the root: zeta_n = (zeta_m)^(m/n)
    for n, m in [(2, 4), (3, 6), (4, 12), (6, 24)]:
        assert root_power(n, 1).embed(m) == root_power(m, m // n)


def test_from_polynomial_reduces():
    # x^2 mod Phi_6 = x - 1
    assert CyclotomicInt.from_polynomial(6, (0, 0, 1)).coeffs == (-1, 1)
    # x^6 mod Phi_6 = 1
    assert CyclotomicInt.from_polynomial(6, (0, 0, 0, 0, 0, 0, 1)) == 1
    with pytest.raises(ValueError):
        CyclotomicInt(6, (1, 2, 3))  # wrong length for phi(6) = 2


def test_render():
    assert root_power(4, 1).render() == "1*z (level 4)"
    assert CyclotomicInt.integer(4, 0).render() == "0 (level 4)"
    assert str(CyclotomicInt.from_polynomial(6, (2, -3))) == "2 - 3*z (level 6)"


def test_hash_consistency():
    a = root_power(6, 1) + 1
    b = CyclotomicInt.from_polynomial(6, (1, 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("level", [1, 4, 12])
def test_a_rational_element_hashes_as_its_int(level):
    # __eq__ makes a rational element equal to its int, so sets and dicts
    # must find one by the other
    for value in (5, 0, -7, 2**70):
        element = CyclotomicInt.integer(level, value)
        assert element == value and hash(element) == hash(value)
        assert value in {element} and element in {value}
        assert {value: "x"}.get(element) == "x" and {element: "x"}.get(value) == "x"
    if level > 2:
        assert len({root_power(level, 1), 1, CyclotomicInt.one(level)}) == 2
