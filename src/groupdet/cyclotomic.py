"""Exact arithmetic in the rings of cyclotomic integers Z[zeta_N].

An element is a canonical coefficient vector modulo the N-th cyclotomic
polynomial Phi_N, so equality and rational-integer tests are exact. Levels
never mix implicitly: combining different levels requires an explicit embed().
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


class LevelMismatchError(ValueError):
    """Arithmetic combined cyclotomic integers of different levels."""


class NotRationalError(ValueError):
    """A cyclotomic integer was required to be a rational integer but is not."""


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Quotient of num by a monic den (coefficients low degree first), exact."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, low degree first: (x^N - 1) / prod(Phi_d : d | N, d < N)."""
    if N < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {N}")
    if N == 1:
        return (-1, 1)
    poly = [0] * (N + 1)
    poly[0], poly[N] = -1, 1
    for d in range(1, N):
        if N % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce(coeffs, N: int):
    """Canonical residue of a coefficient list modulo Phi_N, padded to degree phi(N)."""
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    c = list(coeffs)
    if len(c) < deg:
        c.extend([0] * (deg - len(c)))
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            c[i] = 0
            base = i - deg
            for j in range(deg):
                c[base + j] -= t * phi[j]
    return tuple(c[:deg])


class CyclotomicInt:
    """An element of Z[zeta_level], reduced modulo Phi_level (coefficients low degree
    first); immutable."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: tuple[int, ...]) -> None:
        if not isinstance(coeffs, tuple):
            coeffs = tuple(coeffs)
        deg = len(cyclotomic_polynomial(level)) - 1
        if len(coeffs) != deg:
            raise ValueError(f"level {level} needs exactly {deg} coefficients, got {len(coeffs)}")
        _set_level(self, level)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return CyclotomicInt, (self.level, self.coeffs)

    @staticmethod
    def from_polynomial(level: int, coeffs: Sequence[int]) -> CyclotomicInt:
        """The class of any integer polynomial in zeta_level, reduced to canonical form."""
        return CyclotomicInt(level, _reduce(coeffs, level))

    @staticmethod
    def integer(level: int, value: int) -> CyclotomicInt:
        return CyclotomicInt.from_polynomial(level, (value,))

    @staticmethod
    def zero(level: int) -> CyclotomicInt:
        return CyclotomicInt.integer(level, 0)

    @staticmethod
    def one(level: int) -> CyclotomicInt:
        return CyclotomicInt.integer(level, 1)

    def _coerce(self, other) -> "CyclotomicInt | None":
        if isinstance(other, int):
            return CyclotomicInt.integer(self.level, other)
        if isinstance(other, CyclotomicInt):
            if other.level != self.level:
                raise LevelMismatchError(
                    f"levels {self.level} and {other.level} differ; embed() one side first"
                )
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicInt(self.level, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CyclotomicInt:
        return CyclotomicInt(self.level, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicInt(self.level, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.level, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return CyclotomicInt(self.level, _reduce(out, self.level))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CyclotomicInt.integer(self.level, other)
        if isinstance(other, CyclotomicInt):
            return self.level == other.level and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # a rational element equals its int (__eq__), so it hashes as that int
        return hash(self.coeffs[0] if not any(self.coeffs[1:]) else (self.level, self.coeffs))

    def to_integer(self) -> int:
        """The value as a rational integer; NotRationalError when degree > 0 terms remain."""
        if any(self.coeffs[1:]):
            raise NotRationalError(f"{self.render()} is not a rational integer")
        return self.coeffs[0]

    def embed(self, target_level: int) -> CyclotomicInt:
        """Image under zeta_N -> zeta_M^(M/N); requires N | M."""
        if target_level < 1 or target_level % self.level:
            raise ValueError(
                f"cannot embed level {self.level} into level {target_level}: not a multiple"
            )
        k = target_level // self.level
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return CyclotomicInt.from_polynomial(target_level, out)

    def render(self) -> str:
        """Human-readable form "c0 + c1*z + ..." (z = zeta_level); for reports only."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{body} (level {self.level})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CyclotomicInt({self.level}, {self.coeffs})"


# Arithmetic builds many of these, so the constructor fills the slots through
# their descriptors, which is faster than object.__setattr__.
_set_level = CyclotomicInt.level.__set__
_set_coeffs = CyclotomicInt.coeffs.__set__


def root_power(N: int, k: int) -> CyclotomicInt:
    """zeta_N^k in canonical form."""
    if N < 1:
        raise ValueError(f"no root of unity of order {N}")
    e = k % N
    return CyclotomicInt.from_polynomial(N, [0] * e + [1])

