"""Independent oracle implementations used to freeze expected test values.

Nothing in here imports the package under test. The determinant oracle is
plain cofactor expansion; the group matrix is rebuilt from the definition
entry (g, h) = x_(g - h) with its own indexing; CRT decomposition is brute
force; orbit norms are determinants of multiplication matrices, eliminated
over the rationals; the factors of det_G = prod over psi of det_(G/K)(y_psi)
are cofactor expansions over Z[x]/Phi_N(x) of the group matrix of G/K. Slow on
purpose: these only run on tiny inputs.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def elements(orders):
    return list(product(*[range(n) for n in orders]))


def naive_group_matrix(orders, values):
    elems = elements(orders)
    pos = {e: i for i, e in enumerate(elems)}
    mat = []
    for g in elems:
        row = []
        for h in elems:
            diff = tuple((gi - hi) % ni for gi, hi, ni in zip(g, h, orders))
            row.append(values[pos[diff]])
        mat.append(row)
    return mat


def naive_group_det(orders, values):
    return cofactor_det(naive_group_matrix(orders, list(values)))


def sign_twists(l, values):
    """The twisted assignments y_h = sum_k (-1)^popcount(a & k) x_(h 2^l + k)
    of H, one per sign character a of (Z/2)^l in character order, for an
    assignment of H x (Z/2)^l: the bits of a and k are their coordinates,
    the last factor's lowest."""
    size = 1 << l
    return [[sum(-x if bin(a & k).count("1") % 2 else x
                 for k, x in enumerate(values[start:start + size]))
             for start in range(0, len(values), size)]
            for a in range(size)]


def brute_crt(n, r, s, x):
    for a in range(r):
        for b in range(s):
            if (a * s + b * r) % n == x % n:
                return (a, b)
    raise AssertionError(f"no CRT decomposition of {x} for {n} = {r} * {s}")


def box_value_set(orders, box):
    dim = 1
    for n in orders:
        dim *= n
    return {
        naive_group_det(orders, vals)
        for vals in product(range(-box, box + 1), repeat=dim)
    }


def first_witness(orders, box, target):
    dim = 1
    for n in orders:
        dim *= n
    for vals in product(range(-box, box + 1), repeat=dim):
        if naive_group_det(orders, vals) == target:
            return vals
    return None


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_divmod(num, den):
    """Long division by a monic integer polynomial, low degree first."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def cyclotomic_poly(d):
    """Phi_d, low degree first: x^d - 1 divided by Phi_e for every e | d, e < d."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num, rest = poly_divmod(num, cyclotomic_poly(e))
            assert not rest
    return num


def fraction_det(m):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    assert det.denominator == 1
    return int(det)


def multiplication_norm(d, coeffs):
    """The norm from Q(zeta_d) to Q of sum_j coeffs[j] zeta_d^j: the
    determinant of multiplication by it on the basis 1, zeta, ..., zeta^(phi-1)."""
    p = cyclotomic_poly(d)
    phi = len(p) - 1
    _, a = poly_divmod(coeffs, p)
    cols = [a + [0] * (phi - len(a))]
    for _ in range(phi - 1):
        # multiply the previous column by zeta, reducing zeta^phi by Phi_d
        b = cols[-1]
        top = b[-1]
        cols.append([-top * p[0]] + [b[j - 1] - top * p[j] for j in range(1, phi)])
    return fraction_det(cols)


def orbit_norms(orders, values):
    """The norm of sum_g chi(g) x_g for each Galois orbit {chi^u : u a unit mod
    the order d of chi} of characters, in order of the orbit's first
    character; characters chi_a(g) = exp(2 pi i sum_i a_i g_i / n_i) are
    indexed like the elements."""
    elems = elements(orders)
    seen = set()
    out = []
    for a in elems:
        if a in seen:
            continue
        d = lcm(*(n // gcd(ai, n) for ai, n in zip(a, orders)))
        seen |= {tuple(u * ai % n for ai, n in zip(a, orders))
                 for u in range(1, d + 1) if gcd(u, d) == 1}
        coeffs = [0] * d
        for g, x in zip(elems, values):
            coeffs[sum(gi * (ai * d // n) for gi, ai, n in zip(g, a, orders)) % d] += x
        out.append(multiplication_norm(d, coeffs))
    return out


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_reduced(a, p):
    """a mod the monic p, as its deg p coefficients, low degree first."""
    _, rest = poly_divmod(a, p)
    return rest + [0] * (len(p) - 1 - len(rest))


def poly_cofactor_det(m, p):
    """Cofactor expansion of a matrix of integer polynomials, reduced mod the monic p."""
    if len(m) == 1:
        return poly_reduced(m[0][0], p)
    total = [0]
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = poly_mul(m[0][j], poly_cofactor_det(minor, p))
        total = poly_add(total, term if j % 2 == 0 else [-c for c in term])
    return poly_reduced(total, p)


def subgroup_factor(orders, members, chi, values):
    """det_(G/K)(y_psi) as its phi(N) coefficients in zeta_N, N the exponent of
    G, K the subgroup generated by the elements of index members and psi the
    restriction to K of the character chi (exponent tuple a, chi(g) =
    zeta_N^(sum_i a_i g_i N / n_i)): the cofactor expansion over Z[x]/Phi_N(x)
    of the G/K group matrix, entry (p, q) = y_psi(p - q), where
    y_psi(q) = sum over g in q of chi(g) x_g. Any chi restricting to psi gives
    the same factor."""
    elems = elements(orders)
    N = lcm(*orders)

    def add(g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, orders))

    subgroup = {tuple(0 for _ in orders)}
    frontier = list(subgroup)
    while frontier:
        g = frontier.pop()
        for m in members:
            h = add(g, elems[m])
            if h not in subgroup:
                subgroup.add(h)
                frontier.append(h)
    reps, coset_of = [], {}
    for g in elems:
        if g not in coset_of:
            coset_of.update((add(g, k), len(reps)) for k in subgroup)
            reps.append(g)
    y = [[0] * N for _ in reps]
    for g, x in zip(elems, values):
        y[coset_of[g]][sum(a * gi * (N // n) for a, gi, n in zip(chi, g, orders)) % N] += x
    matrix = [[y[coset_of[add(p, tuple(-b % n for b, n in zip(q, orders)))]] for q in reps]
              for p in reps]
    return poly_cofactor_det(matrix, cyclotomic_poly(N))
