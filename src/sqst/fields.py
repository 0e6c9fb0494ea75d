"""Phase exponents of the basis constructions: one trace form over the powers of a primitive root.

GF(p^n) (r = p) and the Galois ring GR(4, n) (p = 2, r = 4) are both Z_r[x]
modulo a monic f whose root x has order q - 1 = p^n - 1, so x^0 .. x^(q-2)
are the nonzero field elements or the Teichmueller units.  One search takes
the first candidate f whose root has that order, which certifies f: for
p = 2 the Hensel lifts of the Conway polynomial to Z4 (the first is its basic
primitive lift), for odd p and n > 1 the Conway polynomial, for odd p and
n = 1 x - g over g = 1 .. p-1 (the first is the least primitive root, the
Conway choice of degree 1).  One shift-and-reduce loop lists the rows of
x^0, x^1, ..., and one trace form S[a, x] = tr(x^(a+x)) is read off their
Frobenius orbits.  Products are exponent sums, and the bases need no
addition table because the trace is additive.

Odd-p field elements are integers 0 .. q-1 whose base-p digits are the
polynomial coefficients, constant term first; the fixed moduli make every
table identical across builds and platforms.
"""

from __future__ import annotations

import numpy as np

MAX_FIELD_ORDER = 64

# Conway polynomials for p^n <= 64, n > 1, coefficients in ascending degree
# (constant term first, monic leading 1 included).
_CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def factor_prime_power(d: int):
    """Return (p, n) with d = p^n and p prime, or None if d is not a prime power."""
    if d < 2:
        return None
    p = next(f for f in range(2, d + 1) if d % f == 0)  # the least factor above 1 is prime
    n, m = 0, d
    while m % p == 0:
        m, n = m // p, n + 1
    return (p, n) if m == 1 else None


def field_order(d: int) -> tuple:
    """(p, n) with d = p^n <= MAX_FIELD_ORDER, the dimensions a basis family serves; else ValueError."""
    if d > MAX_FIELD_ORDER:  # before factoring: the trial division runs up to d
        raise ValueError(f"dimension {d} exceeds maximum {MAX_FIELD_ORDER}")
    if (pn := factor_prime_power(d)) is None:
        raise ValueError(f"dimension {d} is not a prime power; maximal MUB unsupported")
    return pn


def _x_powers(modulus, r: int, count: int) -> np.ndarray:
    """Coefficient rows of x^0 .. x^(count-1) modulo the monic ascending `modulus` over Z_r.

    A stack of moduli (..., n + 1) gives the rows of each, shaped (count, ..., n).
    """
    low = np.asarray(modulus, dtype=np.int64)[..., :-1]
    rows = np.zeros((count, *low.shape), dtype=np.int64)
    rows[0, ..., 0] = 1
    for k in range(1, count):
        prev = rows[k - 1]
        rows[k, ..., 1:] = prev[..., :-1]
        rows[k] = (rows[k] - prev[..., -1:] * low) % r  # x^n = -(low part of the modulus)
    return rows


def _primitive_powers(p: int, n: int):
    """(modulus, rows of x^0 .. x^(q-2)) for the first candidate whose root x has order q - 1."""
    q, r = p**n, 4 if p == 2 else p
    cands = np.array([((-g) % p, 1) for g in range(1, p)] if n == 1 else [_CONWAY[(p, n)]])
    if p == 2:  # the lifts to Z4: bit i of the mask adds 2 to coefficient i
        cands = cands + 2 * ((np.arange(q)[:, None] >> np.arange(n + 1)) & 1)
    powers = _x_powers(cands, r, q)  # [e, candidate, coefficient]
    is_one = (powers == powers[0]).all(axis=2)
    primitive = is_one[q - 1] & ~is_one[1 : q - 1].any(axis=0)
    if not primitive.any():
        raise AssertionError(f"no modulus for p={p}, n={n} has a root of order {q - 1}")
    first = int(primitive.argmax())
    return cands[first].tolist(), powers[: q - 1, first]


def _trace_form(rows: np.ndarray, p: int, r: int) -> np.ndarray:
    """uint8 S[i, j] = tr(x^(i-1) x^(j-1)) over Z_r, and 0 where i or j is 0, the zero element.

    tr(x^e) = sum_{j<n} x^(e p^j), where x has order len(rows): Frobenius
    raises the powers of x to the p-th power, so the conjugates of x^e are
    read off the same rows; every trace must land in Z_r.
    """
    order, n = rows.shape
    e = np.arange(order)
    traces = rows[(e[:, None] * p ** np.arange(n)) % order].sum(axis=1) % r
    if traces[:, 1:].any():
        raise AssertionError(f"a trace over Z_{r} has a non-constant term")
    s = np.zeros((order + 1, order + 1), dtype=np.uint8)
    s[1:, 1:] = traces[(e[:, None] + e[None, :]) % order, 0]
    return s


def phase_exponents(p: int, n: int) -> np.ndarray:
    """uint8 E[a, b, x]: the phase data of the q = p^n unbiased bases in dimension q.

    p = 2: E = tr((T[a] + 2 T[b]) T[x]) in Z4 over the Teichmueller set
    T = {0, 1, x, ..., x^(q-2)}.  T is closed under multiplication, the
    trace is Z4-linear and Frobenius acts on T as squaring, so
    E = S[a, x] + 2 S[b, x] mod 4.
    Odd p: E = tr(a x^2 + b x) in Z_p over the field labels, that is
    S[a, x^2] + S[b, x] mod p re-indexed from powers of x to labels.
    """
    if field_order(p**n) != (p, n):
        raise ValueError(f"no field of order {p}^{n} <= {MAX_FIELD_ORDER} with p prime, n >= 1")
    q = p**n
    _, rows = _primitive_powers(p, n)
    s = _trace_form(rows, p, 4 if p == 2 else p)
    if p == 2:
        return (s[:, None, :] + 2 * s[None, :, :]) % 4  # uint8 throughout: at most 3 + 2 * 3
    sq = np.concatenate([[0], 1 + 2 * np.arange(q - 1) % (q - 1)])  # index of x^2 for each index x
    exps = (s[:, None, sq] + s[None, :, :]) % p  # [a, b, x] by power index; < 2p fits uint8
    at = np.argsort(np.concatenate([[0], rows @ p ** np.arange(n)]))  # power index of each label
    return exps[np.ix_(at, at, at)]
