"""Finite-field and Galois-ring tables for the basis constructions, built from powers of x.

Both structures are a polynomial ring modulo a monic f over Z_r whose root x
generates the nonzero elements (GF(p^n): f is the Conway polynomial, r = p)
or the Teichmueller units (GR(4, n): f is its basic primitive Hensel lift,
r = 4).  One shift-and-reduce loop lists the coefficient rows of x^0, x^1,
..., and one routine sums Frobenius orbits of those rows into the traces
tr(x^e) = sum_{j<n} x^(e p^j).  Everything else is integer-array indexing on
exponents: products are exponent sums.  The bases need no field addition
(the trace is additive), so no addition table is built.

Field elements are integers 0 .. q-1 whose base-p digits are the polynomial
coefficients, constant term first; the fixed Conway moduli make every table
identical across builds and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_FIELD_ORDER = 64

# Conway polynomials for p^n <= 64, coefficients in ascending degree
# (constant term first, monic leading 1 included).  Prime fields (n = 1)
# never consult this table.
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


def _power_traces(rows: np.ndarray, p: int, r: int) -> np.ndarray:
    """tr(x^e) = sum_{j<n} x^(e p^j) for e < len(rows), where x has order len(rows).

    Frobenius raises the powers of x to the p-th power, so the conjugates of
    x^e are read off the same rows; every trace must land in Z_r.
    """
    order, n = rows.shape
    e = np.arange(order)
    traces = rows[(e[:, None] * p ** np.arange(n)) % order].sum(axis=1) % r
    if traces[:, 1:].any():
        raise AssertionError(f"a trace over Z_{r} has a non-constant term")
    return traces[:, 0]


@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) with exhaustive multiplication and trace tables.

    Immutable after construction; safe to share between threads.
    """

    p: int
    n: int
    q: int
    mul_table: np.ndarray = field(repr=False)
    trace_table: np.ndarray = field(repr=False)  # field trace down to GF(p), in 0 .. p-1


def build_field(p: int, n: int) -> FiniteField:
    """Construct GF(p^n), p prime, p^n <= MAX_FIELD_ORDER.

    Deterministic for fixed (p, n): extension fields always use the Conway
    polynomial from the built-in table.
    """
    if factor_prime_power(p) != (p, 1):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    q = p**n
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds maximum {MAX_FIELD_ORDER}")

    idx = np.arange(q)
    if n == 1:
        mul = (idx[:, None] * idx[None, :]) % p
        trace = idx.copy()
    else:
        place = p ** np.arange(n)
        powers = _x_powers(_CONWAY[(p, n)], p, q - 1)
        antilog = powers @ place  # antilog[e] is the label of x^e
        if not np.array_equal(np.sort(antilog), idx[1:]):
            raise AssertionError(f"Conway root does not generate GF({p}^{n})*")
        log = np.zeros(q, dtype=np.int64)
        log[antilog] = np.arange(q - 1)
        mul = antilog[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = mul[:, 0] = 0
        trace = np.zeros(q, dtype=np.int64)
        trace[antilog] = _power_traces(powers, p, p)

    for a in range(1, q):
        if np.count_nonzero(mul[a] == 1) != 1:
            raise AssertionError(f"element {a} has no unique inverse; bad modulus?")

    for arr in (mul, trace):
        arr.setflags(write=False)
    return FiniteField(p=p, n=n, q=q, mul_table=mul, trace_table=trace)


class GaloisRing4:
    """GR(4, n): the Galois ring Z4[x]/(f) behind the even-dimension bases.

    f is the basic primitive Hensel lift of the degree-n Conway polynomial
    over GF(2): the first monic lift (in increasing mask order) whose root
    xi has multiplicative order 2^n - 1.

    `teichmuller` is the read-only (d, n) array of coefficient rows of
    T = {0, 1, xi, ..., xi^(2^n - 2)}, constant term first; the phase table
    over T + 2T is all the basis construction needs.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.d = d = 2**n
        base = (1, 1) if n == 1 else _CONWAY[(2, n)]
        masks = (np.arange(d)[:, None] >> np.arange(n)) & 1  # candidate lift `mask`, bit i
        cands = np.ones((d, n + 1), dtype=np.int64)
        cands[:, :n] = (np.asarray(base[:n]) + 2 * masks) % 4
        powers = _x_powers(cands, 4, d)  # [e, mask, coefficient]
        is_one = (powers == powers[0]).all(axis=2)
        primitive = is_one[d - 1] & ~is_one[1 : d - 1].any(axis=0)
        if not primitive.any():
            raise AssertionError(f"no basic primitive lift found for n={n}")
        first = int(primitive.argmax())
        self.modulus = cands[first].tolist()
        t = np.vstack([np.zeros((1, n), dtype=np.int64), powers[: d - 1, first]])
        t.setflags(write=False)
        self.teichmuller = t
        # every ring element is a + 2b for exactly one pair (a, b) in T x T
        sums = ((t[:, None, :] + 2 * t[None, :, :]) % 4) @ 4 ** np.arange(n)
        if not np.array_equal(np.sort(sums, axis=None), np.arange(4**n)):
            raise AssertionError("2-adic decomposition is not a bijection")

    def phase_exponents(self) -> np.ndarray:
        """uint8 array E[a, b, x] = trace((T[a] + 2 T[b]) * T[x]) in Z4.

        Indices run over the Teichmueller set; this is the full phase data
        of the d unbiased bases in dimension d = 2^n.  T is closed under
        multiplication, the trace is Z4-linear and Frobenius acts on T as
        squaring, so E[a, b, x] = S[a, x] + 2 S[b, x] mod 4 with
        S[a, x] = tr(T[a] T[x]), and the d - 1 traces tr(xi^e) fill S
        through exponent addition.
        """
        d = self.d
        traces = _power_traces(self.teichmuller[1:], 2, 4)
        e = np.arange(d - 1)
        s = np.zeros((d, d), dtype=np.uint8)
        s[1:, 1:] = traces[(e[:, None] + e[None, :]) % (d - 1)]
        return (s[:, None, :] + 2 * s[None, :, :]) % 4  # uint8 throughout: at most 3 + 2 * 3
