"""Finite-field and Galois-ring arithmetic for the basis constructions.

Field elements are integers ``0 .. q-1`` whose base-``p`` digits are the
coefficients of a polynomial over GF(p), constant term first.  Arithmetic
is table-driven: the orders involved (q <= 64 by default) are small enough
that exhaustive q x q tables are cheaper and safer than clever arithmetic.

Extension fields use a fixed Conway polynomial per (p, n), so the tables
are identical across builds and platforms.

The Galois ring GR(4, n) for even dimensions needs only its trace on
products of Teichmueller elements.  That table is closed-form: the
Teichmueller set is closed under multiplication, the trace is Z4-linear and
Frobenius squares Teichmueller elements, so all d^3 phase exponents follow
from the d - 1 traces tr(xi^e) by integer-array indexing.
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


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for f in range(2, int(p**0.5) + 1):
        if p % f == 0:
            return False
    return True


def factor_prime_power(d: int):
    """Return (p, n) with d = p^n and p prime, or None if d is not a prime power."""
    if d < 2:
        return None
    for p in range(2, d + 1):
        if d % p:
            continue
        n = 0
        m = d
        while m % p == 0:
            m //= p
            n += 1
        return (p, n) if m == 1 and is_prime(p) else None
    return None


def _digits(e: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(e % p)
        e //= p
    return out


def _encode(digits, p: int) -> int:
    e = 0
    for c in reversed(digits):
        e = e * p + int(c)
    return e


@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) with exhaustive addition/multiplication/trace tables.

    Immutable after construction; safe to share between threads.
    """

    p: int
    n: int
    q: int
    add_table: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)
    trace_table: np.ndarray = field(repr=False)  # field trace down to GF(p), in 0 .. p-1


def _poly_mul_mod(da, db, modulus, p):
    """Multiply two coefficient lists mod (modulus, p); modulus is monic, ascending."""
    n = len(modulus) - 1
    prod = [0] * (len(da) + len(db) - 1)
    for i, a in enumerate(da):
        if a == 0:
            continue
        for j, b in enumerate(db):
            prod[i + j] = (prod[i + j] + a * b) % p
    # reduce x^k for k >= n using x^n = -(lower-degree part)
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for i in range(n):
            prod[k - n + i] = (prod[k - n + i] - c * modulus[i]) % p
    out = prod[:n] + [0] * (n - len(prod))
    return out[:n] if n > 0 else [0]


def build_field(p: int, n: int, max_order: int = MAX_FIELD_ORDER) -> FiniteField:
    """Construct GF(p^n), p prime, p^n <= max_order.

    Deterministic for fixed (p, n): extension fields always use the Conway
    polynomial from the built-in table.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    q = p**n
    if q > max_order:
        raise ValueError(f"field order {q} exceeds maximum {max_order}")

    if n == 1:
        idx = np.arange(q)
        add = (idx[:, None] + idx[None, :]) % p
        mul = (idx[:, None] * idx[None, :]) % p
        trace = idx.copy()
    else:
        modulus = _CONWAY[(p, n)]
        digs = [_digits(e, p, n) for e in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(a, q):
                s = _encode([(x + y) % p for x, y in zip(digs[a], digs[b])], p)
                m = _encode(_poly_mul_mod(digs[a], digs[b], modulus, p), p)
                add[a, b] = add[b, a] = s
                mul[a, b] = mul[b, a] = m
        # trace(a) = sum_{k<n} a^(p^k); lands in the prime subfield
        trace = np.zeros(q, dtype=np.int64)
        for a in range(q):
            term = a
            acc = a
            for _ in range(n - 1):
                term = _pow(mul, term, p)
                acc = int(add[acc, term])
            if acc >= p:
                raise AssertionError(f"trace of element {a} not in prime subfield")
            trace[a] = acc

    for a in range(1, q):
        if np.count_nonzero(mul[a] == 1) != 1:
            raise AssertionError(f"element {a} has no unique inverse; bad modulus?")

    for arr in (add, mul, trace):
        arr.setflags(write=False)
    return FiniteField(p=p, n=n, q=q, add_table=add, mul_table=mul, trace_table=trace)


def _pow(mul_table: np.ndarray, a: int, e: int) -> int:
    acc = 1
    base = a
    while e:
        if e & 1:
            acc = int(mul_table[acc, base])
        base = int(mul_table[base, base])
        e >>= 1
    return acc


class GaloisRing4:
    """GR(4, n): the Galois ring Z4[x]/(f) behind the even-dimension bases.

    f is the basic primitive Hensel lift of the degree-n Conway polynomial
    over GF(2): the unique monic lift (searched in increasing mask order)
    whose root xi has multiplicative order 2^n - 1.  Elements are length-n
    tuples of Z4 coefficients, constant term first.

    Exposes the Teichmueller set T = {0, 1, xi, ..., xi^(2^n - 2)} and the
    table of ring traces over T + 2T, which is all the basis construction
    needs.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.d = 2**n
        base = (1, 1) if n == 1 else _CONWAY[(2, n)]
        self.modulus = self._lift_modulus(base)
        self.teichmuller = self._build_teichmuller()
        self._check_two_adic()

    # -- ring arithmetic on coefficient tuples -------------------------------

    def mul(self, a, b):
        return tuple(_poly_mul_mod(list(a), list(b), self.modulus, 4))

    def add(self, a, b):
        return tuple((x + y) % 4 for x, y in zip(a, b))

    def _scale(self, a, c):
        return tuple((x * c) % 4 for x in a)

    @property
    def zero(self):
        return (0,) * self.n

    @property
    def one(self):
        return (1,) + (0,) * (self.n - 1)

    def _lift_modulus(self, base):
        target = self.d - 1
        for mask in range(self.d):
            cand = [
                (base[i] + 2 * ((mask >> i) & 1)) % 4 for i in range(self.n)
            ] + [1]
            order = self._order_of_x(cand)
            if order == target:
                return cand
        raise AssertionError(f"no basic primitive lift found for n={self.n}")

    def _order_of_x(self, modulus):
        one = self.one
        x = tuple(int(i == 1) for i in range(self.n)) if self.n > 1 else ((-modulus[0]) % 4,)
        acc = x
        cap = self.d * (self.d - 1) + 1
        for k in range(1, cap):
            if acc == one:
                return k
            acc = tuple(_poly_mul_mod(list(acc), list(x), modulus, 4))
        return 0

    def _build_teichmuller(self):
        xi = tuple(int(i == 1) for i in range(self.n)) if self.n > 1 else ((-self.modulus[0]) % 4,)
        t = [self.zero, self.one]
        for _ in range(self.d - 2):
            t.append(self.mul(t[-1], xi))
        return t

    def _check_two_adic(self):
        """Every ring element is a + 2b for exactly one pair (a, b) in T x T."""
        sums = {self.add(a, self._scale(b, 2)) for a in self.teichmuller for b in self.teichmuller}
        if len(sums) != 4**self.n:
            raise AssertionError("2-adic decomposition is not a bijection")

    # -- trace ----------------------------------------------------------------

    def phase_exponents(self) -> np.ndarray:
        """uint8 array E[a, b, x] = trace((T[a] + 2 T[b]) * T[x]) in Z4.

        Indices run over the Teichmueller set; this is the full phase data
        of the d unbiased bases in dimension d = 2^n.  T is closed under
        multiplication, the trace is Z4-linear and Frobenius acts on T as
        squaring, so E[a, b, x] = S[a, x] + 2 S[b, x] mod 4 with
        S[a, x] = tr(T[a] T[x]), and the d - 1 traces
        tr(xi^e) = sum_{j<n} xi^(e 2^j) fill S through exponent addition.
        """
        d, n = self.d, self.n
        order = d - 1
        t = np.array(self.teichmuller, dtype=np.int64)  # (d, n) coefficient rows
        e = np.arange(order)
        conj = (e[:, None] * (2 ** np.arange(n))[None, :]) % order  # exponents of xi^(e 2^j)
        traces = t[1 + conj].sum(axis=1) % 4  # (d - 1, n)
        if traces[:, 1:].any():
            raise AssertionError("a trace of a Teichmueller element is not in Z4")
        s = np.zeros((d, d), dtype=np.int64)
        s[1:, 1:] = traces[(e[:, None] + e[None, :]) % order, 0]
        return ((s[:, None, :] + 2 * s[None, :, :]) % 4).astype(np.uint8)
