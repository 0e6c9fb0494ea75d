import numpy as np
import pytest

from oracles import GaloisRingTrace, field_add, first_basic_primitive_lift, poly_mul_mod
from sqst.fields import (_CONWAY, MAX_FIELD_ORDER, _primitive_powers, factor_prime_power,
                         phase_exponents)

FAMILIES = [pn for pn in map(factor_prime_power, range(2, MAX_FIELD_ORDER + 1)) if pn]


def test_prime_power_factoring():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(6) is None
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None
    assert len(FAMILIES) == 27


def _least_primitive_root(p: int) -> int:
    """Brute force: the least g whose powers g^1 .. g^(p-1) mod p are all distinct."""
    return next(g for g in range(1, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1)


@pytest.mark.parametrize("p,n", FAMILIES)
def test_modulus_search_takes_the_conway_choice_and_lists_the_powers_of_its_root(p, n):
    modulus, rows = _primitive_powers(p, n)
    if p == 2:
        assert modulus == first_basic_primitive_lift(n)
    elif n == 1:
        assert modulus == [(-_least_primitive_root(p)) % p, 1]
    else:
        assert modulus == list(_CONWAY[(p, n)])
    # the rows are x^0 .. x^(q-2) by schoolbook products, all distinct, and x^(q-1) = 1
    r, q = 4 if p == 2 else p, p**n
    x = ((-modulus[0]) % r,) if n == 1 else (0, 1) + (0,) * (n - 2)
    power = (1,) + (0,) * (n - 1)
    assert rows.shape == (q - 1, n)
    for row in rows:
        assert tuple(row) == power
        power = poly_mul_mod(power, x, modulus, r)
    assert power == (1,) + (0,) * (n - 1)
    assert len(np.unique(rows, axis=0)) == q - 1


def _schoolbook_exponents(p: int, n: int) -> np.ndarray:
    """E[a, b, x] = tr(a x^2 + b x) over GF(p^n) labels, from schoolbook products and digit sums.

    The trace is the sum of the n conjugates y, y^p, ..., each the p-th power
    of the last by repeated multiplication; it must land in GF(p).
    """
    q = p**n
    modulus = _CONWAY[(p, n)] if n > 1 else (0, 1)
    digits = [tuple((a // p**k) % p for k in range(n)) for a in range(q)]
    label = {dig: a for a, dig in enumerate(digits)}
    mul = np.array([[label[poly_mul_mod(u, v, modulus, p)] for v in digits] for u in digits])
    trace = np.zeros(q, dtype=np.int64)
    for a, conj in enumerate(digits):
        acc = a
        for _ in range(n - 1):
            power = digits[1]
            for _ in range(p):
                power = poly_mul_mod(power, conj, modulus, p)
            conj = power
            acc = int(field_add(acc, label[conj], p, n))
        assert acc < p, f"trace of {a} not in GF({p})"
        trace[a] = acc
    els = np.arange(q)
    ax2 = mul[:, mul[els, els]]  # [a, x] -> a x^2
    return trace[field_add(ax2[:, None, :], mul[None, :, :], p, n)]


@pytest.mark.parametrize("p,n", [pn for pn in FAMILIES if pn[0] > 2])
def test_odd_phase_exponents_match_the_schoolbook_trace(p, n):
    table = phase_exponents(p, n)
    assert table.dtype == np.uint8 and table.shape == (p**n,) * 3
    assert np.array_equal(table, _schoolbook_exponents(p, n))
    # the trace lands in GF(p) and is additive: tr(a x^2 + b x) = tr(a x^2) + tr(b x)
    assert table.max() < p
    assert np.array_equal(table, (table[:, :1, :] + table[None, 0, :, :]) % p)


@pytest.mark.parametrize("n", range(1, 7))
def test_galois_ring_phase_exponents_match_the_frobenius_trace(n):
    table = phase_exponents(2, n)
    assert table.dtype == np.uint8
    assert np.array_equal(table, GaloisRingTrace(n, first_basic_primitive_lift(n)).phase_exponents())


def test_galois_ring_trace_is_z4_linear():
    trace = GaloisRingTrace(3, first_basic_primitive_lift(3))
    t = trace.teichmuller
    for a in t[:4]:
        for b in t[:4]:
            assert trace(trace.add(a, b)) == (trace(a) + trace(b)) % 4
    # the table form of Z4-linearity: tr((a + 2b) x) = tr(a x) + 2 tr(b x)
    table = phase_exponents(2, 3).astype(int)
    assert np.array_equal(table, (table[:, :1, :] + 2 * table[None, :, 0, :]) % 4)


@pytest.mark.parametrize("p,n", [(4, 1), (6, 1), (1, 2), (2, 7), (2, 0), (67, 1)])
def test_phase_exponents_reject_bad_input(p, n):
    with pytest.raises(ValueError):
        phase_exponents(p, n)
