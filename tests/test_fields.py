import numpy as np
import pytest

from oracles import GaloisRingTrace, field_add, first_basic_primitive_lift, poly_mul_mod
from sqst.fields import _CONWAY, GaloisRing4, build_field, factor_prime_power


def test_prime_power_factoring():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(6) is None
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_gf2_is_xor():
    f = build_field(2, 1)
    assert field_add(0, 1, 2, 1) == 1 and field_add(1, 1, 2, 1) == 0
    assert f.mul_table[1, 1] == 1 and f.mul_table[0, 1] == 0


def test_gf3_is_mod3():
    f = build_field(3, 1)
    for a in range(3):
        for b in range(3):
            assert field_add(a, b, 3, 1) == (a + b) % 3
            assert f.mul_table[a, b] == (a * b) % 3


def test_gf4_cubes_are_one():
    # every nonzero element of GF(4) satisfies x^3 = 1
    f = build_field(2, 2)
    mul = f.mul_table
    for a in range(1, 4):
        cube = mul[a, mul[a, a]]
        assert cube == 1


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)])
def test_field_axioms_exhaustive(p, n):
    f = build_field(p, n)
    mul = f.mul_table
    els = np.arange(f.q)
    a, b, c = np.meshgrid(els, els, els, indexing="ij")
    add = field_add(els[:, None], els[None, :], p, n)
    assert np.array_equal(add[els, 0], els)
    assert np.array_equal(mul[els, 1], els)
    assert np.all(mul[els, 0] == 0)
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (3, 3), (5, 2)])
def test_every_nonzero_element_invertible(p, n):
    f = build_field(p, n)
    for a in range(1, f.q):
        assert np.count_nonzero(f.mul_table[a] == 1) == 1
    # zero has no multiplicative inverse
    assert not np.any(f.mul_table[0] == 1)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (7, 2)])
def test_trace_is_additive_and_in_prime_subfield(p, n):
    f = build_field(p, n)
    tr = f.trace_table
    assert np.all((0 <= tr) & (tr < p))
    els = np.arange(f.q)
    a, b = np.meshgrid(els, els, indexing="ij")
    assert np.array_equal(tr[field_add(a, b, p, n)], (tr[a] + tr[b]) % p)


@pytest.mark.parametrize("p,n", sorted(_CONWAY))
def test_field_tables_match_schoolbook_oracle(p, n):
    f = build_field(p, n)
    modulus = _CONWAY[(p, n)]
    digits = [tuple((a // p**k) % p for k in range(n)) for a in range(f.q)]
    label = {dig: a for a, dig in enumerate(digits)}
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul_table[a, b] == label[poly_mul_mod(digits[a], digits[b], modulus, p)]
        # trace(a) = a + a^p + ... + a^(p^(n-1)); each conjugate is p products of the last
        acc, conj = digits[a], digits[a]
        for _ in range(n - 1):
            power = digits[1]  # the element 1
            for _ in range(p):
                power = poly_mul_mod(power, conj, modulus, p)
            conj = power
            acc = tuple((x + y) % p for x, y in zip(acc, conj))
        assert acc == (f.trace_table[a],) + (0,) * (n - 1)


def test_build_field_is_deterministic():
    f1 = build_field(3, 3)
    f2 = build_field(3, 3)
    assert np.array_equal(f1.mul_table, f2.mul_table)
    assert np.array_equal(f1.trace_table, f2.trace_table)


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(6, 1)
    with pytest.raises(ValueError):
        build_field(2, 7)  # 128 > 64
    with pytest.raises(ValueError):
        build_field(2, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_galois_ring_teichmuller(n):
    ring = GaloisRing4(n)
    trace = GaloisRingTrace(ring)
    d = 2**n
    t = ring.teichmuller
    assert t.shape == (d, n) and not t.flags.writeable
    assert not t[0].any() and np.array_equal(t[1], np.eye(1, n, dtype=int)[0])
    # the nonzero part is the cyclic group of order d-1
    assert len(np.unique(t, axis=0)) == d
    table = ring.phase_exponents()
    for x, e in enumerate(t):
        assert trace(e) in (0, 1, 2, 3)
        assert table[1, 0, x] == trace(e)  # (T[1] + 2 T[0]) * T[x] = T[x]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_galois_ring_modulus_is_the_first_basic_primitive_lift(n):
    assert GaloisRing4(n).modulus == first_basic_primitive_lift(n)


def test_galois_ring_trace_additive_small():
    ring = GaloisRing4(3)
    trace = GaloisRingTrace(ring)
    t = ring.teichmuller
    for a in t[:4]:
        for b in t[:4]:
            lhs = trace((a + b) % 4)
            rhs = (trace(a) + trace(b)) % 4
            assert lhs == rhs
    # the table form of Z4-linearity: tr((a + 2b) x) = tr(a x) + 2 tr(b x)
    table = ring.phase_exponents().astype(int)
    assert np.array_equal(table, (table[:, :1, :] + 2 * table[None, :, 0, :]) % 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_galois_ring_phase_table_matches_frobenius_trace(n):
    ring = GaloisRing4(n)
    table = ring.phase_exponents()
    assert table.dtype == np.uint8
    assert np.array_equal(table, GaloisRingTrace(ring).phase_exponents())
