import dataclasses
import math

import numpy as np
import pytest

from sqst.states import (check_norm_chain, load_matrix, make_pure_superposition,
                         matrix_from_json, matrix_to_json, max_norm, philox_rng,
                         random_density, random_hermitian, require_density,
                         require_hermitian, save_matrix, schatten_norm)


def test_plus_state_offdiagonal():
    rho = make_pure_superposition(0, 1, 1, 1, 2)
    assert rho[0, 1] == pytest.approx(0.5, abs=1e-14)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_degenerate_superposition_is_basis_state():
    rho = make_pure_superposition(0, 1, 1, 0, 2)
    assert rho[0, 1] == 0
    assert rho[0, 0] == pytest.approx(1.0)


def test_superposition_with_complex_amplitude():
    # a=1, b=1j at (2, 5): element (2,5) is a*conj(b)/2 = -1j/2
    rho = make_pure_superposition(2, 5, 1, 1j, 8)
    assert rho[2, 5] == pytest.approx(-0.5j, abs=1e-14)


def test_superposition_errors():
    with pytest.raises(ValueError):
        make_pure_superposition(1, 1, 1, 1, 4)
    with pytest.raises(ValueError):
        make_pure_superposition(0, 1, 0, 0, 4)
    with pytest.raises(ValueError):
        make_pure_superposition(0, 9, 1, 1, 4)


@pytest.mark.parametrize("a", [math.nan, math.inf, complex(0, math.nan), 1e200,
                               complex(1e308, 1e308), 1.4e154, np.complex128(np.nan)])
def test_superposition_refuses_non_finite_or_overflowing_amplitudes(a):
    for args in ((a, 1), (1, a)):
        with pytest.raises(ValueError, match=r"must be finite, and \|a\|\^2 \+ \|b\|\^2 too"):
            make_pure_superposition(0, 1, *args, 2)


@pytest.mark.parametrize("a, b", [(1e-170, 0), (0, 1e-160), (1e-160, 1e-160j), (5e-324, 0)])
def test_superposition_refuses_amplitudes_whose_norm_underflows(a, b):
    with pytest.raises(ValueError, match=r"\|a\|\^2 \+ \|b\|\^2 = .* underflows"):
        make_pure_superposition(0, 1, a, b, 2)


def test_superposition_refuses_two_zero_amplitudes_as_both_zero():
    with pytest.raises(ValueError, match="^amplitudes a and b are both zero$"):
        make_pure_superposition(0, 1, 0, -0.0j, 2)


def test_superposition_takes_every_amplitude_whose_norm_is_finite():
    rho = make_pure_superposition(0, 1, 1e154, 1e-170, 2)  # |a|^2 = 1e308
    assert rho[0, 0] == pytest.approx(1.0) and rho[1, 1] == 0.0


def test_random_density_rank_one_is_pure():
    rho = random_density(2, 1, seed=5)
    w = np.linalg.eigvalsh(rho)
    assert w[0] == pytest.approx(0.0, abs=1e-10)
    assert w[1] == pytest.approx(1.0, abs=1e-10)


def test_random_density_full_rank_positive():
    rho = random_density(4, 4, seed=7)
    require_density(rho)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_random_density_deterministic():
    assert np.array_equal(random_density(4, 2, seed=9), random_density(4, 2, seed=9))
    assert not np.array_equal(random_density(4, 2, seed=9), random_density(4, 2, seed=10))


def test_random_density_rank_range():
    with pytest.raises(ValueError):
        random_density(3, 0, seed=1)
    with pytest.raises(ValueError):
        random_density(3, 4, seed=1)


def test_random_density_always_valid():
    for seed in range(20):
        d = 2 + seed % 5
        require_density(random_density(d, 1 + seed % d, seed))


def test_eigen_diagonal_input():
    w, v = np.linalg.eigh(require_hermitian(np.diag([3.0, 1.0]).astype(complex)))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])


def test_eigen_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, _ = np.linalg.eigh(require_hermitian(x))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_eigen_reconstruction_fuzz():
    for seed in range(10):
        h = random_hermitian(6, seed)
        w, v = np.linalg.eigh(require_hermitian(h))
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-10
        assert w.sum() == pytest.approx(np.trace(h).real, abs=1e-10)
        assert np.all(np.diff(w) >= 0)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        np.linalg.eigh(require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_entries_rejected(bad):
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        require_hermitian(m)
    with pytest.raises(ValueError, match="non-finite"):
        require_density(m)
    m = np.eye(2, dtype=complex) / 2
    m[0, 0] = bad  # a non-finite diagonal passes the trace test as NaN, too
    with pytest.raises(ValueError, match="non-finite"):
        require_density(m)


def test_schatten_hand_values():
    e = np.diag([1.0, -1.0]).astype(complex)
    assert schatten_norm(e, 1) == pytest.approx(2.0)
    assert schatten_norm(e, 2) == pytest.approx(math.sqrt(2.0))
    assert schatten_norm(e, np.inf) == pytest.approx(1.0)
    assert schatten_norm(np.zeros((3, 3), dtype=complex), 1.7) == 0.0


def test_schatten_rejects_p_below_one():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2, dtype=complex), 0.5)


def test_schatten_monotone_in_p():
    ps = [1, 1.5, 2, 4, np.inf]
    for seed in range(20):
        e = random_hermitian(5, seed)
        vals = [schatten_norm(e, p) for p in ps]
        for a in range(len(ps) - 1):
            assert vals[a] >= vals[a + 1] - 1e-12


def test_max_norm_values():
    assert max_norm(np.diag([1.0, -1.0])) == 1.0
    assert max_norm(np.array([[0, 3 + 4j], [3 - 4j, 0]])) == pytest.approx(5.0)
    assert max_norm(np.zeros((2, 2))) == 0.0


def test_norm_chain_hand_example():
    # diag(1, -1): max 1, frobenius sqrt(2), trace 2; lower chain 2/sqrt(8) ~ 0.707
    report = check_norm_chain(np.diag([1.0, -1.0]).astype(complex))
    assert report.passed
    assert report.max_norm == pytest.approx(1.0)
    assert report.frobenius_norm == pytest.approx(math.sqrt(2.0))
    assert report.trace_norm == pytest.approx(2.0)
    assert report.trace_norm / math.sqrt(2.0**3) == pytest.approx(0.7071, abs=1e-4)


def test_norm_chain_zero_matrix():
    report = check_norm_chain(np.zeros((3, 3), dtype=complex))
    assert report.passed
    assert report.max_norm == report.trace_norm == 0.0


def test_norm_chain_all_ones_matrix():
    # rank one, all entries 1: trace norm d, max norm 1
    d = 5
    report = check_norm_chain(np.ones((d, d), dtype=complex))
    assert report.passed
    assert report.trace_norm == pytest.approx(d, abs=1e-9)
    assert report.max_norm == pytest.approx(1.0)


def test_norm_chain_fuzz():
    for seed in range(60):
        d = 2 + seed % 31
        assert check_norm_chain(random_hermitian(d, seed)).passed


def test_norm_chain_fails_on_any_slack_below_tolerance():
    report = check_norm_chain(np.eye(2, dtype=complex))  # d=2: tolerance 2e-12
    for i in range(5):
        for bad, passed in ((-1e-12, True), (-1e-9, False), (math.nan, False)):
            slacks = [0.0] * 5
            slacks[i] = bad
            assert dataclasses.replace(report, slacks=tuple(slacks)).passed is passed


def test_norm_chain_d1():
    assert check_norm_chain(np.array([[2.5]], dtype=complex)).passed


def test_matrix_json_round_trip(tmp_path):
    m = random_density(3, 2, seed=11)
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.allclose(load_matrix(path), m, atol=0)


def test_matrix_json_validation():
    obj = matrix_to_json(np.eye(2, dtype=complex))
    obj["d"] = 3
    with pytest.raises(ValueError, match="malformed"):
        matrix_from_json(obj)


def test_philox_streams_are_independent_and_reproducible():
    a = philox_rng(3, 1).standard_normal(4)
    b = philox_rng(3, 1).standard_normal(4)
    c = philox_rng(3, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
