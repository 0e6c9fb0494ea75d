import dataclasses
import json
import math
import re

import numpy as np
import pytest

from sqst import states
from sqst.states import (check_norm_chain, load_json, load_matrix, make_pure_superposition,
                         matrix_from_json, matrix_to_json, max_norm, number_array,
                         random_density, random_hermitian, require_density,
                         require_hermitian, save_matrix, schatten_norms, stream_rng)


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
        h = random_hermitian(6, stream_rng(seed))
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
    assert schatten_norms(e, [1, 2, np.inf]) == pytest.approx([2.0, math.sqrt(2.0), 1.0])
    assert schatten_norms(np.zeros((3, 3), dtype=complex), [1.7]) == [0.0]
    assert schatten_norms(e, []) == []


def test_schatten_rejects_p_below_one():
    with pytest.raises(ValueError, match="p >= 1, got 0.5"):
        schatten_norms(np.eye(2, dtype=complex), [2, 0.5])


def test_schatten_monotone_in_p():
    ps = [1, 1.5, 2, 4, np.inf]
    for seed in range(20):
        vals = schatten_norms(random_hermitian(5, stream_rng(seed)), ps)
        for a in range(len(ps) - 1):
            assert vals[a] >= vals[a + 1] - 1e-12


@pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
def test_schatten_norms_and_norm_chain_agree_with_the_svd_norms(d):
    for seed in range(5):
        e = random_hermitian(d, stream_rng(21, d, seed))
        svd = [np.linalg.norm(e, "nuc"), np.linalg.norm(e, "fro"), np.linalg.norm(e, 2)]
        tol = 1e-12 * svd[0]
        assert schatten_norms(e, [1, 2, np.inf]) == pytest.approx(svd, rel=0, abs=tol)
        report = check_norm_chain(e)
        assert [report.trace_norm, report.frobenius_norm] == pytest.approx(svd[:2], rel=0, abs=tol)


@pytest.mark.parametrize("m, message", [
    (np.array([[0, 1], [0, 0]], dtype=complex), "^matrix is not Hermitian: max deviation"),
    (np.zeros((2, 3)), r"^matrix must be square, got shape \(2, 3\)"),
    (np.zeros(4), r"^matrix must be square, got shape \(4,\)"),
    (np.diag([np.nan, 0.0]), "^matrix has non-finite entries"),
], ids=["non_hermitian", "non_square", "vector", "nan"])
def test_schatten_norms_and_norm_chain_refuse_what_require_hermitian_refuses(m, message):
    with pytest.raises(ValueError, match=message):
        require_hermitian(m)
    with pytest.raises(ValueError, match=message):
        schatten_norms(m, [1])
    with pytest.raises(ValueError, match=message):
        check_norm_chain(m)


def test_norm_chain_takes_one_spectrum(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(states.np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
    assert check_norm_chain(random_hermitian(8, stream_rng(3))).passed
    assert len(calls) == 1


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
        assert check_norm_chain(random_hermitian(d, stream_rng(seed))).passed


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


def _extreme_entries() -> np.ndarray:
    """Negative zeros, subnormals and +-1e300 (complex(): -0.0 + 5e-324j would drop the sign)."""
    return np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)],
                     [complex(-1e300, 2.5e-310), complex(-0.0, -1e300)]])


@pytest.mark.parametrize("m", [random_density(64, 4, seed=5), _extreme_entries(),
                               np.array([[1.0 + 0.0j]])], ids=["d64", "extremes", "1x1"])
def test_save_matrix_writes_the_c_encoder_bytes_and_loads_exactly(tmp_path, m):
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert path.read_bytes() == json.dumps(matrix_to_json(m)).encode()
    assert load_matrix(path).tobytes() == m.tobytes()  # every bit: subnormals, 1e300 and -0.0


def test_matrix_json_validation():
    obj = matrix_to_json(np.eye(2, dtype=complex))
    obj["d"] = 3
    with pytest.raises(ValueError, match="malformed"):
        matrix_from_json(obj)


_ROWS = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("text", [
    "[1, 2]", '{"rows": [[[1, 0]]]}', '{"d": 1e400, "rows": []}', '{"d": 2.5, "rows": %s}' % _ROWS,
    '{"d": true, "rows": [[[1, 0]]]}', '{"d": 0, "rows": []}', '{"d": -1, "rows": []}',
    '{"d": 2}', '{"d": 2, "rows": [[[1, 0], [0, 0]], [[0, 0]]]}',
    '{"d": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [0, {}]]]}',
    '{"d": 2, "rows": [[["1", 0], [0, 0]], [[0, 0], [0, 0]]]}',
    '{"d": 1, "rows": [[[true, false]]]}', '{"d": 1, "rows": [[[1, 0, 0]]]}',
    # a boolean among numbers, and an integer past the float range
    '{"d": 2, "rows": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}',
    '{"d": 2, "rows": [[[1, 0], [0, 0.5]], [[0, -0.5], [false, 0]]]}',
    '{"d": 1, "rows": [[[1%s, 0]]]}' % ("0" * 400),
])
def test_matrix_json_is_an_integer_d_and_d_by_d_pairs_of_numbers(text):
    with pytest.raises(ValueError, match="^malformed matrix JSON: "):
        matrix_from_json(json.loads(text))


def test_matrix_json_takes_json_integers_anywhere_in_its_rows():
    assert matrix_from_json({"d": 2, "rows": _ROWS}).tobytes() == np.diag([1, 0j]).tobytes()


def test_an_integer_past_int64_reads_as_the_float_it_rounds_to():
    big = 10**30 + 1  # past int64, and not a float exactly
    text = '{"d": 1, "rows": [[[%d, -%d]]]}' % (big, 2**64 + 1)
    assert matrix_from_json(json.loads(text))[0, 0] == complex(float("1e30"), -float(2**64))
    assert number_array(json.loads("[%d, 1]" % big)).tolist() == [1e30, 1.0]


@pytest.mark.parametrize("text", ["[1%s, 0]" % ("0" * 400), "[0, -1%s]" % ("0" * 309),
                                  "[[true, 0]]", "[false]", "[1, null]", '["1"]', "[[1], [2, 3]]"])
def test_number_array_refuses_booleans_and_integers_past_the_float_range(text):
    assert number_array(json.loads(text)) is None


@pytest.mark.parametrize("data, message", [
    (b"", "Expecting value"),
    (b'{"d": 2,', "Expecting property name"),
    (b"\xfe\xff[]", "'utf-8' codec can't decode byte 0xfe"),
], ids=["empty", "bad_json", "non_utf8"])
def test_load_json_names_the_file_in_every_decode_fault(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_json(path)


def test_keyed_streams_are_reproducible_distinct_and_pcg64dxsm():
    for keys in [
        [(3, 1), (3, 2), (1, 3)],  # the key's order matters, not just its members
        [(0,), (0, 0)], [(11,), (11, 0)], [(7, 4), (7, 4, 0)],  # a trailing zero is a key member
        [(2**32 + 5,), (5, 1)],  # a seed past 32 bits is not a seed and a stream integer
    ]:
        drawn = [stream_rng(*key).random(4).tolist() for key in keys]
        assert drawn == [stream_rng(*key).random(4).tolist() for key in keys], keys
        assert len({tuple(u) for u in drawn}) == len(keys), keys
    assert isinstance(stream_rng(3, 1).bit_generator, np.random.PCG64DXSM)
