import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from sqst.fields import factor_prime_power
from sqst.measurement import PovmMode
from sqst.mub import (MubFamily, born_weights, build_mub, eta_table, projector_sum, save_mub,
                      verify_mub)

SMALL_DIMS = [2, 3, 4, 5, 7, 8, 9]

# The fixed families every record refers to; a change here invalidates every record file.
PINNED_FINGERPRINTS = {
    2: "565f4dc054caa451", 3: "114b8efb86fa04fd", 4: "d23ea5a25042c255",
    5: "f2c382710c671f80", 7: "4eaca1ba18bc1bc3", 8: "9b0d98b364e2d79d",
    9: "4e81290c26e356c1", 11: "c918c210f3ba9b7b", 13: "46850245fd418763",
    16: "a464ec6d89d4d2a6", 17: "d1ce15b30c4fd210", 19: "c5406b82b3b02e2f",
    23: "86f4e210be13d0a2", 25: "8d0b20e8dbc6afed", 27: "e85e87500a8abaf9",
    29: "10f33475ecc37751", 31: "a286fa9a3bb58ddd", 32: "395d85f0a3f1e604",
    37: "6b982b320abbe867", 41: "0d55a62f5344d30f", 43: "0ea1b79d92f45712",
    47: "d4eb5c9a5ea3fdf8", 49: "a2d0ded1e7eb1602", 53: "bd3e0a3076f1a4f6",
    59: "97e1959e7e42e5f4", 61: "432896c970fb637f", 64: "4a377500b4231ea8",
}

# sha256 of build_mub(d).vectors.tobytes(), first 16 hex chars: every coefficient bit, which
# the 12-decimal fingerprint does not see but every Born weight and record depends on.
PINNED_VECTOR_BYTES = {
    2: "675a8c97e36db38a", 3: "91ff24b2507ba025", 4: "3050334ec13d8b7f",
    5: "b9d52ffe49c0c81f", 7: "25b8815accac538d", 8: "7fab25d39883fa1b",
    9: "6ffb9fa66a2bc8ea", 11: "470f0b2d7f8587b5", 13: "2d6bbd26f2fac718",
    16: "f48408dbbca3c0c5", 17: "98955e96f7828c25", 19: "18375837301a2ab1",
    23: "857820f7ab45b56b", 25: "8c91fd8ff0c7b551", 27: "37eaad2307029eb8",
    29: "58c7793c74f349c1", 31: "805dc4baabea0219", 32: "cdbf03eec9c8df3c",
    37: "9d2d217c86e0d01e", 41: "a504a32c50b3cb1c", 43: "df99b113d5e35b70",
    47: "10b9f4eedaef61a1", 49: "7007e985a2324c0d", 53: "0102bd9c83491e69",
    59: "fee49731e345c256", 61: "890301c3868c93f6", 64: "416322aab2f4460e",
}


def _projector(family, k, m):
    v = family.vectors[m - 1, k]
    return np.outer(v, v.conj())


def test_d2_has_three_unbiased_bases():
    family = build_mub(2)
    assert family.vectors.shape == (3, 2, 2)
    for m in (2, 3):
        for n in range(m + 1, 4):
            for k in range(2):
                for l in range(2):
                    ov = abs(np.vdot(family.vectors[m - 1, k], family.vectors[n - 1, l])) ** 2
                    assert ov == pytest.approx(0.5, abs=1e-10)


def test_d2_bases_are_pauli_eigenbases():
    # fixed convention: m=2 is the X eigenbasis, m=3 the Y eigenbasis
    family = build_mub(2)
    s = 1 / np.sqrt(2)
    assert np.allclose(family.vectors[1], [[s, s], [s, -s]], atol=1e-12)
    assert np.allclose(family.vectors[2], [[s, 1j * s], [s, -1j * s]], atol=1e-12)


def test_d3_overlaps_are_one_third():
    family = build_mub(3)
    assert family.vectors.shape == (4, 3, 3)
    report = verify_mub(family, 1e-10)
    assert report.passed
    ov = abs(np.vdot(family.vectors[1, 0], family.vectors[2, 1])) ** 2
    assert ov == pytest.approx(1 / 3, abs=1e-10)


def test_non_prime_power_dimension_rejected():
    with pytest.raises(ValueError, match="prime power"):
        build_mub(6)
    with pytest.raises(ValueError):
        build_mub(10)
    with pytest.raises(ValueError):
        build_mub(1)


def test_a_dimension_above_the_maximum_is_refused_before_it_is_factored():
    # a prime: factoring it first trial-divided for more than 15 s
    with pytest.raises(ValueError, match="dimension 1000000007 exceeds maximum 64"):
        build_mub(1_000_000_007)
    with pytest.raises(ValueError, match="dimension 66 exceeds maximum 64"):
        build_mub(66)  # no prime power either: the range is checked first


@pytest.mark.parametrize("d", SMALL_DIMS)
def test_verify_mub_passes(d):
    assert verify_mub(build_mub(d), 1e-10).passed


def test_every_supported_family_is_pinned():
    supported = [d for d in range(2, 65) if factor_prime_power(d)]
    assert supported == sorted(PINNED_FINGERPRINTS)
    assert {d: build_mub(d).fingerprint() for d in supported} == PINNED_FINGERPRINTS


def test_every_supported_family_has_pinned_coefficient_bytes():
    supported = [d for d in range(2, 65) if factor_prime_power(d)]
    assert supported == sorted(PINNED_VECTOR_BYTES)
    assert {d: hashlib.sha256(build_mub(d).vectors.tobytes()).hexdigest()[:16]
            for d in supported} == PINNED_VECTOR_BYTES


def test_fingerprint_hashes_once_per_family(monkeypatch):
    calls = []
    real = hashlib.sha256

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(hashlib, "sha256", counting)
    family = build_mub(4)
    assert family.fingerprint() == family.fingerprint() == PINNED_FINGERPRINTS[4]
    assert len(calls) == 1


def test_family_vectors_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        build_mub(3).vectors[1, 0, 0] = 1.0
    vectors = build_mub(2).vectors.copy()
    family = MubFamily(d=2, vectors=vectors)
    vectors[1, 0, 0] = 5.0  # the family holds its own copy
    assert family.fingerprint() == PINNED_FINGERPRINTS[2]
    with pytest.raises(ValueError, match="read-only"):
        family.vectors[1, 0, 0] = 5.0


def test_computational_basis_is_exact():
    for d in (2, 4, 9):
        family = build_mub(d)
        assert np.array_equal(family.vectors[0], np.eye(d))


def test_verify_reports_broken_family():
    family = build_mub(3)
    vectors = family.vectors.copy()
    vectors[1, 0] = np.eye(3)[0]  # replace one unbiased vector by |0>
    report = verify_mub(MubFamily(d=3, vectors=vectors), 1e-10)
    assert not report.passed
    (m, _), (n, _) = report.worst_pair
    assert 2 in (m, n) or 1 in (m, n)  # the damaged basis shows up in the worst pair


def _full_gram_report(family: MubFamily) -> tuple:
    """Deviations and worst pair from the whole ((d+1)d)^2 Gram matrix at once."""
    d = family.d
    w = family.vectors.reshape((d + 1) * d, d)
    gram = (w @ w.conj().T).reshape(d + 1, d, d + 1, d)
    same = np.eye(d + 1, dtype=bool)[:, None, :, None]
    ortho = np.where(same, np.abs(gram - np.eye(d)[None, :, None, :]), 0.0)
    unbias = np.where(same, 0.0, np.abs(np.abs(gram) ** 2 - 1.0 / d))
    worst = ortho if ortho.max() >= unbias.max() else unbias
    m, k, n, l = (int(x) for x in np.unravel_index(worst.argmax(), worst.shape))
    return ortho.max(), unbias.max(), ((m + 1, k), (n + 1, l))


@pytest.mark.parametrize("d", [3, 4, 8, 9])
def test_blockwise_verify_matches_full_gram(d):
    rng = np.random.default_rng(d)
    intact = build_mub(d).vectors
    broken = intact.copy()
    broken[rng.integers(d + 1), rng.integers(d)] = np.eye(d)[rng.integers(d)]
    for vectors in (intact, broken, intact * (1 + 1e-9), intact + 1e-9 * rng.standard_normal(intact.shape)):
        report = verify_mub(MubFamily(d=d, vectors=vectors), 1e-10)
        ortho, unbias, pair = _full_gram_report(MubFamily(d=d, vectors=vectors))
        assert report.max_orthonormality_dev == pytest.approx(ortho, rel=0, abs=1e-15)
        assert report.max_unbiasedness_dev == pytest.approx(unbias, rel=0, abs=1e-15)
        assert report.worst_pair == pair


def test_alpha_is_unit_modulus():
    # the phases alpha_l of |k,m> are sqrt(d) times its coefficients, m >= 2; so every
    # weight eta_ij = d * v_i * conj(v_j) of bases 2..d+1 has modulus 1, off the diagonal too
    supported = [d for d in range(2, 65) if factor_prime_power(d)]
    assert len(supported) == 27
    for d in supported:
        family = build_mub(d)
        mags = np.abs(np.sqrt(d) * family.vectors[1:])
        assert np.abs(mags - 1.0).max() <= 1e-12, d


def test_computational_basis_has_no_phases():
    # basis m=1 is |k> itself: its scaled coefficients are 0 or sqrt(d), not phases
    family = build_mub(2)
    assert not np.allclose(np.abs(np.sqrt(2) * family.vectors[0]), 1.0)


def test_eta_hand_values_d2():
    # m=2 holds {(1,1)/sqrt2, (1,-1)/sqrt2}: expanding alpha_0 * conj(alpha_1)
    # gives +1 for k=0 and -1 for k=1
    tab = eta_table(build_mub(2), 0, 1)
    assert tab[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert tab[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_eta_diagonal_is_one():
    family = build_mub(5)
    for i in range(5):
        assert np.abs(eta_table(family, i, i) - 1.0).max() <= 1e-12


def test_eta_errors():
    family = build_mub(2)
    # computational basis carries no eta: rows are the d bases m = 2 .. d+1 only
    assert eta_table(family, 0, 1).shape == (2, 2)
    with pytest.raises(ValueError):
        eta_table(family, 0, 2)  # index out of range


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_eta_closure_properties(d):
    family = build_mub(d)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            tab = eta_table(family, i, j)
            assert np.allclose(np.abs(tab), 1.0, atol=1e-12)
            assert np.allclose(tab, eta_table(family, j, i).conj(), atol=1e-14)
            for m in range(2, d + 2):
                for k in range(d):
                    vec = family.vectors[m - 1, k]
                    assert tab[m - 2, k] == pytest.approx(d * vec[i] * vec[j].conjugate(),
                                                          abs=1e-14)


@pytest.mark.parametrize("d", SMALL_DIMS)
def test_basis_completeness(d):
    family = build_mub(d)
    for m in range(1, d + 2):
        total = sum(_projector(family, k, m) for k in range(d))
        assert np.abs(total - np.eye(d)).max() <= 1e-10


@pytest.mark.parametrize("d", SMALL_DIMS)
def test_operator_basis_sanity(d):
    # with A = identity: -d*I + sum of all projectors over d+1 bases equals I
    family = build_mub(d)
    total = sum(_projector(family, k, m) for m in range(1, d + 2) for k in range(d))
    assert np.abs(-d * np.eye(d) + total - np.eye(d)).max() <= 1e-10


def test_json_round_trip(tmp_path):
    family = build_mub(4)
    path = tmp_path / "mub4.json"
    save_mub(family, path)
    obj = json.loads(path.read_text())
    bases = np.asarray(obj["bases"], dtype=np.float64)
    loaded = MubFamily(d=obj["d"], vectors=bases[..., 0] + 1j * bases[..., 1])
    assert loaded.d == 4
    assert np.array_equal(loaded.vectors, family.vectors)
    assert loaded.fingerprint() == family.fingerprint()


def _whole_document(family: MubFamily) -> bytes:
    v = family.vectors
    return json.dumps({"d": family.d, "bases": np.stack([v.real, v.imag], -1).tolist()}).encode()


# sha256 of the d=64 family file as the streaming json.dump encoder wrote it
PINNED_MUB64_FILE_SHA256 = "68068f6ea053365e95ed4d6b3caacf3df5ca4d27b9c375daa652e4d241599067"


@pytest.mark.parametrize("d", [d for d in range(2, 28) if factor_prime_power(d)])
def test_save_mub_writes_the_whole_document_bytes(tmp_path, d):
    family = build_mub(d)
    save_mub(family, tmp_path / "f.json")
    assert (tmp_path / "f.json").read_bytes() == _whole_document(family)


def test_save_mub_d64_bytes_are_pinned(tmp_path):
    save_mub(build_mub(64), tmp_path / "f.json")
    assert hashlib.sha256((tmp_path / "f.json").read_bytes()).hexdigest() == PINNED_MUB64_FILE_SHA256


def test_fingerprint_stability_and_discrimination():
    f2a, f2b, f3 = build_mub(2), build_mub(2), build_mub(3)
    assert f2a.fingerprint() == f2b.fingerprint()
    assert len(f2a.fingerprint()) == 16
    assert f2a.fingerprint() != f3.fingerprint()


def test_build_is_deterministic():
    assert np.array_equal(build_mub(8).vectors, build_mub(8).vectors)


@pytest.mark.parametrize("d", SMALL_DIMS + [16])
@pytest.mark.parametrize("mode", list(PovmMode))
def test_contractions_match_their_einsum_definitions(d, mode):
    # the mode's bases, a non-Hermitian operator and complex coefficients
    first = mode.first_basis
    vecs = build_mub(d).vectors[first - 1:first - 1 + mode.basis_count(d)]
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    coeffs = rng.standard_normal(vecs.shape[:2]) + 1j * rng.standard_normal(vecs.shape[:2])
    born = np.einsum("mkl,lx,mkx->mk", vecs.conj(), a, vecs)
    projectors = np.einsum("mk,mki,mkj->ij", coeffs, vecs, vecs.conj())
    assert np.abs(born_weights(vecs, a) - born).max() <= 1e-12
    assert np.abs(projector_sum(coeffs, vecs) - projectors).max() <= 1e-12


def _traced_peak(fn, *args) -> tuple:
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_and_fingerprint_hold_little_beyond_the_vectors():
    def build_and_hash():
        family = build_mub(64)
        family.fingerprint()
        return family

    family, peak = _traced_peak(build_and_hash)
    assert peak <= family.vectors.nbytes + 1_000_000


@pytest.mark.parametrize("first", [0, 1])  # the full family, and the d unbiased bases
def test_contractions_at_d64_hold_a_block_of_temporaries(first):
    vecs = build_mub(64).vectors[first:]
    rng = np.random.default_rng(first)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    for coeffs in (rng.integers(0, 1000, vecs.shape[:2]),
                   rng.standard_normal(vecs.shape[:2]) + 1j * rng.standard_normal(vecs.shape[:2])):
        out, peak = _traced_peak(projector_sum, coeffs, vecs)
        assert peak - out.nbytes <= 1_500_000
    out, peak = _traced_peak(born_weights, vecs, a)
    assert peak - out.nbytes <= 1_500_000
