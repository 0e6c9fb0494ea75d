import decimal
import math

import numpy as np
import pytest

from oracles import cells, smallest_n_satisfying, two_support_offdiag_probs
from sqst import measurement
from sqst.estimator import (bound_text, count_table, decompose_operator, estimate_diagonal,
                            estimate_element, extreme_operator, fold_diagonal, fold_element,
                            fold, fold_mean, hoeffding_tail, outcome_counts, plan_samples,
                            plan_samples_general)
from sqst.measurement import (FingerprintMismatch, PovmMode, RecordCounts, RecordHeader,
                              counted, outcome_distribution, sample_record)
from sqst.mub import build_mub, eta_table
from sqst.states import make_pure_superposition, max_norm, random_density, stream_rng


@pytest.fixture(scope="module")
def fam2():
    return build_mub(2)


@pytest.fixture(scope="module")
def fam4():
    return build_mub(4)


def _counted(d, mode, fingerprint, cells, seed=0):
    """The count table of a record of the given cells."""
    header = RecordHeader(d=d, mode=mode, seed=seed, n=len(cells), mub_fingerprint=fingerprint)
    return counted(header, [np.asarray(cells, dtype=np.uint16)])


# ---------------------------------------------------------------------------
# element estimation


def test_constant_record_estimates_one(fam2):
    # every outcome (m=2, k=0) carries eta = +1 for the (0, 1) element
    n = 50
    record = _counted(2, PovmMode.OFFDIAG, fam2.fingerprint(), np.zeros(n))
    est = estimate_element(record, fam2, 0, 1)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_exact_fold_plus_state_enumeration(fam2):
    # independent oracle: enumerate the four outcomes of |+><+| by hand
    #   (m=2,k=0): eta +1, p 1/2;  (m=2,k=1): eta -1, p 0
    #   (m=3,k=0): eta -1j, p 1/4; (m=3,k=1): eta +1j, p 1/4
    expected = (+1) * 0.5 + (-1) * 0.0 + (-1j) * 0.25 + (+1j) * 0.25
    assert expected == 0.5
    rho = make_pure_superposition(0, 1, 1, 1, 2)
    dist = outcome_distribution(rho, fam2, PovmMode.OFFDIAG)
    assert fold_element(dist, fam2, 0, 1) == pytest.approx(expected, abs=1e-12)


def test_exact_fold_basis_state_cancels(fam2):
    rho = make_pure_superposition(0, 1, 1, 0, 2)
    dist = outcome_distribution(rho, fam2, PovmMode.OFFDIAG)
    assert fold_element(dist, fam2, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_exact_fold_matches_all_elements_d5():
    family = build_mub(5)
    rho = random_density(5, 5, seed=21)
    dist = outcome_distribution(rho, family, PovmMode.OFFDIAG)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert fold_element(dist, family, i, j) == pytest.approx(rho[i, j], abs=1e-10)


def test_exact_fold_maximally_mixed_is_zero(fam4):
    dist = outcome_distribution(np.eye(4, dtype=complex) / 4, fam4, PovmMode.OFFDIAG)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(fold_element(dist, fam4, i, j)) <= 1e-12


def test_exact_fold_complex_superposition():
    family = build_mub(8)
    rho = make_pure_superposition(2, 5, 1, 1j, 8)
    dist = outcome_distribution(rho, family, PovmMode.OFFDIAG)
    assert fold_element(dist, family, 2, 5) == pytest.approx(-0.5j, abs=1e-10)


def test_estimate_element_mode_and_index_errors(fam2):
    rho = np.eye(2, dtype=complex) / 2
    comp = sample_record(outcome_distribution(rho, fam2, PovmMode.COMPUTATIONAL), 10, 0)
    off = sample_record(outcome_distribution(rho, fam2, PovmMode.OFFDIAG), 10, 0)
    with pytest.raises(ValueError, match="mode"):
        estimate_element(comp, fam2, 0, 1)
    with pytest.raises(ValueError, match="diagonal"):
        estimate_element(off, fam2, 1, 1)


def test_estimate_element_rejects_wrong_family(fam2):
    fam3 = build_mub(3)
    rho = np.eye(3, dtype=complex) / 3
    record = sample_record(outcome_distribution(rho, fam3, PovmMode.OFFDIAG), 10, 0)
    with pytest.raises(ValueError, match="dimension"):
        estimate_element(record, fam2, 0, 1)


def test_estimate_is_pure_fold_reorder_invariant(fam4):
    rho = random_density(4, 4, seed=2)
    dist = outcome_distribution(rho, fam4, PovmMode.OFFDIAG)
    record = sample_record(dist, 100_000, seed=77)
    perm = stream_rng(3).permutation(record.n)
    shuffled = _counted(4, PovmMode.OFFDIAG, record.mub_fingerprint, cells(record)[perm],
                        seed=record.seed)
    for (i, j) in [(0, 1), (2, 3), (1, 0)]:
        a = estimate_element(record, fam4, i, j).value
        b = estimate_element(shuffled, fam4, i, j).value
        assert abs(a - b) <= 1e-9


def test_estimate_modulus_bounded_by_one(fam4):
    rho = random_density(4, 1, seed=10)
    record = sample_record(outcome_distribution(rho, fam4, PovmMode.OFFDIAG), 500, 4)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(estimate_element(record, fam4, i, j).value) <= 1.0 + 1e-12


def test_unbiasedness_over_many_records(fam2):
    # 200 records of n=1e4: the mean estimate lands within 5 standard errors
    rho = make_pure_superposition(0, 1, 1, 1, 2)
    dist = outcome_distribution(rho, fam2, PovmMode.OFFDIAG)
    estimates = []
    for rep in range(200):
        record = sample_record(dist, 10_000, seed=1000 + rep)
        estimates.append(estimate_element(record, fam2, 0, 1).value)
    estimates = np.array(estimates)
    se = estimates.std() / math.sqrt(len(estimates))
    assert abs(estimates.mean() - 0.5) <= 5 * se


# ---------------------------------------------------------------------------
# exact second moments
#
# An estimate folds n i.i.d. weights w of mean mu, so E|est - mu|^2 = s2 / n with
# s2 = E|w - mu|^2 known exactly from the state.  Each z = |est - mu|^2 / (s2 / n)
# has mean 1, and, with |w - mu| <= r, variance at most 2 + r^2 / (n s2): the
# fourth moment of a sum of n centred terms is n E|w - mu|^4 + n(n - 1) (2 s2^2 +
# |E(w - mu)^2|^2).  So the mean of T independent z lies within five standard
# errors, 5 sqrt(sum of the bounds) / T (0.22 at T = 1000), of 1.

MOMENT_DIMS = [2, 4, 8, 16, 32, 64]
MOMENT_TRIALS = 1000


def _check_unit_mean_square(z, bounds, what: str) -> None:
    band = 5 * math.sqrt(sum(bounds)) / len(z)
    assert abs(np.mean(z) - 1.0) <= band, f"{what}: mean of z {np.mean(z):.4f}, band {band:.4f}"


@pytest.mark.parametrize("d", MOMENT_DIMS)
def test_two_support_probabilities_are_the_born_distribution(d):
    family, rng = build_mub(d), stream_rng(91, d)
    for _ in range(3):
        i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a, b = (a, b) / np.hypot(abs(a), abs(b))
        dist = outcome_distribution(make_pure_superposition(i, j, a, b, d), family,
                                    PovmMode.OFFDIAG)
        assert np.abs(two_support_offdiag_probs(family, i, j, a, b) - dist.probs).max() <= 1e-12


def test_mean_square_error_is_the_exact_second_moment():
    rng = stream_rng(92)
    n = plan_samples(0.01, 0.01)  # fig-2's 119,830 copies
    for d in MOMENT_DIMS:  # fig-2's element states: a|i> + b|j>
        family, z, bounds = build_mub(d), [], []
        for _ in range(MOMENT_TRIALS):
            i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a, b = (a, b) / np.hypot(abs(a), abs(b))
            mu = a * b.conjugate()
            table = rng.multinomial(n, two_support_offdiag_probs(family, i, j, a, b))
            est = complex(fold(table.reshape(d, d), n, eta_table(family, i, j)))
            s2 = 1 - abs(mu) ** 2
            z.append(abs(est - mu) ** 2 * n / s2)
            bounds.append(2 + (1 + abs(mu)) ** 2 / (n * s2))
        _check_unit_mean_square(z, bounds, f"element, d={d}")
    for d in MOMENT_DIMS:  # diagonals of a full-rank state, i = trial mod d
        p = random_density(d, d, seed=93 + d).diagonal().real.copy()
        tables = rng.multinomial(n, p, size=MOMENT_TRIALS)
        z, bounds = [], []
        for t, table in enumerate(tables):
            i = t % d
            est = float(fold(table.reshape(1, d), n, np.eye(1, d, i)))
            s2 = p[i] * (1 - p[i])
            z.append((est - p[i]) ** 2 * n / s2)
            bounds.append(2 + max(p[i], 1 - p[i]) ** 2 / (n * s2))
        _check_unit_mean_square(z, bounds, f"diagonal, d={d}")
    d = 4  # criterion 9's extreme operators at its planned copy count
    k = 1.0 / (d + 1)
    n = plan_samples_general(0.05, 0.01, k, d)
    family, z, bounds = build_mub(d), [], []
    for t in range(MOMENT_TRIALS):
        coeffs = extreme_operator(rng.uniform(0, 2 * np.pi, (d + 1, d)), k, family)
        rho = random_density(d, 1 + t % d, seed=int(rng.integers(1 << 32)))
        probs = outcome_distribution(rho, family, PovmMode.FULL).probs
        table = rng.multinomial(n, probs).reshape(d + 1, d)
        est = coeffs.identity_coeff + (d + 1) * complex(fold(table, n, coeffs.coeffs))
        mu = complex(np.trace(rho @ coeffs.reconstruct(family))) - coeffs.identity_coeff
        s2 = (d + 1) ** 2 * float((probs * np.abs(coeffs.coeffs.ravel()) ** 2).sum()) - abs(mu) ** 2
        z.append(abs(est - coeffs.identity_coeff - mu) ** 2 * n / s2)
        bounds.append(2 + ((d + 1) * np.abs(coeffs.coeffs).max() + abs(mu)) ** 2 / (n * s2))
    _check_unit_mean_square(z, bounds, "extreme operator, d=4")


# ---------------------------------------------------------------------------
# diagonal estimation


def test_diagonal_point_mass(fam4):
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    dist = outcome_distribution(rho, fam4, PovmMode.COMPUTATIONAL)
    record = sample_record(dist, 200, seed=2)
    assert estimate_diagonal(record, fam4, 3).value == 1.0
    assert estimate_diagonal(record, fam4, 0).value == 0.0


def test_diagonal_exact_folds(fam2):
    mixed = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.COMPUTATIONAL)
    assert fold_diagonal(mixed, fam2, 0) == pytest.approx(0.5, abs=1e-14)
    plus = outcome_distribution(make_pure_superposition(0, 1, 1, 1, 2), fam2,
                                PovmMode.COMPUTATIONAL)
    for i in (0, 1):
        assert fold_diagonal(plus, fam2, i) == pytest.approx(0.5, abs=1e-12)


def test_diagonal_mode_mismatch(fam2):
    record = sample_record(
        outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG), 10, 0)
    with pytest.raises(ValueError, match="computational"):
        estimate_diagonal(record, fam2, 0)


# ---------------------------------------------------------------------------
# planners


def test_plan_samples_pinned_value():
    assert plan_samples(0.01, 0.01, 1) == 119_830


def test_plan_samples_small_case():
    assert plan_samples(0.1, 0.01, 1) == 1_199


def test_plan_samples_is_exact_inversion():
    # oracle: integer scan of the displayed bound
    for eps, delta, m in [(0.1, 0.01, 1), (0.2, 0.5, 3), (0.05, 0.1, 16), (0.3, 0.02, 2)]:
        assert plan_samples(eps, delta, m) == smallest_n_satisfying(eps, delta, m)


def test_plan_samples_boundary_property():
    for eps, delta, m in [(0.01, 0.01, 1), (0.01, 0.01, 16), (0.07, 0.3, 5)]:
        n = plan_samples(eps, delta, m)
        assert 4 * m * math.exp(-n * eps**2 / 2) <= delta
        assert 4 * m * math.exp(-(n - 1) * eps**2 / 2) > delta


def test_plan_samples_multi_element():
    # union bound over 16 elements: smallest n with 4*16*exp(-n*eps^2/2) <= delta
    assert plan_samples(0.01, 0.01, 16) == smallest_n_satisfying(0.01, 0.01, 16) == 175_282


def test_plan_samples_validation():
    with pytest.raises(ValueError):
        plan_samples(0.0, 0.01)
    with pytest.raises(ValueError):
        plan_samples(0.01, 1.0)
    with pytest.raises(ValueError):
        plan_samples(0.01, 0.01, 0)


def test_plan_general_pinned_value():
    assert plan_samples_general(0.05, 0.01, 1 / 5, 4, 1) == 4_793


def test_plan_general_dimension_independent():
    ns = {plan_samples_general(0.05, 0.01, 1.0 / (d + 1), d, 1) for d in (2, 8, 32)}
    assert ns == {4_793}


def test_plan_general_k_scaling():
    # K = 1 at d = 4 costs (K*(d+1))^2 = 25 times the K = 1/5 count
    lo = plan_samples_general(0.05, 0.01, 1 / 5, 4, 1)
    hi = plan_samples_general(0.05, 0.01, 1.0, 4, 1)
    assert hi / lo == pytest.approx(25.0, rel=1e-3)


def test_plan_general_validation():
    with pytest.raises(ValueError):
        plan_samples_general(0.05, 0.01, 0.0, 4)
    with pytest.raises(ValueError):
        plan_samples_general(0.05, 0.01, 0.2, 0)


# ---------------------------------------------------------------------------
# operator decomposition


def test_decompose_pauli_z(fam2):
    z = np.diag([1.0, -1.0]).astype(complex)
    coeffs = decompose_operator(z, fam2)
    # tr[Z Pi] by hand: (+1, -1) in the computational basis, 0 in X and Y
    assert np.allclose(coeffs.coeffs[0], [1.0, -1.0], atol=1e-12)
    assert np.allclose(coeffs.coeffs[1:], 0.0, atol=1e-12)
    assert coeffs.trace == pytest.approx(0.0, abs=1e-12)
    assert np.abs(coeffs.reconstruct(fam2) - z).max() <= 1e-10


def test_decompose_identity(fam2):
    coeffs = decompose_operator(np.eye(2, dtype=complex), fam2)
    assert np.allclose(coeffs.coeffs, 1.0, atol=1e-12)
    assert coeffs.identity_coeff == pytest.approx(-2.0)
    assert np.abs(coeffs.reconstruct(fam2) - np.eye(2)).max() <= 1e-10
    assert coeffs.k_bound <= 1e-12  # identity has no traceless part


def test_decompose_matrix_unit_matches_eta():
    # the |j><i| operator has coefficients eta_ij / d on the unbiased bases
    d = 3
    family = build_mub(d)
    i, j = 0, 2
    unit = np.zeros((d, d), dtype=complex)
    unit[j, i] = 1.0
    coeffs = decompose_operator(unit, family)
    assert np.allclose(coeffs.coeffs[0], 0.0, atol=1e-12)
    for m in range(2, d + 2):
        for k in range(d):
            assert coeffs.coeffs[m - 1, k] == pytest.approx(
                eta_table(family, i, j)[m - 2, k] / d, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_decompose_reconstruct_round_trip(d):
    family = build_mub(d)
    rng = stream_rng(31, d)
    for _ in range(20):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coeffs = decompose_operator(a, family)
        assert max_norm(coeffs.reconstruct(family) - a) <= 1e-10


def test_decompose_shape_mismatch(fam2):
    with pytest.raises(ValueError, match="shape"):
        decompose_operator(np.eye(3, dtype=complex), fam2)


# ---------------------------------------------------------------------------
# extreme operators


def test_extreme_zero_phases_is_scaled_identity_sum(fam4):
    # sum of all projectors is (d+1) I, so zero phases at K=1 give (d+1) I
    coeffs = extreme_operator(np.zeros((5, 4)), 1.0, fam4)
    assert np.abs(coeffs.reconstruct(fam4) - 5 * np.eye(4)).max() <= 1e-10
    assert coeffs.trace == pytest.approx(20.0)


def test_extreme_single_phase_block(fam2):
    # one phase theta on cell (m=2, k=0): A = K sum Pi + K (e^i theta - 1) Pi_0^(2)
    theta = 0.7
    phases = np.zeros((3, 2))
    phases[1, 0] = theta
    coeffs = extreme_operator(phases, 0.5, fam2)
    base = 0.5 * 3 * np.eye(2)
    v = fam2.vectors[1, 0]  # |k=0, m=2>
    bump = 0.5 * (np.exp(1j * theta) - 1) * np.outer(v, v.conj())
    assert np.abs(coeffs.reconstruct(fam2) - base - bump).max() <= 1e-12


def test_extreme_coefficients_have_modulus_k(fam4):
    rng = stream_rng(8)
    coeffs = extreme_operator(rng.uniform(0, 2 * np.pi, (5, 4)), 0.2, fam4)
    assert np.allclose(np.abs(coeffs.coeffs), 0.2, atol=1e-14)
    assert coeffs.k_bound == 0.2


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
def test_extreme_operator_norm_bounded(d):
    # K = 1/(d+1): each basis block has operator norm at most 1/(d+1), so the
    # assembled operator norm stays O(1); assert the generous bound 2
    family = build_mub(d)
    rng = stream_rng(14, d)
    for _ in range(100 // max(1, d // 8)):
        phases = rng.uniform(0, 2 * np.pi, (d + 1, d))
        a = extreme_operator(phases, 1.0 / (d + 1), family).reconstruct(family)
        assert np.linalg.norm(a, 2) <= 2.0


def test_extreme_phase_shape_mismatch(fam2):
    with pytest.raises(ValueError, match="shape"):
        extreme_operator(np.zeros((2, 2)), 1.0, fam2)


# ---------------------------------------------------------------------------
# mean-value estimation


def test_mean_fold_pauli_z_on_basis_state(fam2):
    rho = make_pure_superposition(0, 1, 1, 0, 2)  # |0><0|, <Z> = +1
    dist = outcome_distribution(rho, fam2, PovmMode.FULL)
    coeffs = decompose_operator(np.diag([1.0, -1.0]).astype(complex), fam2)
    assert fold_mean(dist, fam2, coeffs) == pytest.approx(1.0, abs=1e-10)


def test_mean_fold_identity_is_one(fam4):
    coeffs = decompose_operator(np.eye(4, dtype=complex), fam4)
    for seed in range(5):
        rho = random_density(4, 1 + seed % 4, seed)
        dist = outcome_distribution(rho, fam4, PovmMode.FULL)
        assert fold_mean(dist, fam4, coeffs) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mean_fold_matches_trace_oracle(d):
    family = build_mub(d)
    rng = stream_rng(40, d)
    for rep in range(12):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = random_density(d, 1 + rep % d, 500 + rep)
        dist = outcome_distribution(rho, family, PovmMode.FULL)
        coeffs = decompose_operator(g, family)
        assert fold_mean(dist, family, coeffs) == pytest.approx(
            complex(np.trace(rho @ g)), abs=1e-10)


def test_estimate_mean_sampled(fam2):
    rho = make_pure_superposition(0, 1, 1, 0, 2)
    dist = outcome_distribution(rho, fam2, PovmMode.FULL)
    record = sample_record(dist, 200_000, seed=6)
    coeffs = decompose_operator(np.diag([1.0, -1.0]).astype(complex), fam2)
    value = fold_mean(record, fam2, coeffs)
    assert value.real == pytest.approx(1.0, abs=0.05)


def test_estimate_mean_mode_mismatch(fam2):
    rho = np.eye(2, dtype=complex) / 2
    record = sample_record(outcome_distribution(rho, fam2, PovmMode.OFFDIAG), 10, 0)
    coeffs = decompose_operator(np.eye(2, dtype=complex), fam2)
    with pytest.raises(ValueError, match="full"):
        fold_mean(record, fam2, coeffs)


def test_mean_fold_extreme_operator_matches_trace(fam4):
    rng = stream_rng(55)
    for rep in range(10):
        phases = rng.uniform(0, 2 * np.pi, (5, 4))
        coeffs = extreme_operator(phases, 0.2, fam4)
        a = coeffs.reconstruct(fam4)
        rho = random_density(4, 4, 700 + rep)
        dist = outcome_distribution(rho, fam4, PovmMode.FULL)
        assert fold_mean(dist, fam4, coeffs) == pytest.approx(
            complex(np.trace(rho @ a)), abs=1e-10)


def test_a_mean_that_overflows_is_refused(fam2):
    # each coefficient fits a float, but a cell's count times it does not
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.FULL)
    record = sample_record(dist, 20_000, seed=3)
    coeffs = extreme_operator(np.zeros((3, 2)), 1e305, fam2)
    with pytest.raises(ValueError, match="operator mean overflows"):
        fold_mean(record, fam2, coeffs)


def test_mean_and_diagonal_folds_check_the_fingerprint(fam2):
    # same dimension and mode, but taken against another family
    def foreign(mode, cells):
        return _counted(2, mode, "0123456789abcdef", cells)

    coeffs = decompose_operator(np.eye(2, dtype=complex), fam2)
    with pytest.raises(FingerprintMismatch):
        fold_mean(foreign(PovmMode.FULL, [0, 2, 4]), fam2, coeffs)  # outcome 0 of bases 1, 2, 3
    with pytest.raises(FingerprintMismatch):
        estimate_diagonal(foreign(PovmMode.COMPUTATIONAL, [0, 0]), fam2, 0)


def test_folds_check_distributions_like_records(fam2):
    fam3 = build_mub(3)
    dist = outcome_distribution(np.eye(3, dtype=complex) / 3, fam3, PovmMode.OFFDIAG)
    with pytest.raises(FingerprintMismatch, match="dimension"):
        fold_element(dist, fam2, 0, 1)
    with pytest.raises(ValueError, match="computational"):
        fold_diagonal(dist, fam3, 0)


def test_counts_over_several_slices_equal_one_bincount(fam4):
    n = 3 * measurement._BLOCK + 123  # a partial last slice
    dist = outcome_distribution(random_density(4, 4, 11), fam4, PovmMode.OFFDIAG)
    record = sample_record(dist, n, seed=11)
    counts = outcome_counts(record)
    assert counts.shape == (4, 4) and counts.dtype == np.intp
    assert np.array_equal(counts.ravel(), np.bincount(cells(record).astype(np.int64),
                                                      minlength=16))


def test_a_record_counted_once_folds_like_the_record():
    family = build_mub(64)
    record = sample_record(outcome_distribution(random_density(64, 4, 1), family,
                                                PovmMode.OFFDIAG), 20_000, seed=5)
    counted = record.counted()
    assert isinstance(counted, RecordCounts) and counted.n == record.n
    assert np.array_equal(counted.counts, outcome_counts(record))
    for j in range(1, 64):
        assert estimate_element(counted, family, 0, j) == estimate_element(record, family, 0, j)


def test_count_table_draws_a_stream_anew_on_each_call(fam4):
    record = sample_record(outcome_distribution(random_density(4, 2, 8), fam4,
                                                PovmMode.OFFDIAG), 5_000, seed=8)
    first, n = count_table(record, fam4, PovmMode.OFFDIAG)
    again, _ = count_table(record, fam4, PovmMode.OFFDIAG)
    assert n == 5_000 and first is not again and np.array_equal(first, again)
    assert np.array_equal(first, record.counted().counts)


def test_guarantee_states_what_hoeffding_proves(fam2):
    # Hoeffding on Re and Im with a union bound bounds max(|Re err|, |Im err|), not |err|
    n = 119_830
    record = _counted(2, PovmMode.OFFDIAG, fam2.fingerprint(), np.zeros(n))
    est = estimate_element(record, fam2, 0, 1, epsilon=0.01)
    assert est.guarantee == ("Pr[max(|Re error|, |Im error|) >= 0.01] <= 0.00999965 "
                             "(Hoeffding, n=119830)")


@pytest.mark.parametrize("n, epsilon, shown", [
    (119_849, 0.01, "0.00999016"),  # the tail is 0.0099901503..., so rounding to nearest undercuts it
    (100, 0.01, "1"),  # a tail above 1, capped
    (1_000, 0.2, "8.24462E-9"),
])
def test_guarantee_rounds_the_tail_up(fam2, n, epsilon, shown):
    record = _counted(2, PovmMode.OFFDIAG, fam2.fingerprint(), np.zeros(n))
    est = estimate_element(record, fam2, 0, 1, epsilon=epsilon)
    assert est.guarantee == (f"Pr[max(|Re error|, |Im error|) >= {epsilon}] <= {shown} "
                             f"(Hoeffding, n={n})")
    tail = hoeffding_tail(n, epsilon)
    assert min(tail, 1) <= decimal.Decimal(shown) <= min(tail, 1) * (1 + decimal.Decimal("1e-5"))


def test_derived_radius_guarantees_delta_itself(fam2):
    # sqrt(2*log(4/delta)/n) lands a hair below the exact radius at n = 20,000
    record = _counted(2, PovmMode.OFFDIAG, fam2.fingerprint(), np.zeros(20_000))
    est = estimate_element(record, fam2, 0, 1, delta=0.01)
    assert est.guarantee.endswith(" <= 0.01 (Hoeffding, n=20000)")
    assert hoeffding_tail(20_000, est.epsilon) <= 0.01
    assert hoeffding_tail(20_000, math.nextafter(est.epsilon, 0)) > 0.01


def test_every_printed_guarantee_is_proved(fam2):
    rng = stream_rng(20)
    refusals = 0
    for _ in range(300):
        n = int(rng.integers(1, 10**7))
        record = RecordCounts(d=2, mode=PovmMode.OFFDIAG, seed=0, n=n,
                              mub_fingerprint=fam2.fingerprint(), counts=np.array([[n, 0], [0, 0]]))
        given = {"epsilon": float(10 ** rng.uniform(-4, -0.3))} if rng.random() < 0.5 else {}
        if rng.random() < 0.5:
            given["delta"] = float(10 ** rng.uniform(-12, -0.01))
        if "epsilon" in given and "delta" in given:  # a pair is refused unless it is proved
            refused = hoeffding_tail(n, given["epsilon"]) > given["delta"]
            refusals += refused
            if refused:
                with pytest.raises(ValueError, match=f"^--epsilon .* disagree: the bound for n={n} "):
                    estimate_element(record, fam2, 0, 1, **given)
                continue
        est = estimate_element(record, fam2, 0, 1, **given)
        epsilon, rest = est.guarantee.removeprefix("Pr[max(|Re error|, |Im error|) >= ").split("]")
        bound = decimal.Decimal(rest.split(" <= ")[1].split(" ")[0])
        assert float(epsilon) == est.epsilon
        assert min(hoeffding_tail(n, float(epsilon)), 1) <= bound
        if "epsilon" not in given:  # the derived radius: the tail itself is at most delta
            assert hoeffding_tail(n, est.epsilon) <= given.get("delta", 0.01)
    assert 0 < refusals < 75  # a quarter of the draws give both flags, some of them unproved


def test_hoeffding_tail_is_the_float_formula_within_the_float_range():
    for n, eps, m in [(119_830, 0.01, 1), (1_199, 0.1, 1), (175_282, 0.01, 16), (10, 0.3, 2)]:
        assert float(hoeffding_tail(n, eps, m)) == pytest.approx(
            4 * m * math.exp(-n * eps**2 / 2), rel=1e-12)
    # an operator's weights reach (d+1)*K: K = 1/(d+1) gives the element tail
    assert float(hoeffding_tail(4_793, 0.05, 3, 1 / 5, 4)) == pytest.approx(
        float(hoeffding_tail(4_793, 0.05, 3)), rel=1e-12)


def test_hoeffding_tail_holds_below_the_float_range():
    # n*eps^2/2 = 1250 for the float nearest 0.05, taken exactly: a float exp gives 0
    log_tail = decimal.Context(Emin=decimal.MIN_EMIN).ln(hoeffding_tail(10**6, 0.05, 7))
    exponent = 10**6 * decimal.Decimal(0.05)**2 / 2
    assert abs(log_tail - (decimal.Decimal(28).ln() - exponent)) < decimal.Decimal("1e-20")


def test_bound_text_rounds_up_to_six_digits_and_refuses_zero():
    D = decimal.Decimal
    assert bound_text(D("0.0123456"), "b") == "0.0123456"
    assert bound_text(D("0.01234560001"), "b") == "0.0123457"
    assert bound_text(D("3.999999999"), "b") == "4"
    assert bound_text(D("1.2345678E-400000"), "b") == "1.23457E-400000"
    with pytest.raises(ValueError, match="^the bound is below 1e-999999999999999999, too small"):
        bound_text(hoeffding_tail(10**6, 1e10), "the bound")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_operator_rejects_non_finite_entries(fam2, bad):
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decompose_operator(a, fam2)
