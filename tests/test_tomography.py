import math

import numpy as np
import pytest

from oracles import (maxnorm_projection_grid_d2, maxnorm_projection_grid_d3,
                     random_nonpsd_matrix)
import sqst.tomography as tomography
from sqst.estimator import fold_diagonal, fold_element
from sqst.measurement import PovmMode, RecordCounts, outcome_distribution, sample_record
from sqst.mub import build_mub
from sqst.states import TRACE_TOL, density_fault, max_norm, random_density, stream_rng
from sqst.tomography import (assemble_linear_estimate, error_report, project_psd_clip,
                             project_psd_maxnorm)


@pytest.fixture(scope="module")
def fam4():
    return build_mub(4)


def _records_for(rho, family, n, seed):
    off = sample_record(outcome_distribution(rho, family, PovmMode.OFFDIAG), n, seed)
    diag = sample_record(outcome_distribution(rho, family, PovmMode.COMPUTATIONAL), n, seed + 1)
    return off, diag


# ---------------------------------------------------------------------------
# assembly


def test_exact_fold_assembly_reproduces_state(fam4):
    # oracle composition: assemble from exact folds instead of samples
    rho = random_density(4, 4, seed=17)
    off_dist = outcome_distribution(rho, fam4, PovmMode.OFFDIAG)
    comp_dist = outcome_distribution(rho, fam4, PovmMode.COMPUTATIONAL)
    assembled = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        assembled[i, i] = fold_diagonal(comp_dist, fam4, i)
        for j in range(i + 1, 4):
            assembled[i, j] = fold_element(off_dist, fam4, i, j)
            assembled[j, i] = assembled[i, j].conjugate()
    assert max_norm(assembled - rho) <= 1e-10


def test_sampled_assembly_is_structurally_hermitian(fam4):
    rho = random_density(4, 2, seed=3)
    off, diag = _records_for(rho, fam4, 2000, seed=50)
    lin = assemble_linear_estimate(off, diag, fam4)
    m = lin.matrix
    assert np.array_equal(m, m.conj().T)  # exact, not approximate
    assert np.all(np.diag(m).real >= 0) and np.all(np.diag(m).real <= 1)
    assert np.all(np.diag(m).imag == 0)


def test_sampled_assembly_close_to_truth(fam4):
    rho = np.eye(4, dtype=complex) / 4
    off, diag = _records_for(rho, fam4, 100_000, seed=8)
    lin = assemble_linear_estimate(off, diag, fam4)
    assert max_norm(lin.matrix - rho) <= 0.02


def test_assembly_matches_elementwise_estimators(fam4):
    from sqst.estimator import estimate_diagonal, estimate_element
    rho = random_density(4, 4, seed=23)
    off, diag = _records_for(rho, fam4, 5000, seed=70)
    lin = assemble_linear_estimate(off, diag, fam4)
    for i in range(4):
        assert lin.matrix[i, i] == pytest.approx(estimate_diagonal(diag, fam4, i).value, abs=1e-14)
        for j in range(i + 1, 4):
            assert lin.matrix[i, j] == pytest.approx(
                estimate_element(off, fam4, i, j).value, abs=1e-12)


def test_assembly_matches_per_pair_folds_at_d64():
    family = build_mub(64)
    off, diag = _records_for(random_density(64, 4, seed=31), family, 20_000, seed=110)
    matrix = assemble_linear_estimate(off, diag, family).matrix
    folded = np.array([[fold_diagonal(diag, family, i) if i == j
                         else fold_element(off, family, i, j) for j in range(64)] for i in range(64)])
    upper = np.triu_indices(64, 1)
    assert np.abs(matrix[upper] - folded[upper]).max() <= 1e-12
    assert np.abs(matrix.T[upper] - folded[upper].conj()).max() <= 1e-12
    assert np.abs(np.diag(matrix) - np.diag(folded)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 16, 64])
def test_linear_estimate_has_unit_trace_to_rounding(d):
    # rho_L's diagonal is the computational frequencies, so `--project none`
    # reports psd through the one state rule, trace check included
    family = build_mub(d)
    rng = stream_rng(7, d)
    for n in (1, 7, 300_000):
        records = [RecordCounts(d=d, mode=mode, seed=0, n=n, mub_fingerprint=family.fingerprint(),
                                counts=rng.multinomial(n, rng.dirichlet(np.ones(bases * d)))
                                .reshape(bases, d))
                   for mode, bases in ((PovmMode.OFFDIAG, d), (PovmMode.COMPUTATIONAL, 1))]
        linear = assemble_linear_estimate(*records, family)
        assert abs(np.trace(linear.matrix) - 1.0) <= 1e-13 < TRACE_TOL


def test_assembly_mode_and_fingerprint_checks(fam4):
    rho = random_density(4, 4, seed=4)
    off, diag = _records_for(rho, fam4, 100, seed=90)
    with pytest.raises(ValueError, match="mode"):
        assemble_linear_estimate(diag, diag, fam4)
    fam2 = build_mub(2)
    rho2 = np.eye(2, dtype=complex) / 2
    off2, diag2 = _records_for(rho2, fam2, 100, seed=91)
    with pytest.raises(ValueError, match="dimension"):
        assemble_linear_estimate(off, diag2, fam4)


# ---------------------------------------------------------------------------
# clip projection


def test_clip_hand_example():
    result = project_psd_clip(np.diag([1.2, -0.2]).astype(complex))
    assert np.allclose(result.rho, np.diag([1.0, 0.0]), atol=1e-12)
    assert result.t_star == pytest.approx(0.2, abs=1e-12)
    assert result.gap is None


def test_clip_leaves_valid_state_unchanged():
    rho = random_density(3, 3, seed=5)
    result = project_psd_clip(rho)
    assert max_norm(result.rho - rho) <= 1e-12


def test_clip_rejects_negative_semidefinite():
    with pytest.raises(ValueError, match="positive"):
        project_psd_clip(-np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# max-norm projection


def test_maxnorm_feasible_input_returned_unchanged():
    rho = random_density(4, 4, seed=19)
    result = project_psd_maxnorm(rho)
    assert result.t_star <= 1e-8
    assert max_norm(result.rho - rho) <= 1e-8
    assert result.converged
    assert result.gap == 0.0


def test_maxnorm_hand_example_diagonal():
    # grid oracle and hand computation agree: best is diag(1, 0) at t = 0.2
    x = np.diag([1.2, -0.2]).astype(complex)
    result = project_psd_maxnorm(x)
    oracle = maxnorm_projection_grid_d2(x)
    assert oracle == pytest.approx(0.2, abs=1e-9)
    assert result.t_star == pytest.approx(oracle, abs=1e-3)
    assert np.allclose(result.rho, np.diag([1.0, 0.0]), atol=1e-3)


def test_maxnorm_output_is_valid_state(fam4):
    for seed in range(5):
        x = random_nonpsd_matrix(3, 200 + seed)
        result = project_psd_maxnorm(x)
        assert np.linalg.eigvalsh(result.rho).min() >= -1e-10
        assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d,oracle", [(2, maxnorm_projection_grid_d2),
                                      (3, maxnorm_projection_grid_d3)])
def test_maxnorm_matches_grid_oracle(d, oracle):
    for seed in range(10):
        x = random_nonpsd_matrix(d, 300 + seed)
        result = project_psd_maxnorm(x)
        assert abs(result.t_star - oracle(x)) <= 1e-3


def test_maxnorm_never_beaten_by_clip():
    for seed in range(10):
        d = 2 + seed % 3
        x = random_nonpsd_matrix(d, 400 + seed)
        assert project_psd_maxnorm(x).t_star <= project_psd_clip(x).t_star + 1e-6


def test_maxnorm_restores_the_trace_of_a_psd_input():
    # PSD but trace 1.4: t = 0.2 once 0.4 is shaved across the two diagonals
    x = np.diag([0.9, 0.5]).astype(complex)
    result = project_psd_maxnorm(x)
    assert result.t_star == pytest.approx(0.2, abs=1e-3)
    assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_maxnorm_certifies_its_gap(d):
    tol = 1e-6
    for seed in range(500, 503):
        x = random_nonpsd_matrix(d, seed)
        result = project_psd_maxnorm(x, tol=tol)
        assert result.converged and result.iterations >= 1
        assert result.gap <= tol
        assert density_fault(result.rho) is None
        assert result.t_star <= project_psd_clip(x).t_star + tol


def test_maxnorm_iteration_cap_reports_unconverged(monkeypatch):
    monkeypatch.setattr(tomography, "MAX_ITERATIONS", 1)
    x = random_nonpsd_matrix(8, 501)
    result = project_psd_maxnorm(x)
    assert result.iterations == 1
    assert result.converged is False
    assert result.gap > 1e-6
    assert density_fault(result.rho) is None


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_maxnorm_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        project_psd_maxnorm(np.diag([1.2, -0.2]).astype(complex), tol=tol)


def test_maxnorm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        project_psd_maxnorm(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projections_reject_non_finite_input(bad):
    x = np.diag([1.2, -0.2]).astype(complex)
    x[0, 1] = x[1, 0] = bad
    for project in (project_psd_maxnorm, project_psd_clip):
        with pytest.raises(ValueError, match="non-finite"):
            project(x)


def test_projection_does_not_worsen_failure_rate():
    # probabilistic contraction: over sampled trials, the projected state
    # misses the max-norm target at most as often as the raw linear estimate
    # (up to binomial noise); n is kept small so that misses actually occur
    d, n, eps = 3, 2000, 0.03
    family = build_mub(d)
    count_l = count_p = 0
    for run in range(200):
        rho = random_density(d, d, seed=90_000 + run)
        off = sample_record(outcome_distribution(rho, family, PovmMode.OFFDIAG),
                            n, seed=91_000 + run)
        diag = sample_record(outcome_distribution(rho, family, PovmMode.COMPUTATIONAL),
                             n, seed=92_000 + run)
        lin = assemble_linear_estimate(off, diag, family)
        proj = project_psd_maxnorm(lin)
        count_l += max_norm(lin.matrix - rho) > eps
        count_p += max_norm(proj.rho - rho) > eps
    assert count_p <= count_l + 3 * math.sqrt(max(count_l, 1))


# ---------------------------------------------------------------------------
# error reports


def test_error_report_zero_for_equal_states():
    rho = random_density(3, 3, seed=33)
    report = error_report(rho, rho.copy())
    assert report.max_norm == 0.0
    assert report.trace_norm == pytest.approx(0.0, abs=1e-14)
    assert report.passed


def test_error_report_exact_assembly(fam4):
    rho = random_density(4, 4, seed=44)
    off_dist = outcome_distribution(rho, fam4, PovmMode.OFFDIAG)
    comp_dist = outcome_distribution(rho, fam4, PovmMode.COMPUTATIONAL)
    assembled = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        assembled[i, i] = fold_diagonal(comp_dist, fam4, i)
        for j in range(4):
            if i < j:
                assembled[i, j] = fold_element(off_dist, fam4, i, j)
                assembled[j, i] = assembled[i, j].conjugate()
    report = error_report(rho, assembled)
    assert report.max_norm <= 1e-9
    assert report.trace_norm <= 1e-9


def test_error_report_uses_linear_estimate(fam4):
    rho = random_density(4, 4, seed=55)
    off, diag = _records_for(rho, fam4, 50_000, seed=60)
    lin = assemble_linear_estimate(off, diag, fam4)
    report = error_report(rho, lin)
    assert report.max_norm <= 0.05
    assert report.passed
    assert report.trace_norm <= math.sqrt(4**3) * report.max_norm + 1e-12


def test_error_report_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        error_report(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)
