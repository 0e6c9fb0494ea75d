"""Full-state assembly and projection onto valid density matrices.

The linear estimate rho_L is assembled elementwise from the two universal
records (off-diagonal + computational).  It is Hermitian by construction but
not necessarily positive, so it gets projected onto the density-matrix set
under the max norm:

    minimize t  subject to  |rho_L - Y|_ij <= t for all (i, j),  Y PSD
    (and tr Y = 1 by default; pass enforce_trace=False for the cone only).

The solver bisects on t and decides feasibility of each level set by
alternating projections between the elementwise box and the spectral set
(eigenvalues onto the probability simplex).  Both sets are convex, so the
alternation converges whenever the intersection is nonempty.  The eigen-clip
projector provides the always-feasible starting point and upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import count_table, outcome_counts  # noqa: F401  perfbench traces this name
from .measurement import MeasurementRecord, PovmMode
from .mub import MubFamily
from .states import (NormChainReport, check_norm_chain, max_norm, require_hermitian,
                     schatten_norm)

EIGEN_FLOOR = 1e-10
TRACE_SLACK = 1e-12


@dataclass(frozen=True)
class LinearEstimate:
    """Hermitian elementwise state estimate, before any positivity repair."""

    d: int
    matrix: np.ndarray = field(repr=False)
    epsilon: float | None
    delta: float | None
    offdiag_fingerprint: str
    diag_fingerprint: str
    n_offdiag: int
    n_diag: int


def assemble_linear_estimate(offdiag_record: MeasurementRecord,
                             diag_record: MeasurementRecord,
                             family: MubFamily,
                             epsilon: float | None = None,
                             delta: float | None = None) -> LinearEstimate:
    """Combine the two records into one Hermitian matrix estimate.

    Entry (i, j) with i < j is the off-diagonal fold, (j, i) its conjugate
    (structurally, not numerically), and (i, i) the computational frequency.
    """
    d = family.d
    counts, n = count_table(offdiag_record, family, PovmMode.OFFDIAG)
    diag_counts, n_diag = count_table(diag_record, family, PovmMode.COMPUTATIONAL)
    v = family.vectors[1:]
    # folded[i, j] = estimator.fold_element(offdiag_record, family, i, j) for all
    # pairs at once: the eta_ij weights are d * v[m, k, i] * conj(v[m, k, j])
    folded = d * np.einsum("mk,mki,mkj->ij", counts, v, v.conj()) / n
    upper = np.triu(folded, 1)
    matrix = upper + upper.conj().T
    matrix[np.diag_indices(d)] = diag_counts[0] / n_diag
    matrix.setflags(write=False)
    return LinearEstimate(d=d, matrix=matrix, epsilon=epsilon, delta=delta,
                          offdiag_fingerprint=offdiag_record.mub_fingerprint,
                          diag_fingerprint=diag_record.mub_fingerprint,
                          n_offdiag=offdiag_record.n, n_diag=diag_record.n)


@dataclass(frozen=True)
class ProjectionResult:
    """Projected state, its achieved max-norm distance, and solver diagnostics."""

    rho: np.ndarray = field(repr=False)
    t_star: float
    iterations: int
    converged: bool
    method: str


def _hermitian_input(x) -> np.ndarray:
    """A matrix or LinearEstimate, checked Hermitian to 1e-10, then symmetrised."""
    m = require_hermitian(x.matrix if isinstance(x, LinearEstimate) else x, tol=1e-10,
                          what="input")
    return (m + m.conj().T) / 2


def _simplex_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a spectrum onto {x >= 0, sum x = 1}."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(u) + 1)
    r = int(np.nonzero(u - (css - 1.0) / idx > 0)[0].max()) + 1
    theta = (css[r - 1] - 1.0) / r
    return np.clip(w - theta, 0.0, None)


def _project_density(y: np.ndarray, enforce_trace: bool) -> np.ndarray:
    w, v = np.linalg.eigh(y)
    w = _simplex_eigenvalues(w) if enforce_trace else np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def _project_box(y: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    delta = y - x
    mags = np.abs(delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mags > t, t / mags, 1.0)
    return x + delta * np.nan_to_num(scale, nan=1.0)


def _is_valid_density(m: np.ndarray, enforce_trace: bool = True) -> bool:
    if enforce_trace and (abs(np.trace(m).real - 1.0) > TRACE_SLACK
                          or abs(np.trace(m).imag) > TRACE_SLACK):
        return False
    return float(np.linalg.eigvalsh(m).min()) >= -EIGEN_FLOOR


def project_psd_clip(rho_l) -> ProjectionResult:
    """Baseline repair: clip negative eigenvalues, renormalize the trace."""
    x = _hermitian_input(rho_l)
    w, v = np.linalg.eigh(x)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise ValueError("clipped spectrum is zero: input has no positive part")
    rho = (v * (w / total)) @ v.conj().T
    rho = (rho + rho.conj().T) / 2
    return ProjectionResult(rho=rho, t_star=max_norm(rho - x), iterations=1,
                            converged=True, method="eigen-clip")


def project_psd_maxnorm(rho_l, tol: float = 1e-6, enforce_trace: bool = True,
                        max_sweeps: int = 2000, residual_tol: float = 1e-9) -> ProjectionResult:
    """Closest valid state to rho_L in the max norm, via bisection on t.

    Each level set is probed by alternating projections.  The density-side
    iterate y is a valid state at every sweep, so level t is accepted as soon
    as the achieved distance max|y - rho_L| reaches t (up to a slack tied to
    the current bisection window), and rejected when that distance stalls
    above it.  The returned matrix is the best valid iterate ever seen; its
    achieved distance is the reported t_star.  The optimum is generally
    non-unique; this fixed sweep order keeps the output deterministic.
    """
    x = _hermitian_input(rho_l)
    d = x.shape[0]
    if _is_valid_density(x, enforce_trace):
        return ProjectionResult(rho=x, t_star=0.0, iterations=0,
                                converged=True, method="maxnorm-sdp")

    sweeps = 0

    def descend(t: float, start: np.ndarray, slack: float):
        """Best valid iterate found at level t, and whether it reached t + slack."""
        nonlocal sweeps
        y = start
        best_y, best_f = start, max_norm(start - x)
        checkpoint = best_f
        for s in range(1, max_sweeps + 1):
            sweeps += 1
            b = _project_box(y, x, t)
            y = _project_density(b, enforce_trace)
            f = max_norm(y - x)
            if f < best_f:
                best_y, best_f = y, f
            if f <= t + slack:
                return y, f, True
            if s % 100 == 0:
                if checkpoint - f < 1e-3 * (checkpoint - t):
                    break  # excess over t is no longer shrinking: level infeasible
                checkpoint = f
        return best_y, best_f, False

    # start from the eigen-clip repair (cone-only mode: plain clip, no renormalize)
    start = project_psd_clip(x).rho if enforce_trace else _project_density(x, False)
    best, best_f = start, max_norm(start - x)
    t_hi = best_f
    t_lo = abs(np.trace(x).real - 1.0) / d if enforce_trace else 0.0
    while t_hi - t_lo > tol:
        window = t_hi - t_lo
        t_mid = (t_hi + t_lo) / 2
        y, f, reached = descend(t_mid, best, max(residual_tol, 0.01 * window))
        if f < best_f:
            best, best_f = y, f
        if reached:
            t_hi = min(t_hi, best_f)
        else:
            t_lo = t_mid
            t_hi = min(t_hi, best_f)
    return ProjectionResult(rho=best, t_star=best_f, iterations=sweeps,
                            converged=True, method="maxnorm-sdp")


def trace_norm_budget(epsilon: float, d: int) -> float:
    """Trace-norm error nu implied by a max-norm error epsilon: nu = sqrt(d^3)*eps."""
    if epsilon <= 0 or d < 1:
        raise ValueError("epsilon and d must be positive")
    return math.sqrt(d**3) * epsilon


def max_error_for_trace_target(nu: float, d: int) -> float:
    """Inverse budget: the max-norm error that guarantees trace-norm error nu."""
    if nu <= 0 or d < 1:
        raise ValueError("nu and d must be positive")
    return nu / math.sqrt(d**3)


@dataclass(frozen=True)
class ErrorReport:
    """Norms of the error matrix truth - estimate, plus the inequality chain."""

    max_norm: float
    frobenius_norm: float
    trace_norm: float
    chain: NormChainReport

    def to_json_dict(self) -> dict:
        return {
            "max_norm": self.max_norm,
            "frobenius_norm": self.frobenius_norm,
            "trace_norm": self.trace_norm,
            "chain_passed": self.chain.passed,
        }


def error_report(truth: np.ndarray, estimate) -> ErrorReport:
    t = np.asarray(truth, dtype=np.complex128)
    e = _hermitian_input(estimate)
    if t.shape != e.shape:
        raise ValueError(f"dimension mismatch: {t.shape} vs {e.shape}")
    diff = t - e
    return ErrorReport(
        max_norm=max_norm(diff),
        frobenius_norm=schatten_norm(diff, 2),
        trace_norm=schatten_norm(diff, 1),
        chain=check_norm_chain(diff),
    )
