"""Full-state assembly and projection onto valid density matrices.

The linear estimate rho_L is assembled elementwise from the two universal
records (off-diagonal + computational).  It is Hermitian by construction but
not necessarily positive, so it gets projected onto the density-matrix set
under the max norm:

    minimize t  subject to  |rho_L - Y|_ij <= t for all (i, j),  Y PSD
    (and tr Y = 1 by default; pass enforce_trace=False for the cone only).

The optimum is the saddle point min_Y max_{sum|Z_ij| <= 1} Re<Z, rho_L - Y>.
The solver takes Chambolle-Pock primal-dual steps between the state set
(eigenvalues onto the probability simplex) and the entrywise l1 ball (moduli
onto the simplex, phases kept).  Every primal iterate is a valid state, every
dual iterate certifies a lower bound on t, and the solver stops on a duality
gap <= tol.  It starts from the eigen-clip repair, which is also the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import _check_plan_args, count_table
from .estimator import outcome_counts  # noqa: F401  perfbench traces this name
from .measurement import PovmMode, RecordCounts, RecordStream
from .mub import MubFamily, projector_sum
from .states import NormChainReport, check_norm_chain, density_fault, max_norm, require_hermitian

# Chambolle-Pock step sizes for K = -I (convergent as sigma * tau < 1), not tuned per input
STEP_DUAL = 1.0
STEP_PRIMAL = 0.99
CHECK_EVERY = 10
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class LinearEstimate:
    """Hermitian elementwise state estimate, before any positivity repair."""

    d: int
    matrix: np.ndarray = field(repr=False)


def assemble_linear_estimate(offdiag_record: RecordStream | RecordCounts,
                             diag_record: RecordStream | RecordCounts,
                             family: MubFamily,
                             epsilon: float | None = None,
                             delta: float | None = None) -> LinearEstimate:
    """Combine the two records into one Hermitian matrix estimate.

    Entry (i, j) with i < j is the off-diagonal fold, (j, i) its conjugate
    (structurally, not numerically), and (i, i) the computational frequency.
    """
    _check_plan_args(epsilon, delta)
    d = family.d
    counts, n = count_table(offdiag_record, family, PovmMode.OFFDIAG)
    diag_counts, n_diag = count_table(diag_record, family, PovmMode.COMPUTATIONAL)
    # folded[i, j] = estimator.fold_element(offdiag_record, family, i, j) for all
    # pairs at once: the eta_ij weights are d * v[m, k, i] * conj(v[m, k, j])
    folded = d * projector_sum(counts, family.vectors[1:]) / n
    upper = np.triu(folded, 1)
    matrix = upper + upper.conj().T
    matrix[np.diag_indices(d)] = diag_counts[0] / n_diag
    matrix.setflags(write=False)
    return LinearEstimate(d=d, matrix=matrix)


@dataclass(frozen=True)
class ProjectionResult:
    """Projected state, its achieved max-norm distance, and solver diagnostics."""

    rho: np.ndarray = field(repr=False)
    t_star: float
    iterations: int
    converged: bool
    method: str
    gap: float | None = None  # t_star minus a certified lower bound; None: uncertified


def _hermitian_input(x) -> np.ndarray:
    """A matrix or LinearEstimate, checked Hermitian to 1e-10, then symmetrised."""
    m = require_hermitian(x.matrix if isinstance(x, LinearEstimate) else x, tol=1e-10,
                          what="input")
    return (m + m.conj().T) / 2


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(u) + 1)
    r = int(np.nonzero(u - (css - 1.0) / idx > 0)[0].max()) + 1
    theta = (css[r - 1] - 1.0) / r
    return np.clip(w - theta, 0.0, None)


def _project_density(y: np.ndarray, enforce_trace: bool) -> np.ndarray:
    w, v = np.linalg.eigh(y)
    w = _simplex(w) if enforce_trace else np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def _project_l1_ball(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {sum |z_ij| <= 1}: shrink the moduli, keep the phases."""
    mags = np.abs(z)
    if mags.sum() <= 1.0:
        return z
    shrunk = _simplex(mags.ravel()).reshape(mags.shape)
    return z * np.divide(shrunk, mags, out=np.zeros_like(mags), where=mags > 0)


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


def _dual_bound(z: np.ndarray, x: np.ndarray, enforce_trace: bool) -> float:
    """Lower bound min_Y Re<Z, X - Y> on the optimal distance, for Hermitian Z in the ball."""
    if enforce_trace:
        return float(np.vdot(z, x).real - np.linalg.eigvalsh(z)[-1])
    w, v = np.linalg.eigh(z)
    z_neg = (v * np.minimum(w, 0.0)) @ v.conj().T
    return float(np.vdot(z_neg, x).real / max(1.0, np.abs(z_neg).sum()))


def project_psd_maxnorm(rho_l, tol: float = 1e-6, enforce_trace: bool = True) -> ProjectionResult:
    """Closest valid state to rho_L in the max norm, certified to within tol.

    Chambolle-Pock steps (sigma = STEP_DUAL, tau = STEP_PRIMAL, K = -I) on the
    saddle point of the module docstring.  The best primal iterate is returned
    with its distance t_star; every CHECK_EVERY steps the dual iterate may raise
    the lower bound, and the solver stops once gap = t_star - bound <= tol, or
    after MAX_ITERATIONS steps with converged=False.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    x = _hermitian_input(rho_l)
    if density_fault(x, enforce_trace) is None:
        return ProjectionResult(rho=x, t_star=0.0, iterations=0, converged=True,
                                method="maxnorm-sdp", gap=0.0)

    # start from the eigen-clip repair (cone-only mode: plain clip, no renormalize)
    y = project_psd_clip(x).rho if enforce_trace else _project_density(x, False)
    y_bar, z = y, np.zeros_like(x)
    best, best_f = y, max_norm(y - x)
    # a unit-trace state misses some diagonal entry by at least |tr X - 1| / d
    lower = float(abs(np.trace(x).real - 1.0)) / x.shape[0] if enforce_trace else 0.0
    for it in range(1, MAX_ITERATIONS + 1):
        z = _project_l1_ball(z + STEP_DUAL * (x - y_bar))
        z = (z + z.conj().T) / 2
        y_new = _project_density(y + STEP_PRIMAL * z, enforce_trace)
        y_bar, y = 2 * y_new - y, y_new
        f = max_norm(y - x)
        if f < best_f:
            best, best_f = y, f
        if it % CHECK_EVERY == 0 or it == MAX_ITERATIONS:
            lower = max(lower, _dual_bound(z, x, enforce_trace))
            if best_f - lower <= tol:
                break
    gap = best_f - lower
    return ProjectionResult(rho=best, t_star=best_f, iterations=it, converged=gap <= tol,
                            method="maxnorm-sdp", gap=gap)


def trace_norm_budget(epsilon: float, d: int) -> float:
    """Trace-norm error nu implied by a max-norm error epsilon: nu = sqrt(d^3)*eps."""
    if epsilon <= 0 or d < 1:
        raise ValueError("epsilon and d must be positive")
    return math.sqrt(d**3) * epsilon


def error_report(truth: np.ndarray, estimate) -> NormChainReport:
    """Max, Frobenius and trace norms of truth - estimate, with their inequality chain."""
    t = np.asarray(truth, dtype=np.complex128)
    e = _hermitian_input(estimate)
    if t.shape != e.shape:
        raise ValueError(f"dimension mismatch: {t.shape} vs {e.shape}")
    return check_norm_chain(t - e)
