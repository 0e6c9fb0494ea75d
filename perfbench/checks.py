"""Output checks of the benchmark.

They test invariants the paper and the code promise, never per-seed values,
so that changes which legitimately move individual numbers (a new solver, a
multinomial sampler) still pass.  Each returns True for a good output.
"""

from __future__ import annotations

import math

import numpy as np

STATE_EIG_FLOOR = -1e-8
STATE_TRACE_TOL = 1e-8


def hoeffding_radius(n: int, delta: float, elements: int) -> float:
    """Radius r with 4*M*exp(-n r^2 / 2) = delta.

    With probability >= 1 - delta the Re and Im errors of all M element
    estimates from n copies each lie within r (Hoeffding on each part, union
    bound over the 2M parts and both signs).
    """
    return math.sqrt(2.0 * math.log(4.0 * elements / delta) / n)


def state_ok(rho) -> bool:
    """A valid density matrix: finite, Hermitian, unit trace, no negative eigenvalue."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not np.isfinite(rho).all():
        return False
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        return False
    return (float(np.linalg.eigvalsh(rho).min()) >= STATE_EIG_FLOOR
            and abs(complex(np.trace(rho)) - 1.0) <= STATE_TRACE_TOL)


def estimates_ok(rows, truth, radius: float, elements) -> bool:
    """Every requested element is present and its Re and Im errors lie within radius."""
    got = {(int(r["i"]), int(r["j"])): complex(r["re"], r["im"]) for r in rows}
    if set(got) != set(elements):
        return False
    return all(abs(z.real - truth[ij].real) <= radius and abs(z.imag - truth[ij].imag) <= radius
               for ij, z in got.items())


def fig2_failed_trials(n: int, rows, dims, epsilon: float, delta: float,
                       expected_n: int) -> set:
    """(d, trial) pairs of one reproduce_fig2 call that fail the checks.

    A trial fails when its error is not finite.  All trials of a dimension
    fail when that dimension breaks criterion 5 (fraction of errors above
    epsilon at most delta, three standard deviations below epsilon), and all
    trials fail when the copy count is not the planner's.
    """
    by_dim = {d: [(t, err) for dd, t, err in rows if dd == d] for d in dims}
    failed = set()
    for d, trials in by_dim.items():
        errs = np.array([err for _, err in trials], dtype=np.float64)
        finite = np.isfinite(errs)
        failed.update((d, t) for (t, _), ok in zip(trials, finite) if not ok)
        dim_ok = (n == expected_n and len(errs) > 0 and finite.all()
                  and (errs > epsilon).mean() <= delta and 3.0 * errs.std() < epsilon)
        if not dim_ok:
            failed.update((d, t) for t, _ in trials)
    return failed


def tomography_ok(truth, linear, result, clip_t_star: float, epsilon: float,
                  tol: float) -> bool:
    """Criteria 7 and 8 on one state.

    The projected state is valid, its max-norm distance is no worse than the
    eigen-clip repair's, and whenever the linear estimate is within epsilon
    of the truth in the max norm, the projected state is within
    sqrt(d^3)*epsilon of it in the trace norm.
    """
    if not state_ok(result.rho) or not result.t_star <= clip_t_star + tol:
        return False
    d = truth.shape[0]
    if np.abs(linear - truth).max() <= epsilon:
        trace_err = float(np.abs(np.linalg.eigvalsh(truth - result.rho)).sum())
        return trace_err <= math.sqrt(d**3) * epsilon
    return True
