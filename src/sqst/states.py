"""Density matrices, the one Hermitian check, and the matrix-norm machinery.

Matrices are plain complex numpy arrays; the functions here validate the
structural invariants (Hermiticity to 1e-12, unit trace, positive spectrum)
instead of wrapping arrays in classes.  `require_hermitian` is the one
Hermitian check: states (presets and files) and projection inputs all pass
through it, so a non-finite or non-Hermitian matrix fails in one place.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGEN_TOL = 1e-10


def philox_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed, *stream).

    Distinct streams are statistically independent and reproducible, which
    is what makes sharded sampling and worker pools deterministic.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, stream)])))


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if dev > tol:
        raise ValueError(f"{what} is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return m


def density_fault(m: np.ndarray, enforce_trace: bool = True) -> str | None:
    """Why Hermitian m is not a state, or None: the one valid-state rule.

    No eigenvalue below -EIGEN_TOL and, with enforce_trace, |tr m - 1| <= TRACE_TOL.
    """
    tr = complex(np.trace(m))
    if enforce_trace and abs(tr - 1.0) > TRACE_TOL:
        return f"state trace {tr} differs from 1 by more than {TRACE_TOL:.1e}"
    lo = float(np.linalg.eigvalsh(m).min())
    if lo < -EIGEN_TOL:
        return f"state has eigenvalue {lo:.3e} below -{EIGEN_TOL:.1e}"
    return None


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate the density-matrix invariants; returns the array unchanged."""
    rho = require_hermitian(rho, what="state")
    fault = density_fault(rho)
    if fault:
        raise ValueError(fault)
    return rho


def make_pure_superposition(i: int, j: int, a: complex, b: complex, d: int) -> np.ndarray:
    """Density matrix of the normalized superposition a|i> + b|j>, i != j."""
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"labels ({i}, {j}) outside 0..{d - 1}")
    if i == j:
        raise ValueError("superposition labels must differ")
    try:
        norm = abs(a) ** 2 + abs(b) ** 2  # NaN or inf for a non-finite amplitude
    except OverflowError:  # a modulus or a Python float square past the float range
        norm = math.inf
    if a == 0 and b == 0:
        raise ValueError("amplitudes a and b are both zero")
    if not norm < math.inf:
        raise ValueError("amplitudes a and b must be finite, and |a|^2 + |b|^2 too")
    if norm < sys.float_info.min:  # zero or subnormal: the normalised state loses its trace
        raise ValueError(f"|a|^2 + |b|^2 = {norm} underflows the float range; scale a and b up")
    psi = np.zeros(d, dtype=np.complex128)
    psi[i] = a
    psi[j] = b
    psi /= math.sqrt(norm)
    return np.outer(psi, psi.conj())


def random_density(d: int, rank: int, seed: int) -> np.ndarray:
    """Rank-r state from the Hilbert-Schmidt (Wishart) ensemble, deterministic per seed."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} outside 1..{d}")
    rng = philox_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2  # G G^+ is Hermitian only up to rounding; make it exact
    return m / np.trace(m).real


def random_hermitian(d: int, seed_or_rng) -> np.ndarray:
    """Gaussian Hermitian matrix, for fuzzing the norm inequalities."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else philox_rng(seed_or_rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def schatten_norm(h: np.ndarray, p) -> float:
    """Schatten p-norm: p=1 trace, p=2 Frobenius, p=inf operator norm.

    Computed on the singular values; for Hermitian input these are the
    absolute eigenvalues, which is the cheaper path taken here.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    if p != np.inf and p < 1:
        raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    if np.abs(h - h.conj().T).max() <= HERMITIAN_TOL:
        s = np.abs(np.linalg.eigvalsh(h))
    else:
        s = np.linalg.svd(h, compute_uv=False)
    if p == np.inf:
        return float(s.max(initial=0.0))
    return float((s**p).sum() ** (1.0 / p))


def max_norm(m: np.ndarray) -> float:
    """Largest elementwise modulus."""
    return float(np.abs(np.asarray(m)).max(initial=0.0))


@dataclass(frozen=True)
class NormChainReport:
    """The five norm inequalities tying the max norm to Frobenius and trace.

    slacks holds (rhs - lhs) of, in order: max <= Frobenius, Frobenius <= d*max,
    trace <= sqrt(d)*Frobenius, Frobenius <= trace, and
    trace/sqrt(d^3) <= max <= trace.  An inequality holds when its slack is
    at least -1e-12*d.  For Hermitian input all five are theorems, so a
    failure indicates a numerical bug, not an unlucky matrix.
    """

    d: int
    max_norm: float
    frobenius_norm: float
    trace_norm: float
    slacks: tuple

    @property
    def passed(self) -> bool:
        return all(s >= -1e-12 * max(self.d, 1) for s in self.slacks)


def check_norm_chain(e: np.ndarray) -> NormChainReport:
    """Evaluate the max/Frobenius/trace norm chain for a Hermitian error matrix."""
    e = require_hermitian(e)
    d = e.shape[0]
    mx = max_norm(e)
    fro = schatten_norm(e, 2)
    tr = schatten_norm(e, 1)
    slacks = (
        fro - mx,
        d * mx - fro,
        math.sqrt(d) * fro - tr,
        tr - fro,
        min(mx - tr / math.sqrt(d**3), tr - mx),
    )
    return NormChainReport(d=d, max_norm=mx, frobenius_norm=fro, trace_norm=tr, slacks=slacks)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"d": m.shape[0], "rows": np.stack([m.real, m.imag], axis=-1).tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = int(obj["d"])
    arr = np.asarray(obj["rows"], dtype=np.float64)
    if arr.shape != (d, d, 2):
        raise ValueError(f"malformed matrix JSON: expected shape {(d, d, 2)}, got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_matrix(m: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
