"""Density matrices, the one generator, the one Hermitian check, and the norm machinery.

Matrices are plain complex numpy arrays; the functions here validate the
structural invariants (Hermiticity to 1e-12, unit trace, positive spectrum)
instead of wrapping arrays in classes.  `require_hermitian` is the one
Hermitian check: states (presets and files), projection inputs and norms all
pass through it, so a non-finite or non-Hermitian matrix fails in one place.
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


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """PCG64DXSM generator of SeedSequence(seed, spawn_key=stream): the package's one generator.

    Distinct keys give independent streams for a seed below 2**128 and stream integers below
    2**32: numpy pads the seed to four 32-bit words and appends one per stream integer.  A plain
    entropy list [seed, *stream] aliases: it drops trailing zero words and splits wide integers.
    """
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(int(seed), spawn_key=stream)))


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


def density_fault(m: np.ndarray) -> str | None:
    """Why Hermitian m is not a state, or None: the one valid-state rule.

    |tr m - 1| <= TRACE_TOL and no eigenvalue below -EIGEN_TOL.
    """
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
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
    rng = stream_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2  # G G^+ is Hermitian only up to rounding; make it exact
    return m / np.trace(m).real


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix drawn from rng, for fuzzing the norm inequalities."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def schatten_norms(h: np.ndarray, ps) -> list:
    """Schatten p-norms of Hermitian h, one per p: p=1 trace, p=2 Frobenius, p=inf operator.

    The singular values of a Hermitian matrix are its absolute eigenvalues, so
    every norm comes from one eigvalsh, after the one Hermitian check.
    """
    h = require_hermitian(h)
    for p in ps:
        if p < 1:
            raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    s = np.abs(np.linalg.eigvalsh(h))
    return [float(s.max(initial=0.0)) if p == np.inf else float((s**p).sum() ** (1.0 / p))
            for p in ps]


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
    fro, tr = schatten_norms(e, (2, 1))  # through require_hermitian
    d = len(e)
    mx = max_norm(e)
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


def number_array(obj) -> np.ndarray | None:
    """obj as a float64 array when it is a rectangular nest of JSON numbers (not true/false), else None."""
    arr = np.asarray(obj, dtype=object)  # a ragged nest keeps its lists as entries
    if not set(map(type, arr.ravel().tolist())) <= {int, float}:
        return None
    try:
        return arr.astype(np.float64)  # an integer as the float it rounds to
    except OverflowError:  # an integer past the float range
        return None


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of {"d": d, "rows": d x d [re, im] pairs}, bit for bit (-0.0 too); ValueError otherwise."""
    d = obj.get("d") if isinstance(obj, dict) else None
    if type(d) is not int or d < 1:  # a JSON integer: not 2.5, 1e400 or true
        raise ValueError('malformed matrix JSON: need an object with an integer "d" >= 1')
    arr = number_array(obj.get("rows"))
    if arr is None:
        raise ValueError('malformed matrix JSON: "rows" is not an array of numbers')
    if arr.shape != (d, d, 2):
        raise ValueError(f"malformed matrix JSON: expected shape {(d, d, 2)}, got {arr.shape}")
    return arr.view(np.complex128)[..., 0]


def save_complex_json(path, d: int, key: str, parts: np.ndarray) -> None:
    """Write {"d": d, key: parts as [re, im] pairs}, a part at a time through json.dumps (C encoder)."""
    with open(path, "w") as fh:
        fh.write(f'{{"d": {d}, "{key}": [')
        for k, part in enumerate(parts):
            fh.write((", " if k else "") + json.dumps(np.stack([part.real, part.imag], -1).tolist()))
        fh.write("]}")


def save_matrix(m: np.ndarray, path) -> None:
    m = np.asarray(m, dtype=np.complex128)
    save_complex_json(path, m.shape[0], "rows", m)


def load_json(path):
    """The JSON document in the file at path; a ValueError naming the file when it cannot be decoded."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from exc
        except ValueError as exc:  # empty, not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """The matrix of the JSON file at path; every decode or layout fault names the file."""
    obj = load_json(path)
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
