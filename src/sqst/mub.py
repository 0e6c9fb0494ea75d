"""Construction and verification of maximal mutually unbiased basis families.

A family in dimension d = p^n holds d+1 orthonormal bases whose cross-basis
overlaps all have squared magnitude 1/d.  Basis m=1 is always the
computational basis; the remaining d bases come from additive characters:

* odd p: basis a, vector b has coefficients exp(2*pi*i/p)^tr(a*x^2 + b*x)
  / sqrt(d) over the field GF(p^n) (for n = 1 this is the quadratic phase
  omega^(a*l^2 + b*l)),
* p = 2: basis a, vector b has coefficients i^tr((a + 2b)*x) / sqrt(d) over
  the Teichmueller set of the Galois ring GR(4, n) (for n = 1 these are the
  Pauli X and Y eigenbases).

Any family passing `verify_mub` is equally valid; this particular one is
fixed so that measurement records are reproducible across builds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import field_order, phase_exponents
from .states import save_complex_json

_BLOCK_COEFFS = 32_768  # coefficients per block of a contraction's operand: 512 KiB of complex128


@dataclass(frozen=True)
class MubFamily:
    """d+1 mutually unbiased orthonormal bases, m=1 computational.

    vectors[m-1, k, l] is the l-th computational coefficient of vector k of
    basis m (all indices stored 0-based; the basis label m is 1-based in
    records because m=1 is special).  Immutable, vectors included (a
    writeable array is copied), so the fingerprint is hashed once per family;
    safe to share.
    """

    d: int
    vectors: np.ndarray = field(repr=False)
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.vectors.flags.writeable:
            vectors = self.vectors.copy()
            vectors.setflags(write=False)
            object.__setattr__(self, "vectors", vectors)

    def fingerprint(self) -> str:
        """64-bit hash of the coefficients rounded to 12 decimals, as 16 hex chars.

        The hash runs over every basis's real parts, then every basis's
        imaginary parts, one rounded basis plane at a time.
        """
        if self._fingerprint is None:
            plane = np.empty(self.vectors.shape[1:], dtype="<f8")
            digest = hashlib.sha256(b"")
            for part in (self.vectors.real, self.vectors.imag):
                for basis in part:
                    np.round(basis, 12, out=plane)
                    plane += 0.0  # -0.0 hashes as 0.0
                    digest.update(plane)
            object.__setattr__(self, "_fingerprint", digest.digest()[:8].hex())
        return self._fingerprint

    def _check_index(self, i: int, name: str) -> None:
        if not 0 <= i < self.d:
            raise ValueError(f"index {name}={i} outside 0..{self.d - 1}")


def build_mub(d: int) -> MubFamily:
    """Build the maximal MUB family in prime-power dimension d.

    Deterministic for fixed d.  Raises ValueError for every d `fields.field_order`
    refuses: d past MAX_FIELD_ORDER, and non-prime-powers (d = 6, 10, ...).
    """
    p, n = field_order(d)
    exps = phase_exponents(p, n)  # [a, b, x], values in Z4 (p = 2) or Z_p
    phases = np.power(1j, np.arange(4.0)) if p == 2 else np.exp(2j * np.pi / p) ** np.arange(p)
    phases /= np.sqrt(d)
    vectors = np.zeros((d + 1, d, d), dtype=np.complex128)
    vectors[0] = np.eye(d)
    for a in range(d):  # one basis at a time, so the temporaries are one basis in size
        vectors[a + 1] = phases[exps[a]]
    vectors.setflags(write=False)
    return MubFamily(d=d, vectors=vectors)


@dataclass(frozen=True)
class MubReport:
    """verify_mub output: worst deviations and the pair that attains the worst one."""

    d: int
    max_orthonormality_dev: float
    max_unbiasedness_dev: float
    passed: bool
    worst_pair: tuple  # ((m, k), (n, l)), 1-based basis labels, 0-based vectors

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"mub d={self.d}: {status} "
            f"(orthonormality dev {self.max_orthonormality_dev:.3e}, "
            f"unbiasedness dev {self.max_unbiasedness_dev:.3e}, "
            f"worst pair {self.worst_pair})"
        )


def verify_mub(family: MubFamily, tol: float = 1e-10) -> MubReport:
    """Check orthonormality of each basis and 1/d cross-basis overlaps.

    Passes iff both worst-case deviations are <= tol.  The Gram matrix of all
    (d+1)*d vectors is formed one basis row-block at a time; the first entry,
    in (m, k, n, l) order, of the larger deviation kind is the worst pair.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    d = family.d
    w = family.vectors.reshape((d + 1) * d, d)
    eye = np.eye(d)
    worst = [0.0, 0.0]  # orthonormality, unbiasedness
    where = [(0, 0, 0, 0), (0, 0, 0, 0)]
    for m in range(d + 1):
        gram = (w[m * d:(m + 1) * d] @ w.conj().T).reshape(d, d + 1, d)  # [k, n, l]
        dev = np.zeros((2, d, d + 1, d))
        dev[0, :, m] = np.abs(gram[:, m] - eye)
        dev[1] = np.abs(np.abs(gram) ** 2 - 1.0 / d)
        dev[1, :, m] = 0.0
        for kind in (0, 1):
            peak = float(dev[kind].max())
            if peak > worst[kind]:
                worst[kind] = peak
                where[kind] = (m, *np.unravel_index(int(dev[kind].argmax()), dev[kind].shape))
    max_ortho, max_unbias = worst
    m, k, n, l = where[0] if max_ortho >= max_unbias else where[1]
    return MubReport(
        d=d,
        max_orthonormality_dev=max_ortho,
        max_unbiasedness_dev=max_unbias,
        passed=max_ortho <= tol and max_unbias <= tol,
        worst_pair=((int(m) + 1, int(k)), (int(n) + 1, int(l))),
    )


def eta_table(family: MubFamily, i: int, j: int) -> np.ndarray:
    """Unit-modulus weights d * <i|k,m> * conj(<j|k,m>) as E[m-2, k], bases m = 2 .. d+1.

    The computational basis m=1 carries no eta weight, so it has no row.
    """
    for name, v in (("i", i), ("j", j)):
        family._check_index(v, name)
    v = family.vectors[1:]
    return family.d * v[:, :, i] * v[:, :, j].conj()


def born_weights(vecs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<k,m|A|k,m> for every vector vecs[m, k] of a stack of bases, a matmul per block of bases."""
    d = vecs.shape[-1]
    out = np.empty(vecs.shape[:-1], dtype=np.result_type(vecs, a))
    step = max(1, _BLOCK_COEFFS // (d * d))
    for m in range(0, len(vecs), step):
        v = vecs[m:m + step]
        out[m:m + step] = ((v.conj().reshape(-1, d) @ a).reshape(v.shape) * v).sum(-1)
    return out


def projector_sum(coeffs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sum_{m,k} coeffs[m, k] |k,m><k,m| over a stack of bases, a matmul per block of bases."""
    d = vecs.shape[-1]
    out = np.zeros((d, d), dtype=np.result_type(coeffs, vecs))
    step = max(1, _BLOCK_COEFFS // (d * d))
    for m in range(0, len(vecs), step):
        v = vecs[m:m + step].reshape(-1, d)
        out += (coeffs[m:m + step].reshape(-1, 1) * v).T @ v.conj()
    return out


def save_mub(family: MubFamily, path) -> None:
    save_complex_json(path, family.d, "bases", family.vectors)
