"""Independent oracles shared by the unit and acceptance tests.

Everything here is deliberately implemented with different machinery than
the library code it checks: brute-force grids, direct searches, and integer
scans instead of the shipped algorithms.
"""

import numpy as np

from sqst import measurement
from sqst.fields import _CONWAY
from sqst.states import max_norm, random_density, random_hermitian, stream_rng
from sqst.tomography import project_psd_clip


def cells(source) -> np.ndarray:
    """The ordered uint16 cells of a `RecordStream`, or of the record file at path source.

    The library keeps no ordered record in memory; tests that read the order
    gather it here from the stream's draw or the file's decoded labels.  A file's fault
    is raised as `_open_record` raises it, without the path `read_record` adds.
    """
    if isinstance(source, measurement.RecordStream):
        return np.concatenate(list(source.cell_blocks())).astype(np.uint16)
    with open(source, "rb") as fh:
        _, blocks = measurement._open_record(fh)
        return np.concatenate(list(blocks))  # _label_cells' own uint16 cells


def vose_tables(probs: np.ndarray) -> tuple:
    """(prob, alias) of the Vose alias method, built on numpy float64 scalars one cell at a time.

    The reference for `AliasTable`, which runs the same loop on Python floats:
    equal tables mean the same rounding step for step.
    """
    probs = np.asarray(probs, dtype=np.float64)
    k = probs.size
    scaled = probs * (k / probs.sum())
    prob = np.ones(k)
    alias = np.arange(k)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    return prob, alias


def two_support_offdiag_probs(family, i: int, j: int, a: complex, b: complex) -> np.ndarray:
    """Offdiag-mode Born probabilities of the pure state a|i> + b|j>, |a|^2 + |b|^2 = 1.

    <k,m|psi> has two terms, so each of the d*d cells costs O(1):
    |a conj(v_mk[i]) + b conj(v_mk[j])|^2 / d, flat in (basis, outcome) order.
    """
    v = family.vectors[1:]
    return (np.abs(a * v[:, :, i].conj() + b * v[:, :, j].conj()) ** 2 / family.d).ravel()


def smallest_n_satisfying(epsilon: float, delta: float, m: int) -> int:
    """Integer scan for the smallest n with 4*m*exp(-n*eps^2/2) <= delta."""
    n = 1
    while 4.0 * m * np.exp(-n * epsilon**2 / 2.0) > delta:
        n += 1
    return n


def maxnorm_projection_grid_d2(x: np.ndarray, resolution: float = 1e-3) -> float:
    """Brute-force grid over the d=2 diagonal simplex.

    For each diagonal (y, 1-y) on the grid the off-diagonal sub-problem is
    exact: project the target off-diagonal onto the PSD disk of radius
    sqrt(y(1-y)).
    """
    ys = np.arange(0.0, 1.0 + resolution / 2, resolution)
    radii = np.sqrt(np.clip(ys * (1.0 - ys), 0.0, None))
    off = abs(x[0, 1])
    t = np.maximum.reduce([
        np.abs(ys - x[0, 0].real),
        np.abs((1.0 - ys) - x[1, 1].real),
        np.clip(off - radii, 0.0, None),
    ])
    return float(t.min())


def _d3_matrices(params: np.ndarray) -> np.ndarray:
    a = params[:, :9].reshape(-1, 3, 3) + 1j * params[:, 9:].reshape(-1, 3, 3)
    y = a @ np.conj(np.swapaxes(a, 1, 2))
    tr = np.einsum("nii->n", y).real
    return y / tr[:, None, None]


def maxnorm_projection_grid_d3(x: np.ndarray, final_width: float = 1e-4,
                               n_dirs: int = 4096, seed: int = 20240501) -> float:
    """Direct search over the factorized state parameterization Y = AA*/tr.

    The parameterization has no constraints, so the search only ever
    evaluates the objective; directions come from a fixed keyed stream and
    the step halves whenever no direction improves, down to final_width.
    """
    w, v = np.linalg.eigh(project_psd_clip(x).rho)
    a0 = (v * np.sqrt(np.clip(w, 1e-12, None))) @ v.conj().T
    best_p = np.concatenate([a0.real.reshape(-1), a0.imag.reshape(-1)])
    best_t = float(np.abs(_d3_matrices(best_p[None])[0] - x).max())
    rng = stream_rng(seed)
    h = 0.25
    while h > final_width:
        dirs = rng.standard_normal((n_dirs, 18))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        cand = best_p[None, :] + h * dirs
        dev = np.abs(_d3_matrices(cand) - x[None]).reshape(len(cand), -1).max(axis=1)
        k = int(dev.argmin())
        if dev[k] < best_t - 1e-12:
            best_t = float(dev[k])
            best_p = cand[k]
        else:
            h *= 0.5
    return best_t


def random_nonpsd_matrix(d: int, seed: int, perturbation: float = 0.1) -> np.ndarray:
    """Random state plus a max-norm-0.1 Hermitian kick, retried until non-PSD."""
    for sub in range(1000):
        rho = random_density(d, d, seed * 1000 + sub)
        e = random_hermitian(d, stream_rng(seed, sub, 7))
        e *= perturbation / max_norm(e)
        cand = rho + e
        if np.linalg.eigvalsh(cand).min() < -1e-3:
            return cand
    raise RuntimeError(f"no non-PSD perturbation found for d={d}, seed={seed}")


def field_add(a, b, p: int, n: int) -> np.ndarray:
    """Sum of GF(p^n) labels a and b: their base-p digits added mod p, without carry."""
    place = p ** np.arange(n)
    digits = [(np.asarray(x)[..., None] // place) % p for x in (a, b)]
    return ((digits[0] + digits[1]) % p) @ place


def poly_mul_mod(a, b, modulus, r: int) -> tuple:
    """Schoolbook product of coefficient sequences a, b modulo a monic ascending modulus over Z_r."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += int(x) * int(y)
    for k in range(len(prod) - 1, n - 1, -1):  # x^k = x^(k-n) * -(low part of the modulus)
        for i in range(n):
            prod[k - n + i] -= prod[k] * modulus[i]
    return tuple(c % r for c in prod[:n])


def first_basic_primitive_lift(n: int) -> list:
    """The first monic lift to Z4 of the degree-n Conway polynomial whose root has order 2^n - 1.

    Lifts are tried in increasing mask order (bit i adds 2 to coefficient i),
    and each root's order is found by multiplying up its powers one at a time
    with the schoolbook `poly_mul_mod`.
    """
    base = (1, 1) if n == 1 else _CONWAY[(2, n)]
    one = (1,) + (0,) * (n - 1)
    for mask in range(2**n):
        modulus = [(base[i] + 2 * ((mask >> i) & 1)) % 4 for i in range(n)] + [1]
        x = ((-modulus[0]) % 4,) if n == 1 else (0, 1) + (0,) * (n - 2)
        power, order = x, 1
        while power != one and order <= 4**n:  # the constant term is odd, so x is a unit
            power, order = poly_mul_mod(power, x, modulus, 4), order + 1
        if order == 2**n - 1:
            return modulus
    raise AssertionError(f"no basic primitive lift for n={n}")


class GaloisRingTrace:
    """The GR(4, n) trace as the sum of the n Frobenius conjugates of any ring element.

    The ring is Z4[x] modulo the given monic ascending `modulus`; its
    Teichmueller rows 0, 1, x, ..., x^(2^n - 2) are multiplied up here with
    the schoolbook `poly_mul_mod`.  Frobenius is computed on general elements
    from their 2-adic form a + 2b (a, b Teichmueller) as a^2 + 2 b^2.
    Nothing is read from the library's power rows or trace form.
    """

    def __init__(self, n: int, modulus):
        self.n, self.d, self.modulus = n, 2**n, list(modulus)
        x = ((-self.modulus[0]) % 4,) if n == 1 else (0, 1) + (0,) * (n - 2)
        powers = [(1,) + (0,) * (n - 1)]
        for _ in range(self.d - 2):
            powers.append(self.mul(powers[-1], x))
        self.teichmuller = t = [(0,) * n] + powers
        self._two_adic = {self.add(a, b, 2): (a, b) for a in t for b in t}
        assert len(self._two_adic) == 4**n, "a + 2b is not a bijection from T x T"
        self._cache = {}

    @staticmethod
    def add(a, b, c: int = 1) -> tuple:
        """a + c b over Z4, coefficient by coefficient."""
        return tuple((x + c * y) % 4 for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        return poly_mul_mod(a, b, self.modulus, 4)

    def frobenius(self, e):
        a, b = self._two_adic[e]
        return self.add(self.mul(a, a), self.mul(b, b), 2)

    def __call__(self, e) -> int:
        e = tuple(int(c) for c in e)
        if e not in self._cache:
            acc, cur = (0,) * self.n, e
            for _ in range(self.n):
                acc = self.add(acc, cur)
                cur = self.frobenius(cur)
            assert not any(acc[1:]), f"trace of {e} not in Z4"
            self._cache[e] = acc[0]
        return self._cache[e]

    def phase_exponents(self) -> np.ndarray:
        """E[a, b, x] = trace((T[a] + 2 T[b]) * T[x]), element by element.

        The product is expanded by distributivity as T[a] T[x] + 2 T[b] T[x],
        so only the d^2 schoolbook products T[a] T[x] are multiplied out.
        """
        t = self.teichmuller
        prod = [[self.mul(a, x) for x in t] for a in t]
        out = np.zeros((self.d, self.d, self.d), dtype=np.uint8)
        for ai in range(self.d):
            for bi in range(self.d):
                for xi in range(self.d):
                    out[ai, bi, xi] = self(self.add(prod[ai][xi], prod[bi][xi], 2))
        return out
