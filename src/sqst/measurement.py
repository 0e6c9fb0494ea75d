"""POVM outcome distributions, record sampling, and record persistence.

This is the experimental phase of the protocol: pick the POVM mode, compute
the exact Born distribution over (basis m, outcome k) pairs, draw N
independent outcomes, and keep them as the universal measurement record.

Record files exist in two formats sharing one header line

    #SQST v1 d=<d> mode=<mode> seed=<seed> n=<n> mub=<16 hex chars>

* text: the header line, then one ``m,k`` pair per line;
* binary: the header line NUL-padded to 128 bytes, then n little-endian
  (uint16 m, uint16 k) pairs.

The ``mub`` field fingerprints the basis family that produced the record;
`check_family` is the one place that refuses a record or distribution whose
mode, dimension or fingerprint does not match the family it is used with.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

import numpy as np

from .mub import MubFamily
from .states import philox_rng, require_density

_HEADER_BLOCK = 128


class PovmMode(enum.Enum):
    """Which bases the POVM draws from; each is drawn with weight 1/basis_count."""

    OFFDIAG = "offdiag"  # m = 2 .. d+1, elements Pi/d   (off-diagonal record)
    FULL = "full"  # m = 1 .. d+1, elements Pi/(d+1)     (operator-mean record)
    COMPUTATIONAL = "computational"  # m = 1 only, projective (diagonal record)

    @property
    def first_basis(self) -> int:
        return 2 if self is PovmMode.OFFDIAG else 1

    def basis_count(self, d: int) -> int:
        if self is PovmMode.OFFDIAG:
            return d
        if self is PovmMode.FULL:
            return d + 1
        return 1


class AliasTable:
    """Vose alias method: O(n) setup, O(1) draws, deterministic construction."""

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("need a nonempty 1-D probability vector")
        if probs.min() < 0:
            raise ValueError("negative probability")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities sum to zero")
        k = probs.size
        scaled = probs * (k / total)
        self.prob = np.ones(k)
        self.alias = np.arange(k)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            self.prob[lo] = scaled[lo]
            self.alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            (small if scaled[hi] < 1.0 else large).append(hi)
        # leftovers are all (numerically) 1

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cells = rng.integers(0, self.prob.size, size=size)
        keep = rng.random(size) < self.prob[cells]
        return np.where(keep, cells, self.alias[cells])


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact (k, m) outcome probabilities of a state under one POVM mode.

    probs is stored flat in (basis, outcome) row-major order; ms/ks give the
    basis label and outcome label of each flat cell.
    """

    mode: PovmMode
    d: int
    ms: np.ndarray = field(repr=False)
    ks: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    mub_fingerprint: str = ""
    _alias: AliasTable = field(repr=False, default=None)

    def sample_cells(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._alias.draw(rng, size)


def outcome_distribution(rho: np.ndarray, family: MubFamily, mode: PovmMode) -> OutcomeDistribution:
    """Born probabilities p_km = <k,m|rho|k,m> / B over the mode's bases."""
    rho = require_density(rho)
    d = family.d
    if rho.shape[0] != d:
        raise ValueError(f"state dimension {rho.shape[0]} != family dimension {d}")
    first = mode.first_basis
    vecs = family.vectors[first - 1 : first - 1 + mode.basis_count(d)]
    born = np.einsum("mkl,lx,mkx->mk", vecs.conj(), rho, vecs).real
    if born.min() < -1e-12:
        raise ValueError(f"negative Born weight {born.min():.3e}")
    probs = np.clip(born, 0.0, None).reshape(-1) / mode.basis_count(d)
    nb, _ = born.shape
    ms = np.repeat(np.arange(first, first + nb, dtype=np.uint16), d)
    ks = np.tile(np.arange(d, dtype=np.uint16), nb)
    return OutcomeDistribution(
        mode=mode, d=d, ms=ms, ks=ks, probs=probs,
        mub_fingerprint=family.fingerprint(), _alias=AliasTable(probs),
    )


@dataclass(frozen=True)
class MeasurementRecord:
    """Ordered (m, k) outcome sequence plus its provenance header."""

    d: int
    mode: PovmMode
    seed: int
    n: int
    mub_fingerprint: str
    ms: np.ndarray = field(repr=False)
    ks: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise RecordFormatError(f"a record needs at least one outcome, header says n={self.n}")
        if self.n != len(self.ms) or self.n != len(self.ks):
            raise ValueError("header count does not match outcome sequence length")
        _check_ranges(self.ms, self.ks, self.d, self.mode)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementRecord):
            return NotImplemented
        return (
            (self.d, self.mode, self.seed, self.n, self.mub_fingerprint)
            == (other.d, other.mode, other.seed, other.n, other.mub_fingerprint)
            and np.array_equal(self.ms, other.ms)
            and np.array_equal(self.ks, other.ks)
        )


class RecordFormatError(ValueError):
    """Corrupt header, truncated body, or out-of-range outcomes in a record file."""


class FingerprintMismatch(RecordFormatError):
    """Record or distribution was produced by another basis family than the one supplied."""


def check_family(source, family: MubFamily, mode: PovmMode | None = None) -> None:
    """The one check that a record or distribution belongs to family (and mode, if given)."""
    if mode is not None and source.mode is not mode:
        raise ValueError(f"mode {source.mode.value} where {mode.value} is required")
    if source.d != family.d:
        raise FingerprintMismatch(f"dimension {source.d} != family dimension {family.d}")
    fp = family.fingerprint()
    if source.mub_fingerprint != fp:
        raise FingerprintMismatch(f"fingerprint {source.mub_fingerprint} does not match family {fp}")


def _check_ranges(ms: np.ndarray, ks: np.ndarray, d: int, mode: PovmMode) -> None:
    first = mode.first_basis
    last = first + mode.basis_count(d) - 1
    if ms.min() < first or ms.max() > last:
        raise RecordFormatError(f"basis label outside {first}..{last} for mode {mode.value}")
    if ks.min() < 0 or ks.max() >= d:
        raise RecordFormatError(f"outcome label outside 0..{d - 1}")


def sample_record(dist: OutcomeDistribution, n: int, seed: int, shards: int = 1) -> MeasurementRecord:
    """Draw n independent outcomes; deterministic for fixed (dist, n, seed, shards).

    Shard s draws its slice from the Philox stream (seed, s), so generating
    the shards concurrently and concatenating them in shard order reproduces
    this function's output exactly.
    """
    if n < 1:
        raise ValueError("need at least one copy to measure")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    base, extra = divmod(n, shards)
    sizes = [base + (1 if s < extra else 0) for s in range(shards)]
    cells = [dist.sample_cells(philox_rng(seed, s), size) for s, size in enumerate(sizes) if size]
    flat = np.concatenate(cells)
    return MeasurementRecord(
        d=dist.d, mode=dist.mode, seed=seed, n=n,
        mub_fingerprint=dist.mub_fingerprint,
        ms=dist.ms[flat], ks=dist.ks[flat],
    )


_HEADER_RE = re.compile(
    r"#SQST v1 d=(\d+) mode=(offdiag|full|computational) seed=(-?\d+) n=(\d+) mub=([0-9a-f]{16})\Z"
)


def _header_line(record: MeasurementRecord) -> str:
    return (
        f"#SQST v1 d={record.d} mode={record.mode.value} "
        f"seed={record.seed} n={record.n} mub={record.mub_fingerprint}"
    )


def _parse_header(line: str):
    m = _HEADER_RE.match(line.strip())
    if not m:
        raise RecordFormatError(f"corrupt record header: {line[:60]!r}")
    d, mode, seed, n, fp = m.groups()
    try:
        return int(d), PovmMode(mode), int(seed), int(n), fp
    except ValueError as exc:  # an integer field longer than int() accepts
        raise RecordFormatError(f"corrupt record header: {exc}") from exc


def write_record(record: MeasurementRecord, path, binary: bool = False) -> None:
    """Persist a record; the round trip through read_record is the identity."""
    header = _header_line(record)
    if binary:
        head = header.encode("ascii") + b"\n"
        if len(head) > _HEADER_BLOCK:
            raise ValueError("header too long for the fixed binary layout")
        body = np.column_stack([record.ms, record.ks]).astype("<u2").tobytes()
        with open(path, "wb") as fh:
            fh.write(head.ljust(_HEADER_BLOCK, b"\x00"))
            fh.write(body)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for m, k in zip(record.ms, record.ks):
                fh.write(f"{m},{k}\n")


def read_record(path, family: MubFamily | None = None) -> MeasurementRecord:
    """Load a record from either format; verify the family fingerprint if given."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise RecordFormatError(f"{path}: empty record file")
    if b"\x00" in data[:_HEADER_BLOCK]:
        record = _read_binary(data, path)
    else:
        record = _read_text(data, path)
    if family is not None:
        check_family(record, family)
    return record


def _read_binary(data: bytes, path) -> MeasurementRecord:
    head, _, pad = data[:_HEADER_BLOCK].partition(b"\x00")
    if pad.strip(b"\x00"):
        raise RecordFormatError(f"{path}: garbage in binary header padding")
    try:
        d, mode, seed, n, fp = _parse_header(head.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"{path}: undecodable header") from exc
    body = data[_HEADER_BLOCK:]
    if len(body) != 4 * n:
        raise RecordFormatError(f"{path}: body holds {len(body)} bytes, header says n={n}")
    pairs = np.frombuffer(body, dtype="<u2").reshape(n, 2)
    return MeasurementRecord(d=d, mode=mode, seed=seed, n=n, mub_fingerprint=fp,
                             ms=pairs[:, 0].copy(), ks=pairs[:, 1].copy())


def _read_text(data: bytes, path) -> MeasurementRecord:
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"{path}: not an ASCII record file") from exc
    d, mode, seed, n, fp = _parse_header(lines[0] if lines else "")
    body = lines[1:]
    if len(body) != n:
        raise RecordFormatError(f"{path}: {len(body)} outcome lines, header says n={n}")
    ms = np.zeros(n, dtype=np.uint16)
    ks = np.zeros(n, dtype=np.uint16)
    for idx, line in enumerate(body):
        try:
            m_str, k_str = line.split(",")
            ms[idx], ks[idx] = int(m_str), int(k_str)
        except (ValueError, OverflowError) as exc:  # OverflowError: label outside uint16
            raise RecordFormatError(f"{path}: bad outcome line {idx + 2}: {line!r}") from exc
    return MeasurementRecord(d=d, mode=mode, seed=seed, n=n, mub_fingerprint=fp, ms=ms, ks=ks)
