"""POVM outcome distributions, record sampling, and record persistence.

This is the experimental phase of the protocol: pick the POVM mode, compute
the exact Born distribution over (basis m, outcome k) pairs, draw N
independent outcomes, and keep them as the universal measurement record.

In memory an outcome is one cell index (m - first_basis) * d + k into the
(basis, outcome) count table, from the sampler through the record to
`estimator.outcome_counts`.  The labels (m, k) exist only in record files:
the writers decode cells into labels, and `_label_cells` is the one place
that turns file labels back into cells.

Record files exist in two formats sharing one header line

    #SQST v1 d=<d> mode=<mode> seed=<seed> n=<n> mub=<16 hex chars>

* text: the header line, then a body of exactly n lines ``<m>,<k>``, each
  label 1 to 5 ASCII digits of a value <= 65535, each line ended by LF or
  CRLF, the final line's newline optional.  Nothing else is accepted: no
  signs, spaces, underscores or empty lines.  Text is written and parsed in
  blocks with numpy, never line by line in Python;
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

from .mub import MubFamily, born_weights
from .states import philox_rng, require_density

_HEADER_BLOCK = 128
_TEXT_BLOCK = 65_536  # outcomes per written block of text
_TEXT_BLOCK_BYTES = 1 << 16  # bytes per parsed block of text, cut after a newline
_DRAW_BLOCK = 65_536  # copies per sampling block; the cells do not depend on it
_MAX_DIGITS = 5  # digits of the largest uint16 label


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
    """Vose alias method: O(n) setup, O(1) draws, deterministic construction.

    A draw takes one uniform u per copy (Walker's one-uniform form): the
    integer part of u * K picks the column, the fractional part decides
    between the column and its alias.  Cells are uint16, so K <= 65536.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("need a nonempty 1-D probability vector")
        if probs.size > 1 << 16:
            raise ValueError(f"{probs.size} cells do not fit uint16 cell indices")
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
        """size uint16 cells, drawn _DRAW_BLOCK copies at a time.

        Copy i uses the i-th double of rng, so the cells do not depend on the
        block size, and the temporaries stay a block long whatever size is.
        """
        k = self.prob.size
        cells = np.empty(size, dtype=np.uint16)
        for start in range(0, size, _DRAW_BLOCK):
            u = rng.random(min(_DRAW_BLOCK, size - start))
            u *= k
            col = u.astype(np.intp)
            np.minimum(col, k - 1, out=col)  # a guard: u * K < K for every u < 1 and K <= 65536
            u -= col  # the fractional part: the acceptance uniform
            swap = np.flatnonzero(u >= self.prob[col])
            col[swap] = self.alias[col[swap]]
            cells[start:start + col.size] = col
        return cells


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact (basis, outcome) probabilities of a state under one POVM mode.

    probs is stored flat in (basis, outcome) row-major order, so entry
    (m - mode.first_basis) * d + k is the weight of outcome k of basis m;
    sample_cells draws these flat cell indices.
    """

    mode: PovmMode
    d: int
    probs: np.ndarray = field(repr=False)
    mub_fingerprint: str
    _alias: AliasTable = field(repr=False)

    def sample_cells(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._alias.draw(rng, size)


def outcome_distribution(rho: np.ndarray, family: MubFamily, mode: PovmMode) -> OutcomeDistribution:
    """Born probabilities p_km = <k,m|rho|k,m> / B over the mode's bases.

    require_density bounds every eigenvalue below by -EIGEN_TOL, and so every
    Born weight <k,m|rho|k,m> of a unit vector; the clip removes that rounding.
    """
    rho = require_density(rho)
    d = family.d
    if rho.shape[0] != d:
        raise ValueError(f"state dimension {rho.shape[0]} != family dimension {d}")
    first = mode.first_basis
    vecs = family.vectors[first - 1 : first - 1 + mode.basis_count(d)]
    born = born_weights(vecs, rho).real
    probs = np.clip(born, 0.0, None).reshape(-1) / mode.basis_count(d)
    return OutcomeDistribution(mode=mode, d=d, probs=probs,
                               mub_fingerprint=family.fingerprint(), _alias=AliasTable(probs))


@dataclass(frozen=True)
class MeasurementRecord:
    """Ordered outcome sequence plus its provenance header.

    cells[i] = (m_i - mode.first_basis) * d + k_i is outcome i as a flat index
    into the (basis, outcome) count table, a uint16 array (at
    MAX_FIELD_ORDER = 64 there are at most 65 * 64 cells); the labels (m, k)
    appear only in record files.  Immutable, cells included (a writeable array
    is copied), so the count table that `estimator.outcome_counts` caches on it
    cannot go stale.
    """

    d: int
    mode: PovmMode
    seed: int
    n: int
    mub_fingerprint: str
    cells: np.ndarray = field(repr=False)
    _counts: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise RecordFormatError(f"a record needs at least one outcome, header says n={self.n}")
        if self.n != len(self.cells):
            raise ValueError("header count does not match outcome sequence length")
        size = self.mode.basis_count(self.d) * self.d
        if self.cells.max() >= size:
            raise ValueError(f"cell index outside 0..{size - 1}")
        if self.cells.flags.writeable:
            object.__setattr__(self, "cells", _readonly(self.cells.copy()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementRecord):
            return NotImplemented
        return (
            (self.d, self.mode, self.seed, self.n, self.mub_fingerprint)
            == (other.d, other.mode, other.seed, other.n, other.mub_fingerprint)
            and np.array_equal(self.cells, other.cells)
        )


class RecordFormatError(ValueError):
    """Corrupt header, truncated body, or out-of-range outcomes in a record file."""


class FingerprintMismatch(RecordFormatError):
    """Record or distribution was produced by another basis family than the one supplied."""


def check_family(source, family: MubFamily, mode: PovmMode) -> None:
    """The one check that a record or distribution has mode and belongs to family."""
    if source.mode is not mode:
        raise ValueError(f"mode {source.mode.value} where {mode.value} is required")
    if source.d != family.d:
        raise FingerprintMismatch(f"dimension {source.d} != family dimension {family.d}")
    fp = family.fingerprint()
    if source.mub_fingerprint != fp:
        raise FingerprintMismatch(f"fingerprint {source.mub_fingerprint} does not match family {fp}")


def _label_cells(blocks, d: int, mode: PovmMode, n: int) -> np.ndarray:
    """Read-only uint16 cells (m - first_basis) * d + k of n file labels given as (ms, ks) blocks.

    Blocks are decoded as they arrive, in uint16 arithmetic exact for labels in
    range; the ranges are checked on the label extrema after the last block, so
    a grammar fault in a later block wins over a range fault in an earlier one.
    """
    cells = np.empty(n, dtype=np.uint16)
    if not n:  # MeasurementRecord refuses the header
        return cells
    first, count = mode.first_basis, mode.basis_count(d)
    at, m_lo, m_hi, k_hi = 0, first, first, 0
    for ms, ks in blocks:
        if count * d <= 0xFFFF:  # else refused below, once the labels are checked
            out = cells[at:at + ms.size]
            np.subtract(ms, first, out=out, casting="unsafe")
            out *= np.uint16(d)
            np.add(out, ks, out=out, casting="unsafe")
        m_lo, m_hi, k_hi = min(m_lo, ms.min()), max(m_hi, ms.max()), max(k_hi, ks.max())
        at += ms.size
    if m_lo < first or m_hi >= first + count:
        raise RecordFormatError(f"basis label outside {first}..{first + count - 1} for mode {mode.value}")
    if k_hi >= d:
        raise RecordFormatError(f"outcome label outside 0..{d - 1}")
    if count * d > 0xFFFF:
        raise RecordFormatError(f"d={d} {mode.value} record has {count * d} cells, over 65535")
    return _readonly(cells)


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
    parts = [dist.sample_cells(philox_rng(seed, s), size) for s, size in enumerate(sizes) if size]
    cells = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return MeasurementRecord(
        d=dist.d, mode=dist.mode, seed=seed, n=n, mub_fingerprint=dist.mub_fingerprint,
        cells=_readonly(cells),
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        m, k = divmod(np.arange(record.mode.basis_count(record.d) * record.d), record.d)
        pairs = np.column_stack([m + record.mode.first_basis, k]).astype("<u2").view("<u4")
        body = pairs.ravel()[record.cells]  # each cell's (m, k) pair as one 4-byte item
        with open(path, "wb") as fh:
            fh.write(head.ljust(_HEADER_BLOCK, b"\x00"))
            fh.write(body)
    else:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n")
            _write_text_body(record, fh)


def _write_text_body(record: MeasurementRecord, fh) -> None:
    """Write the ``m,k`` lines block by block from a table of every cell's line.

    Each line is held NUL-padded in whole 8-byte words (one word while both
    labels have at most three digits), so a block is one gather of words, and
    dropping its NUL bytes leaves the lines.
    """
    d, first = record.d, record.mode.first_basis
    lines = [f"{first + c // d},{c % d}\n".encode("ascii")
             for c in range(record.mode.basis_count(d) * d)]
    width = -(-max(map(len, lines)) // 8) * 8
    words = np.array(lines, dtype=f"S{width}").view(np.uint64).reshape(len(lines), -1)
    for start in range(0, record.n, _TEXT_BLOCK):
        body = words[record.cells[start:start + _TEXT_BLOCK]].view(np.uint8)
        fh.write(body[body != 0])


def read_record(path) -> MeasurementRecord:
    """Load a record from either format; `check_family` ties it to a family."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise RecordFormatError(f"{path}: empty record file")
    if b"\x00" in data[:_HEADER_BLOCK]:
        return _read_binary(data, path)
    return _read_text(data, path)


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
                             cells=_label_cells([(pairs[:, 0], pairs[:, 1])], d, mode, n))


def _read_text(data: bytes, path) -> MeasurementRecord:
    if not data.isascii():
        raise RecordFormatError(f"{path}: not an ASCII record file")
    body = data.find(b"\n") + 1 or len(data)
    d, mode, seed, n, fp = _parse_header(data[:body].decode("ascii"))
    lines = data.count(b"\n", body) + (body < len(data) and not data.endswith(b"\n"))
    if lines != n:
        raise RecordFormatError(f"{path}: {lines} outcome lines, header says n={n}")
    return MeasurementRecord(d=d, mode=mode, seed=seed, n=n, mub_fingerprint=fp,
                             cells=_label_cells(_text_blocks(data, body, path), d, mode, n))


def _text_blocks(data: bytes, body: int, path):
    """Labels (m, k) of the text body from offset body on, one parse block at a time."""
    buf = np.frombuffer(data, dtype=np.uint8)
    start, line = body, 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _TEXT_BLOCK_BYTES) + 1
        if stop == 0 or start + _TEXT_BLOCK_BYTES >= len(data):  # an overlong line, or the tail
            stop = data.find(b"\n", start + _TEXT_BLOCK_BYTES) + 1 or len(data)
        m, k = _parse_text_block(buf[start:stop], path, line + 2)
        yield m, k
        start, line = stop, line + m.size


def _parse_text_block(seg: np.ndarray, path, first_line: int) -> tuple:
    """int32 labels (m, k) of the whole ``m,k`` lines in seg, whose first is file line first_line.

    Offsets are int32 and local to the block.  A block of only digits, commas
    and LFs has no CR to strip, and one whose digit runs are all 1 to 4 long
    has no label too long or over 0xFFFF.  Only a block that breaks the
    grammar maps its commas and stray bytes to lines, to name its first bad line.
    """
    line_end = np.empty(seg.size + 1, dtype=bool)  # each LF, and the block's end if it has none
    is_newline = np.equal(seg, ord("\n"), out=line_end[:-1])
    line_end[-1] = not is_newline[-1]
    digits = seg - np.uint8(ord("0"))  # wraps every non-digit byte above 9
    is_comma = seg == ord(",")
    allowed = (digits <= 9) | is_comma | is_newline
    clean = bool(allowed.all())
    ends = np.flatnonzero(line_end).astype(np.int32)
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    stops = ends
    if not clean:
        crlf = (ends > starts) & (ends < seg.size) & (seg.take(ends - 1) == ord("\r"))
        stops = ends - crlf  # a line's content ends before the CR of its CRLF
    comma = commas = np.flatnonzero(is_comma).astype(np.int32)
    one_each = commas.size == ends.size and bool(((commas >= starts) & (commas < ends)).all())
    if not one_each:  # comma i is line i's only when the commas interleave the line ends
        comma = np.zeros_like(ends)
        comma[np.searchsorted(ends, commas)] = commas  # meaningful on lines with one comma
    m_len, k_len = comma - starts, stops - comma - 1
    m, k = digits.take(comma - 1).astype(np.int32), digits.take(stops - 1).astype(np.int32)
    longest = int(max(m_len.max(), k_len.max()))
    for place in range(1, min(_MAX_DIGITS, longest)):
        scale = np.int32(10**place)  # the values are right for runs of 1 to _MAX_DIGITS digits
        m += np.where(place < m_len, digits.take(comma - 1 - place), np.uint8(0)) * scale
        k += np.where(place < k_len, digits.take(stops - 1 - place), np.uint8(0)) * scale
    if clean and one_each and longest < _MAX_DIGITS and m_len.min() > 0 and k_len.min() > 0:
        return m, k
    bad = (m_len < 1) | (m_len > _MAX_DIGITS) | (k_len < 1) | (k_len > _MAX_DIGITS)
    bad |= (m > 0xFFFF) | (k > 0xFFFF)
    if not clean:
        allowed[stops[crlf]] = True
    stray = np.flatnonzero(~allowed)
    if one_each and not stray.size and not bad.any():
        return m, k
    bad |= np.bincount(np.searchsorted(ends, commas), minlength=ends.size) != 1
    bad[np.searchsorted(ends, stray)] = True
    i = int(bad.argmax())
    text = seg[starts[i]:stops[i]].tobytes().decode("ascii")
    raise RecordFormatError(f"{path}: bad outcome line {first_line + i}: {text!r}")
