"""POVM outcome distributions, record sampling, and record persistence.

This is the experimental phase of the protocol: pick the POVM mode, compute
the exact Born distribution over (basis m, outcome k) pairs, draw N
independent outcomes, and keep them as the universal measurement record.

In memory an outcome is one cell index (m - first_basis) * d + k into the
(basis, outcome) count table; the labels (m, k) exist only in record files.

No estimate reads the order of outcomes, only the count table, so no ordered
record is kept in memory.  A record is a `RecordStream` (what `sample_record`
returns: the sharded alias draw, made anew on each pass), a file, or a
`RecordCounts` table, all sharing one `RecordHeader`.  Cells flow in blocks of
at most _BLOCK, so no temporary grows with n: `write_record` writes a stream
to a file, and `counted` counts a stream (`estimator.record_counts`) or a file
(`read_record`, whose labels are read in _CHUNK_BYTES chunks and made cells by
`_label_cells`, the one place that does so).  So `sqst simulate` and the
commands that estimate hold no n-long array.

Record files exist in two formats sharing one header line

    #SQST v1 d=<d> mode=<mode> seed=<seed> n=<n> mub=<16 hex chars>

* text: the header line, then a body of exactly n lines ``<m>,<k>``, each
  label 1 to 5 ASCII digits of a value <= 65535, each line ended by LF or
  CRLF, the final line's newline optional.  Nothing else is accepted: no
  signs, spaces, underscores or empty lines.  Text is written and parsed in
  blocks with numpy, never line by line in Python: each chunk's whole lines
  are parsed and counted, and its partial last line is carried on;
* binary: the header line NUL-padded to 128 bytes, then n little-endian
  (uint16 m, uint16 k) pairs.

A file is read once, front to back: the header first, then the body block by
block (ASCII, then grammar, then label ranges), raising the first fault in
file order.

The ``mub`` field fingerprints the basis family that produced the record;
`check_family` is the one place that refuses a record or distribution whose
mode, dimension or fingerprint does not match the family it is used with.
"""

from __future__ import annotations

import enum
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .mub import MubFamily, born_weights
from .states import philox_rng, require_density

_HEADER_BLOCK = 128
# Copies per block of every n-long cell stream (drawn, counted or written): each
# float64 or intp temporary is 64 KiB, under glibc's 128 KiB mmap threshold, so
# blocks reuse heap memory rather than fault fresh pages in.  The cells do not
# depend on it.
_BLOCK = 8_192
_CHUNK_BYTES = 1 << 16  # bytes per read of a record file
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

    def blocks(self, rng: np.random.Generator, size: int):
        """Yield size cells as intp arrays of at most _BLOCK copies each.

        Copy i uses the i-th double of rng, so the cells do not depend on the
        block size, and the temporaries stay a block long whatever size is.
        """
        k = self.prob.size
        for start in range(0, size, _BLOCK):
            u = rng.random(min(_BLOCK, size - start))
            u *= k
            col = u.astype(np.intp)
            np.minimum(col, k - 1, out=col)  # a guard: u * K < K for every u < 1 and K <= 65536
            u -= col  # the fractional part: the acceptance uniform
            swap = np.flatnonzero(u >= self.prob[col])
            col[swap] = self.alias[col[swap]]
            yield col


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact (basis, outcome) probabilities of a state under one POVM mode.

    probs is stored flat in (basis, outcome) row-major order, so entry
    (m - mode.first_basis) * d + k is the weight of outcome k of basis m;
    alias.blocks draws these flat cell indices a block at a time.
    """

    mode: PovmMode
    d: int
    probs: np.ndarray = field(repr=False)
    mub_fingerprint: str
    alias: AliasTable = field(repr=False)

    def sample_cells(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size uint16 cells drawn from rng, in draw order."""
        cells = np.empty(size, dtype=np.uint16)
        start = 0
        for block in self.alias.blocks(rng, size):
            cells[start:start + block.size] = block
            start += block.size
        return cells


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
                               mub_fingerprint=family.fingerprint(), alias=AliasTable(probs))


@dataclass(frozen=True)
class RecordHeader:
    """The provenance of a record: the fields of a record file's header line."""

    d: int
    mode: PovmMode
    seed: int
    n: int
    mub_fingerprint: str

    def __post_init__(self):
        if self.n < 1:
            raise RecordFormatError(f"a record needs at least one outcome, header says n={self.n}")
        cells = self.mode.basis_count(self.d) * self.d
        if cells > 0xFFFF:
            raise RecordFormatError(f"d={self.d} {self.mode.value} record has {cells} cells, over 65535")


def _fields(header: RecordHeader) -> dict:
    """The `RecordHeader` fields of header (or of any record built on one), by name."""
    return {f.name: getattr(header, f.name) for f in fields(RecordHeader)}


@dataclass(frozen=True)
class RecordStream(RecordHeader):
    """A sampled record, the one `sample_record(dist, n, seed, shards)` returns.

    It holds the distribution, not the cells: each pass over `cell_blocks`
    draws them again, shard s from the Philox stream (seed, s), in shard order,
    as intp cells (m - mode.first_basis) * d + k in blocks of at most _BLOCK.
    """

    dist: OutcomeDistribution = field(repr=False)
    shards: int

    def cell_blocks(self):
        for s, size in enumerate(_shard_sizes(self.n, self.shards)):
            yield from self.dist.alias.blocks(philox_rng(self.seed, s), size)


@dataclass(frozen=True)
class RecordCounts(RecordHeader):
    """A record's header fields and its read-only (basis, outcome) count table.

    counts[m - mode.first_basis, k] is the multiplicity of outcome k of basis
    m; it sums to n.  `counted` builds it from a stream or a file without
    holding the outcomes.
    """

    counts: np.ndarray = field(repr=False)


def count_cells(blocks, size: int) -> np.ndarray:
    """The multiplicity of each of size cells over the blocks, one bincount per block."""
    counts = np.zeros(size, dtype=np.intp)
    for block in blocks:
        counts += np.bincount(block, minlength=size)
    return counts


def counted(header: RecordHeader, blocks) -> RecordCounts:
    """The `RecordCounts` of header whose cells are blocks."""
    d = header.d
    counts = count_cells(blocks, header.mode.basis_count(d) * d).reshape(-1, d)
    counts.setflags(write=False)
    return RecordCounts(**_fields(header), counts=counts)


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


def _label_cells(blocks, d: int, mode: PovmMode):
    """Yield the uint16 cells (m - first_basis) * d + k of file labels given as (ms, ks) blocks.

    Each block's labels are range-checked, then decoded in uint16 arithmetic,
    exact since the header holds the table to 65535 cells.
    """
    first, count = mode.first_basis, mode.basis_count(d)
    for ms, ks in blocks:
        if ms.min() < first or ms.max() >= first + count:
            raise RecordFormatError(f"basis label outside {first}..{first + count - 1} for mode {mode.value}")
        if ks.max() >= d:
            raise RecordFormatError(f"outcome label outside 0..{d - 1}")
        cells = np.subtract(ms, first, dtype=np.uint16, casting="unsafe")
        cells *= np.uint16(d)
        np.add(cells, ks, out=cells, casting="unsafe")
        yield cells


def _shard_sizes(n: int, shards: int) -> list:
    """The copies of each shard that draws any: the first n % shards draw one more."""
    if n < 1:
        raise ValueError("need at least one copy to measure")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    base, extra = divmod(n, shards)
    return [base + (1 if s < extra else 0) for s in range(min(shards, n))]


def sample_record(dist: OutcomeDistribution, n: int, seed: int, shards: int = 1) -> RecordStream:
    """n independent outcomes, drawn anew on each pass; deterministic per (dist, n, seed, shards).

    Shard s draws its slice from the Philox stream (seed, s), so generating
    the shards concurrently and concatenating them in shard order reproduces
    the record's cells exactly.  Bad arguments are refused now, not on the
    first pass.
    """
    _shard_sizes(n, shards)
    return RecordStream(d=dist.d, mode=dist.mode, seed=seed, n=n,
                        mub_fingerprint=dist.mub_fingerprint, dist=dist, shards=shards)


_HEADER_RE = re.compile(
    r"#SQST v1 d=(\d+) mode=(offdiag|full|computational) seed=(-?\d+) n=(\d+) mub=([0-9a-f]{16})\Z"
)


def _header_line(record: RecordHeader) -> str:
    return (
        f"#SQST v1 d={record.d} mode={record.mode.value} "
        f"seed={record.seed} n={record.n} mub={record.mub_fingerprint}"
    )


def _parse_header(line: str) -> RecordHeader:
    m = _HEADER_RE.match(line.strip())
    if not m:
        raise RecordFormatError(f"corrupt record header: {line[:60]!r}")
    d, mode, seed, n, fp = m.groups()
    try:
        d, seed, n = int(d), int(seed), int(n)
    except ValueError as exc:  # an integer field longer than int() accepts
        raise RecordFormatError(f"corrupt record header: {exc}") from exc
    return RecordHeader(d=d, mode=PovmMode(mode), seed=seed, n=n, mub_fingerprint=fp)


def write_record(record: RecordStream, path, binary: bool = False) -> None:
    """Persist a sampled record as it is drawn; read_record reads back its count table.

    The body is written one cell block at a time from a table of each cell's
    bytes: its (uint16 m, uint16 k) pair in binary, its ``m,k`` line in text.
    """
    head = _header_line(record).encode("ascii") + b"\n"
    if binary:
        if len(head) > _HEADER_BLOCK:
            raise ValueError("header too long for the fixed binary layout")
        head = head.ljust(_HEADER_BLOCK, b"\x00")
    table = _cell_bytes(record.d, record.mode, binary)
    with open(path, "wb") as fh:
        fh.write(head)
        for cells in record.cell_blocks():
            body = table[cells]
            if not binary:
                body = body.view(np.uint8)
                body = body[body != 0]
            fh.write(body)


def _cell_bytes(d: int, mode: PovmMode, binary: bool) -> np.ndarray:
    """Row c holds the file bytes of cell c.

    Binary: the (m, k) pair as one little-endian 4-byte item.  Text: the
    ``m,k`` line NUL-padded to whole 8-byte words (one word while both labels
    have at most three digits), so a block of lines is one gather of words
    and dropping its NUL bytes leaves the lines.
    """
    m, k = divmod(np.arange(mode.basis_count(d) * d), d)
    m += mode.first_basis
    if binary:
        return np.column_stack([m, k]).astype("<u2").view("<u4").ravel()
    lines = [f"{a},{b}\n".encode("ascii") for a, b in zip(m.tolist(), k.tolist())]
    width = -(-max(map(len, lines)) // 8) * 8
    return np.array(lines, dtype=f"S{width}").view(np.uint64).reshape(len(lines), -1)


def read_record(path) -> RecordCounts:
    """The count table of a record file in either format, its outcomes counted chunk by chunk.

    Its memory does not grow with n; `check_family` ties the table to a family.
    """
    with open(path, "rb") as fh:
        return counted(*_open_record(fh, path))


def _open_record(fh, path) -> tuple:
    """(header, cell blocks) of the open record file fh, read once, front to back.

    The header is read and checked now; the blocks check the body as they read it.
    """
    head = fh.read(_HEADER_BLOCK)
    if not head:
        raise RecordFormatError(f"{path}: empty record file")
    header, labels = (_open_binary if b"\x00" in head else _open_text)(fh, head, path)
    return header, _label_cells(labels, header.d, header.mode)


def _open_binary(fh, head: bytes, path) -> tuple:
    line, _, pad = head.partition(b"\x00")
    if pad.strip(b"\x00"):
        raise RecordFormatError(f"{path}: garbage in binary header padding")
    try:
        header = _parse_header(line.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"{path}: undecodable header") from exc
    body = max(0, os.fstat(fh.fileno()).st_size - _HEADER_BLOCK)
    if body != 4 * header.n:
        raise RecordFormatError(f"{path}: body holds {body} bytes, header says n={header.n}")
    return header, _binary_blocks(fh)


def _binary_blocks(fh):
    """Labels (m, k) of the (uint16 m, uint16 k) pairs from fh's position on, a chunk at a time."""
    size = max(4, _CHUNK_BYTES - _CHUNK_BYTES % 4)
    while chunk := fh.read(size):
        pairs = np.frombuffer(chunk, dtype="<u2").reshape(-1, 2)
        yield pairs[:, 0], pairs[:, 1]


def _open_text(fh, head: bytes, path) -> tuple:
    """The header of a text record, read up to its LF, and the label blocks of the body after it."""
    line = chunk = head
    while b"\n" not in chunk and (chunk := fh.read(_CHUNK_BYTES)):
        line += chunk
    cut = line.find(b"\n") + 1 or len(line)
    if not line[:cut].isascii():
        raise RecordFormatError(f"{path}: not an ASCII record file")
    header = _parse_header(line[:cut].decode("ascii"))
    return header, _text_blocks(fh, line[cut:], header.n, path)


def _text_blocks(fh, carry: bytes, n: int, path):
    """Labels (m, k) of the text body, carry and then fh's bytes, the whole lines of one chunk at a time.

    A block is checked to be ASCII before it is parsed, and its lines are
    counted; the partial last line is carried into the next chunk, so a line
    longer than a chunk is parsed once it is whole.  At the end of the file
    the count must be n.
    """
    lines = 0
    while True:
        chunk = fh.read(_CHUNK_BYTES)
        data = carry + chunk
        stop = data.rfind(b"\n") + 1 if chunk else len(data)  # at the end, the unended last line
        block, carry = data[:stop], data[stop:]
        if not block.isascii():
            raise RecordFormatError(f"{path}: not an ASCII record file")
        if block:
            m, k = _parse_text_block(np.frombuffer(block, dtype=np.uint8), path, lines + 2)
            yield m, k
            lines += m.size
        if not chunk:
            break
    if lines != n:
        raise RecordFormatError(f"{path}: {lines} outcome lines, header says n={n}")


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
