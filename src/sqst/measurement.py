"""POVM outcome distributions, record sampling, and record persistence.

This is the experimental phase of the protocol: pick the POVM mode, compute the exact Born
distribution over (basis m, outcome k) pairs, draw N independent outcomes, and keep them as
the universal measurement record.  In memory an outcome is one cell index
(m - first_basis) * d + k into the (basis, outcome) count table; the labels (m, k) exist only
in record files.

No estimate reads the order of outcomes, only the count table, so no ordered record is kept
in memory.  A record is a `RecordStream` (what `sample_record` returns: the sharded draw of
the one `AliasTable` it holds, made anew on each pass), a file, or a `RecordCounts` table, all
on one `RecordHeader`; an `OutcomeDistribution` is the Born table alone.  Copies flow in
blocks of at most _BLOCK, so no temporary grows with n.  One alias core decides each copy's
(column, moved) pair from its double: `write_record` writes a stream's cells, ordered from
those decisions, and `RecordStream.counted` counts them, unordered, over all its shards.
`read_record` counts a file's labels, read in _CHUNK_BYTES chunks and made cells by
`_label_cells` alone.  So `sqst simulate` and the commands that estimate hold no n-long array.

Record files exist in two formats sharing one header line, and `RecordHeader`'s rule

    #SQST v1 d=<d> mode=<mode> seed=<seed> n=<n> mub=<16 hex chars>

* text: the header line, then exactly n body lines ``<m>,<k>`` (`_LINE`: labels of
  1 to 5 ASCII digits, <= 65535), each ended by LF or CRLF, the last one's optional;
  no signs, spaces or empty lines.  Text is written and parsed in numpy blocks, a
  chunk's whole lines at a time.  The parser only accepts; `_body_fault` reads a
  refused block line by line to name its fault;
* binary: the header line NUL-padded to 128 bytes, then n little-endian
  (uint16 m, uint16 k) pairs.

A file is read once, front to back: the header from one _HEADER_BLOCK read, then
the body block by block (ASCII, then grammar, then label ranges), raising the
first fault in file order, named by its path in `read_record` alone.

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

from .fields import field_order
from .mub import MubFamily, born_weights
from .states import require_density, stream_rng

_HEADER_BLOCK = 128  # the one read that holds a header line and its LF, with a byte to spare
MAX_CELLS = 1 << 16  # the most (basis, outcome) cells a uint16 cell index numbers
MAX_COPIES = 1 << 53  # the first copy count a float cannot tell from the next: no record reaches it
# Copies per block of every n-long cell stream (drawn, counted or written): each
# float64 or intp temporary is 64 KiB, under glibc's 128 KiB mmap threshold, so
# blocks reuse heap memory rather than fault fresh pages in.  The cells do not
# depend on it.
_BLOCK = 8_192
_CHUNK_BYTES = 1 << 16  # bytes per read of a record file
_MAX_DIGITS = 5  # digits of the largest uint16 label
_QUOTE_BYTES = 40  # the most of a bad body line that its error message quotes
_LINE = re.compile(rb"(\d{1,5}),(\d{1,5})")  # a text body line, without its LF or CRLF


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

    A draw takes one uniform u per copy (Walker's one-uniform form): with v = u * K,
    the integer part of v picks the column c, and v >= threshold[c] moves the copy
    to the column's alias.  threshold[c] is the least double >= c + prob[c], so the
    decision is the exact one v - c >= prob[c] of Walker's fractional part.  One
    core makes these (column, moved) decisions a block at a time; `blocks` turns
    them into the ordered cells and `counts` counts them without ordering them.
    Cells are uint16, so K <= MAX_CELLS.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("need a nonempty 1-D probability vector")
        if probs.size > MAX_CELLS:
            raise ValueError(f"{probs.size} cells do not fit uint16 cell indices")
        if probs.min() < 0:
            raise ValueError("negative probability")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities sum to zero")
        k = probs.size
        scaled = (probs * (k / total)).tolist()  # Python floats: the same doubles, cheaper to index
        prob, alias = [1.0] * k, list(range(k))
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            prob[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            (small if scaled[hi] < 1.0 else large).append(hi)
        # leftovers are all (numerically) 1
        self.prob, self.alias = np.array(prob), np.array(alias, dtype=np.intp)
        columns = np.arange(k, dtype=np.float64)
        self.threshold = columns + self.prob
        # sum - c is exact (Sterbenz), so it is below prob exactly where the sum rounded down
        low = self.threshold - columns < self.prob
        self.threshold[low] = np.nextafter(self.threshold[low], np.inf)

    def _decided(self, draws):
        """(col, moved) of each block of at most _BLOCK copies, for each (rng, size) of draws in turn.

        Copy i of a draw uses the i-th double u of its rng: col = floor(u * K), which is
        below K for every u < 1 and K <= 2**53, and moved = u * K >= threshold[col].  So
        the decisions do not depend on the block size, and the temporaries stay a block long.
        """
        k = self.prob.size
        for rng, size in draws:
            for start in range(0, size, _BLOCK):
                u = rng.random(min(_BLOCK, size - start))
                u *= k
                col = u.astype(np.intp)
                yield col, u >= self.threshold.take(col)

    def blocks(self, rng: np.random.Generator, size: int):
        """Yield size cells drawn from rng, in draw order, as intp arrays of at most _BLOCK copies each."""
        for col, moved in self._decided([(rng, size)]):
            yield np.where(moved, self.alias.take(col), col)

    def counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The multiplicity of each cell over size copies drawn from rng: the bincount of `blocks`."""
        return self._counted([(rng, size)])

    def _counted(self, draws) -> np.ndarray:
        """The intp multiplicity of each cell over every copy of draws, in one table.

        Each block is counted by (column, moved) in one bincount of col + K * moved,
        without ordering its cells; the moved half goes to the aliases once, at the end.
        """
        k = self.prob.size
        both = np.zeros(2 * k, dtype=np.intp)
        for col, moved in self._decided(draws):
            both += np.bincount(col + k * moved, minlength=2 * k)
        counts = both[:k].copy()
        np.add.at(counts, self.alias, both[k:])
        return counts


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact (basis, outcome) probabilities of a state under one POVM mode.

    probs is stored flat in (basis, outcome) row-major order, so entry
    (m - mode.first_basis) * d + k is the weight of outcome k of basis m;
    it carries no sampler: each draw builds an `AliasTable(probs)` over these cells.
    """

    mode: PovmMode
    d: int
    probs: np.ndarray = field(repr=False)
    mub_fingerprint: str

    def sample_cells(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size uint16 cells drawn from rng, in draw order, through a table built for this draw."""
        cells = np.empty(size, dtype=np.uint16)
        for start, block in zip(range(0, size, _BLOCK), AliasTable(self.probs).blocks(rng, size)):
            cells[start:start + block.size] = block
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
    return OutcomeDistribution(mode=mode, d=d, probs=probs, mub_fingerprint=family.fingerprint())


@dataclass(frozen=True)
class RecordHeader:
    """A record's header fields, and the one rule for every record source: 1 <= n < MAX_COPIES,
    seed >= 0, d a family dimension (`fields.field_order`), and a line that with its LF fits
    _HEADER_BLOCK - 1 bytes, so a binary header keeps a NUL of padding."""

    d: int
    mode: PovmMode
    seed: int
    n: int
    mub_fingerprint: str

    def __post_init__(self):
        if self.n < 1:
            raise RecordFormatError(f"a record needs at least one outcome, header says n={self.n}")
        if self.n >= MAX_COPIES:
            raise RecordFormatError(f"a record holds fewer than 2**53 outcomes, header says n={self.n}")
        if self.seed < 0:
            raise RecordFormatError(f"a record's seed must be >= 0, header says seed={self.seed}")
        try:
            field_order(self.d)
        except ValueError as exc:
            raise RecordFormatError(str(exc)) from None
        size = len(_header_line(self)) + 1
        if size >= _HEADER_BLOCK:
            raise RecordFormatError(f"header line of {size} bytes with its LF, over {_HEADER_BLOCK - 1}")


def _fields(header: RecordHeader) -> dict:
    """The `RecordHeader` fields of header (or of any record built on one), by name."""
    return {f.name: getattr(header, f.name) for f in fields(RecordHeader)}


@dataclass(frozen=True)
class RecordStream(RecordHeader):
    """A sampled record, the one `sample_record(dist, n, seed, shards)` returns.

    It holds the distribution's alias table, built once, not the cells: each pass over
    `cell_blocks` draws them again, shard s from the stream keyed (seed, s), in shard
    order, as intp cells (m - mode.first_basis) * d + k in blocks of at most _BLOCK,
    and each `counted` draws them again from the same doubles, counted but not ordered.
    """

    table: AliasTable = field(repr=False)
    shards: int

    def _draws(self):
        """(rng, size) of each shard, in shard order."""
        for s, size in enumerate(_shard_sizes(self.n, self.shards)):
            yield stream_rng(self.seed, s), size

    def cell_blocks(self):
        for rng, size in self._draws():
            yield from self.table.blocks(rng, size)

    def counted(self) -> RecordCounts:
        """The record's `RecordCounts`: every shard drawn and counted, unordered, into one table."""
        return _with_counts(self, self.table._counted(self._draws()))


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
    return _with_counts(header, count_cells(blocks, header.mode.basis_count(header.d) * header.d))


def _with_counts(header: RecordHeader, counts: np.ndarray) -> RecordCounts:
    """The `RecordCounts` of header with the flat count table counts, made read-only."""
    counts = counts.reshape(-1, header.d)
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

    Each block's labels are range-checked, then decoded in uint16 arithmetic, exact since
    the header admits only family dimensions: d * (d + 1) <= MAX_CELLS, no cell over 0xFFFF.
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
    if shards < 1:
        raise ValueError("shards must be >= 1")
    base, extra = divmod(n, shards)
    return [base + (1 if s < extra else 0) for s in range(min(shards, n))]


def sample_record(dist: OutcomeDistribution, n: int, seed: int, shards: int = 1) -> RecordStream:
    """n independent outcomes, drawn anew on each pass; deterministic per (dist, n, seed, shards).

    Shard s draws its slice from the stream keyed (seed, s), so generating
    the shards concurrently and concatenating them in shard order reproduces
    the record's cells exactly.  Bad arguments are refused now, not on the
    first pass.
    """
    _shard_sizes(n, shards)
    return RecordStream(d=dist.d, mode=dist.mode, seed=seed, n=n,
                        mub_fingerprint=dist.mub_fingerprint, table=AliasTable(dist.probs), shards=shards)


_HEADER_RE = re.compile(
    r"#SQST v1 d=(\d+) mode=(offdiag|full|computational) seed=(-?\d+) n=(\d+) mub=([0-9a-f]{16})\Z"
)


def _header_line(record: RecordHeader) -> str:
    return (
        f"#SQST v1 d={record.d} mode={record.mode.value} "
        f"seed={record.seed} n={record.n} mub={record.mub_fingerprint}"
    )


def _parse_header(raw: bytes) -> RecordHeader:
    """The header of a header line, LF included, read from one header block in either format."""
    if not raw.isascii():
        raise RecordFormatError("not an ASCII record file")
    line = raw.decode("ascii")
    m = line.endswith("\n") and _HEADER_RE.match(line.strip())
    if not m:
        raise RecordFormatError(f"corrupt record header: {line[:60]!r}")
    d, mode, seed, n, fp = m.groups()
    return RecordHeader(d=int(d), mode=PovmMode(mode), seed=int(seed), n=int(n), mub_fingerprint=fp)


def write_record(record: RecordStream, path, binary: bool = False) -> None:
    """Persist a sampled record as it is drawn; read_record reads back its count table.

    The body is written one cell block at a time from a table of each cell's
    bytes: its (uint16 m, uint16 k) pair in binary, its ``m,k`` line in text.
    """
    head = _header_line(record).encode("ascii") + b"\n"
    if binary:
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
        try:
            return counted(*_open_record(fh))
        except RecordFormatError as exc:  # every fault of the file, named here once
            raise RecordFormatError(f"{path}: {exc}") from exc


def _open_record(fh) -> tuple:
    """(header, cell blocks) of the open record file fh, read once, front to back.

    The header is read and checked now; the blocks check the body as they read it.
    """
    head = fh.read(_HEADER_BLOCK)
    if not head:
        raise RecordFormatError("empty record file")
    header, labels = _open_binary(fh, head) if b"\x00" in head else _open_text(fh, head)
    return header, _label_cells(labels, header.d, header.mode)


def _open_binary(fh, head: bytes) -> tuple:
    line, _, pad = head.partition(b"\x00")
    if pad.strip(b"\x00"):
        raise RecordFormatError("garbage in binary header padding")
    header = _parse_header(line)
    body = max(0, os.fstat(fh.fileno()).st_size - _HEADER_BLOCK)
    if body != 4 * header.n:
        raise RecordFormatError(f"body holds {body} bytes, header says n={header.n}")
    return header, _binary_blocks(fh)


def _binary_blocks(fh):
    """Labels (m, k) of the (uint16 m, uint16 k) pairs from fh's position on, a chunk at a time."""
    size = max(4, _CHUNK_BYTES - _CHUNK_BYTES % 4)
    while chunk := fh.read(size):
        pairs = np.frombuffer(chunk, dtype="<u2").reshape(-1, 2)
        yield pairs[:, 0], pairs[:, 1]


def _open_text(fh, head: bytes) -> tuple:
    """The header of a text record, whose LF must be among head's first 127 bytes, and the body's blocks."""
    cut = head.find(b"\n", 0, _HEADER_BLOCK - 1) + 1  # 0: the line and its LF overrun the bound
    header = _parse_header(head[:cut or _HEADER_BLOCK - 1])
    return header, _text_blocks(fh, head[cut:], header.n)


def _text_blocks(fh, carry: bytes, n: int):
    """Labels (m, k) of the text body, carry and then fh's bytes, the whole lines of one chunk at a time.

    Each block's lines are parsed and counted, and its partial last line is carried into the
    next chunk.  A carry longer than any quote (and its CR) is no valid line: its fault is
    raised at once.  At the end of the file the count must be n.
    """
    lines = 0
    while True:
        chunk = fh.read(_CHUNK_BYTES)
        data = carry + chunk
        stop = data.rfind(b"\n") + 1 if chunk else len(data)  # at the end, the unended last line
        block, carry = data[:stop], data[stop:]
        if block:
            m, k = _parse_text_block(np.frombuffer(block, dtype=np.uint8), lines + 2)
            yield m, k
            lines += m.size
        if len(carry) > _QUOTE_BYTES + 1:
            raise _body_fault(carry, lines + 2)
        if not chunk:
            break
    if lines != n:
        raise RecordFormatError(f"{lines} outcome lines, header says n={n}")


def _parse_text_block(seg: np.ndarray, first_line: int) -> tuple:
    """int32 labels (m, k) of the whole ``m,k`` lines in seg, whose first is file line first_line.

    It only accepts: any other block raises the fault `_body_fault` names.  Offsets are
    int32 and local to the block.  A block of only digits, commas and LFs has no CR to strip.
    """
    line_end = np.empty(seg.size + 1, dtype=bool)  # each LF, and the block's end if it has none
    is_newline = np.equal(seg, ord("\n"), out=line_end[:-1])
    line_end[-1] = not is_newline[-1]
    digits = seg - np.uint8(ord("0"))  # wraps every non-digit byte above 9
    is_comma = seg == ord(",")
    allowed = (digits <= 9) | is_comma | is_newline
    ends = np.flatnonzero(line_end).astype(np.int32)
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    stops = ends
    if not allowed.all():  # a line's content ends before the CR of its CRLF
        crlf = (ends > starts) & (ends < seg.size) & (seg.take(ends - 1) == ord("\r"))
        stops = ends - crlf
        allowed[stops[crlf]] = True
    comma = np.flatnonzero(is_comma).astype(np.int32)
    # each line holds one comma when the commas interleave the line ends
    if comma.size == ends.size and allowed.all() and ((comma >= starts) & (comma < ends)).all():
        m_len, k_len = comma - starts, stops - comma - 1
        longest = int(max(m_len.max(), k_len.max()))
        if min(m_len.min(), k_len.min()) > 0 and longest <= _MAX_DIGITS:
            m, k = digits.take(comma - 1).astype(np.int32), digits.take(stops - 1).astype(np.int32)
            for place in range(1, longest):
                m += np.where(place < m_len, digits.take(comma - 1 - place), 0) * np.int32(10**place)
                k += np.where(place < k_len, digits.take(stops - 1 - place), 0) * np.int32(10**place)
            if longest < _MAX_DIGITS or max(m.max(), k.max()) <= 0xFFFF:  # 4 digits are <= 9999
                return m, k
    raise _body_fault(seg.tobytes(), first_line)


def _body_fault(block: bytes, first_line: int) -> RecordFormatError | None:
    """The first fault of a text body block, whose first line is file line first_line, or None.

    The grammar's reference, a line at a time: a non-ASCII byte comes first, then the
    first line, without its LF and the CR of a CRLF, outside _LINE or over 0xFFFF.
    """
    if not block.isascii():
        return RecordFormatError("not an ASCII record file")
    lines = re.split(rb"\r?\n", block)  # an unended last line keeps its CR
    for i, line in enumerate(lines[:-1] if block.endswith(b"\n") else lines):
        match = _LINE.fullmatch(line)
        if not match or max(int(match[1]), int(match[2])) > 0xFFFF:
            return _bad_line(first_line + i, line)


def _bad_line(number: int, line: bytes) -> RecordFormatError:
    """The grammar fault of file line number, quoting at most _QUOTE_BYTES of its bytes."""
    more = "..." if len(line) > _QUOTE_BYTES else ""
    text = line[:_QUOTE_BYTES].decode("ascii")
    return RecordFormatError(f"bad outcome line {number}: {text!r}{more}")
