import math
import random
import statistics
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cells, vose_tables
from sqst import estimator, measurement
from sqst.estimator import outcome_counts
from sqst.fields import MAX_FIELD_ORDER
from sqst.measurement import (AliasTable, FingerprintMismatch, PovmMode, RecordFormatError,
                              RecordHeader, check_family, outcome_distribution, read_record,
                              sample_record, write_record)
from sqst.mub import build_mub
from sqst.states import make_pure_superposition, random_density, stream_rng


@pytest.fixture(scope="module")
def fam2():
    return build_mub(2)


@pytest.fixture(scope="module")
def fam3():
    return build_mub(3)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("mode", list(PovmMode))
def test_povm_elements_sum_to_identity(d, mode):
    # the mode's POVM: projectors of its bases, each basis drawn with weight 1/basis_count
    family = build_mub(d)
    first = mode.first_basis
    vecs = family.vectors[first - 1 : first - 1 + mode.basis_count(d)]
    elements = np.einsum("mki,mkj->mkij", vecs, vecs.conj()) / mode.basis_count(d)
    assert np.abs(elements.sum(axis=(0, 1)) - np.eye(d)).max() <= 1e-10


def test_maximally_mixed_offdiag_is_uniform(fam2):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    assert np.allclose(dist.probs, 0.25, atol=1e-14)


def test_basis_state_offdiag_is_uniform(fam2):
    # |0><0|: each X/Y projector has Born weight 1/2, basis weight 1/2
    rho = make_pure_superposition(0, 1, 1, 0, 2)
    dist = outcome_distribution(rho, fam2, PovmMode.OFFDIAG)
    assert np.allclose(dist.probs, 0.25, atol=1e-12)


def test_basis_state_full_mode_table(fam2):
    rho = make_pure_superposition(0, 1, 1, 0, 2)
    dist = outcome_distribution(rho, fam2, PovmMode.FULL)
    assert np.allclose(dist.probs, [1 / 3, 0, 1 / 6, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)


@pytest.mark.parametrize("mode", list(PovmMode))
def test_distribution_sums_to_one(fam3, mode):
    for seed in range(5):
        rho = random_density(3, 1 + seed % 3, seed)
        dist = outcome_distribution(rho, fam3, mode)
        assert dist.probs.min() >= 0
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distribution_rejects_non_finite_state(fam2, bad):
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        outcome_distribution(rho, fam2, PovmMode.OFFDIAG)


def test_distribution_dimension_mismatch(fam2):
    with pytest.raises(ValueError, match="dimension"):
        outcome_distribution(np.eye(3, dtype=complex) / 3, fam2, PovmMode.OFFDIAG)


def test_alias_table_matches_probabilities():
    probs = np.array([0.5, 0.125, 0.25, 0.125])
    table = AliasTable(probs)
    draws = np.concatenate(list(table.blocks(stream_rng(4), 200_000)))
    freq = np.bincount(draws, minlength=4) / len(draws)
    sigma = np.sqrt(probs * (1 - probs) / len(draws))
    assert np.all(np.abs(freq - probs) < 4 * sigma + 1e-12)


def test_alias_table_rejects_bad_weights():
    with pytest.raises(ValueError):
        AliasTable(np.array([0.2, -0.1]))
    with pytest.raises(ValueError):
        AliasTable(np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="uint16"):
        AliasTable(np.ones(65_537))


def test_a_record_header_and_an_alias_table_share_one_cell_limit(tmp_path):
    # the header admits only family dimensions, whose largest (full) table fits the alias limit
    d = MAX_FIELD_ORDER
    AliasTable(np.ones(measurement.MAX_CELLS))
    # its last cell decodes exactly in uint16 arithmetic, in both formats
    (tmp_path / "r.txt").write_text(f"{_header(d, 'full', 2)}\n{d + 1},{d - 1}\n1,0\n")
    (tmp_path / "r.bin").write_bytes((_header(d, "full", 2) + "\n").encode("ascii").ljust(128, b"\x00")
                                     + np.array([[d + 1, d - 1], [1, 0]], dtype="<u2").tobytes())
    for name in ("r.txt", "r.bin"):
        counts = read_record(tmp_path / name).counts
        assert counts.shape == (d + 1, d) and counts[d, d - 1] == counts[0, 0] == counts.sum() - 1
    # past the families no header is admitted, whatever its table (AliasTable:
    # test_alias_table_rejects_bad_weights)
    for big, mode in ((256, PovmMode.OFFDIAG), (65_536, PovmMode.COMPUTATIONAL)):
        with pytest.raises(RecordFormatError, match=f"dimension {big} exceeds maximum {d}"):
            RecordHeader(d=big, mode=mode, seed=0, n=1, mub_fingerprint="0" * 16)


def test_the_largest_family_table_fits_a_uint16_cell_index():
    # `_label_cells` decodes (m - first_basis) * d + k in uint16: exact while this holds
    assert MAX_FIELD_ORDER * (MAX_FIELD_ORDER + 1) <= measurement.MAX_CELLS == 1 << 16


def _alias_weights():
    """Over 200 seeded weight vectors: the edge cases, then random ones with zero cells."""
    dominant = np.full(64, 1e-9)
    dominant[17] = 1.0
    yield from (np.array([0.3]), np.array([0.25, 0.75]), np.array([1.0, 0.0]), np.ones(7),
                np.full(4096, 3.0), dominant, np.arange(4096.0))
    rng = stream_rng(21)
    for k in rng.integers(1, 4097, size=200):
        w = rng.random(k) ** 3
        w[rng.random(k) < 0.2] = 0.0
        w[rng.integers(k)] += 1e-3  # never all zero
        yield w


def test_alias_table_matches_the_scalar_vose_construction():
    for w in _alias_weights():
        table = AliasTable(w)
        prob, alias = vose_tables(w)
        assert table.prob.dtype == prob.dtype and table.alias.dtype == alias.dtype
        assert np.array_equal(table.prob, prob) and np.array_equal(table.alias, alias)


def _chi2_threshold(df: int, alpha: float = 1e-6) -> float:
    """Upper alpha quantile of chi^2 with df degrees of freedom (Wilson-Hilferty)."""
    z = statistics.NormalDist().inv_cdf(1.0 - alpha)
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


def _fits(counts: np.ndarray, probs: np.ndarray) -> bool:
    """Whether counts pass the chi^2 test of probs at a 1e-6 false-alarm rate, no cell of
    probability 0 having drawn a copy."""
    zero = probs == 0
    expected = counts.sum() * probs / probs.sum()
    alone = expected >= 5  # cells with fewer expected draws share one pooled bin
    pooled = ~alone & ~zero
    obs, exp = counts[alone], expected[alone]
    if pooled.any():
        obs, exp = np.append(obs, counts[pooled].sum()), np.append(exp, expected[pooled].sum())
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return counts[zero].sum() == 0 and chi2 < _chi2_threshold(obs.size - 1)


@pytest.mark.parametrize("d, mode, seed", [
    (2, PovmMode.OFFDIAG, 31), (3, PovmMode.OFFDIAG, 32), (16, PovmMode.OFFDIAG, 33),
    (64, PovmMode.OFFDIAG, 34), (4, PovmMode.FULL, 35),
])
def test_drawn_cells_fit_the_born_distribution(d, mode, seed):
    # full mode uses |0><0|, whose computational-basis row has exact zeros
    rho = (random_density(d, 2, seed) if mode is PovmMode.OFFDIAG
           else make_pure_superposition(0, 1, 1, 0, d))
    dist = outcome_distribution(rho, build_mub(d), mode)
    n = 200_000
    counts = np.bincount(cells(sample_record(dist, n, seed)), minlength=dist.probs.size)
    assert mode is PovmMode.OFFDIAG or (dist.probs == 0).any()
    assert _fits(counts, dist.probs)


@pytest.mark.parametrize("d, seed", [(2, 36), (16, 37)])
def test_counted_cells_fit_the_born_distribution(d, seed):
    # fig 2's order-free path: a trial's copies from its keyed stream, counted, never ordered
    rho = make_pure_superposition(0, d - 1, 0.6, 0.8j, d)
    dist = outcome_distribution(rho, build_mub(d), PovmMode.OFFDIAG)
    counts = AliasTable(dist.probs).counts(stream_rng(seed, d, 0), 119_830)
    assert counts.sum() == 119_830 and _fits(counts, dist.probs)


@pytest.mark.parametrize("block", [1000, None])  # None: one block of all n copies
def test_cells_do_not_depend_on_the_draw_block(fam3, monkeypatch, block):
    dist = outcome_distribution(random_density(3, 3, 2), fam3, PovmMode.FULL)
    n = 2 * measurement._BLOCK + 17
    drawn = cells(sample_record(dist, n, seed=3))
    monkeypatch.setattr(measurement, "_BLOCK", block or n)
    assert np.array_equal(cells(sample_record(dist, n, seed=3)), drawn)


class _TopRng:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("k", [1, 3, 5, 4096, 65_535, 65_536])
def test_largest_uniform_draws_a_cell_inside_the_table(k):
    table = AliasTable(np.arange(1.0, k + 1))
    (cells,) = table.blocks(_TopRng(), 10)
    assert cells.max() < k
    counts = table.counts(_TopRng(), 10)
    assert counts.shape == (k,) and np.array_equal(counts, np.bincount(cells, minlength=k))


def test_the_largest_uniform_times_any_cell_count_rounds_below_it():
    # why the draw needs no guard: floor(u * K) < K for the largest u < 1 and every K
    k = np.arange(1, measurement.MAX_CELLS + 1)
    assert ((np.nextafter(1.0, 0.0) * k).astype(np.intp) < k).all()


def test_each_threshold_is_the_least_double_at_or_above_its_column_plus_prob():
    for w in _alias_weights():
        table = AliasTable(w)
        below = np.nextafter(table.threshold, -np.inf)
        for c, (p, t, t_below) in enumerate(zip(table.prob.tolist(), table.threshold.tolist(),
                                                below.tolist())):
            exact = c + Fraction(p)
            assert Fraction(t_below) < exact <= Fraction(t), (c, p, t)


class _Doubles:
    """A generator whose uniforms are the given doubles, in order."""

    def __init__(self, u):
        self.u, self.used = u, 0

    def random(self, size):
        self.used += size
        return self.u[self.used - size:self.used].copy()


def _walker_cells(table, u):
    """The reference draw: a copy moves when the fractional part of u * K reaches prob."""
    v = u * table.prob.size
    col = np.floor(v).astype(np.intp)
    return np.where(v - col >= table.prob[col], table.alias[col], col)


def test_the_draw_decides_as_walkers_fractional_part():
    for s, w in enumerate(_alias_weights()):
        table = AliasTable(w)
        u = stream_rng(s).random(2 * measurement._BLOCK + 17)
        if w.size & (w.size - 1) == 0:  # K a power of two: u = t / K is exact, and u * K is t again
            t = table.threshold[table.threshold < w.size]
            u = np.concatenate([u, t / w.size, np.nextafter(t, 0.0) / w.size])
        cells = np.concatenate(list(table.blocks(_Doubles(u), u.size)))
        assert np.array_equal(cells, _walker_cells(table, u)), s
        assert np.array_equal(table.counts(_Doubles(u), u.size), np.bincount(cells, minlength=w.size)), s


@pytest.mark.parametrize("n", [1, 17, measurement._BLOCK, 2 * measurement._BLOCK + 17])
def test_counting_a_draw_is_the_bincount_of_its_cells(n):
    for s, w in enumerate(_alias_weights()):
        table = AliasTable(w)
        counts = table.counts(stream_rng(s), n)
        ordered = np.concatenate(list(table.blocks(stream_rng(s), n)))
        assert counts.dtype == np.intp, s
        assert np.array_equal(counts, np.bincount(ordered, minlength=w.size)), s


def test_sampling_memory_is_bounded_by_a_block():
    dist = outcome_distribution(random_density(64, 4, 1), build_mub(64), PovmMode.OFFDIAG)
    n = 1_000_000
    tracemalloc.start()
    try:
        dist.sample_cells(stream_rng(11, 0), n)  # the ordered draw: the stream's cells in order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000 + 2 * n  # the 2 B cells plus a block's temporaries


def test_a_sampled_record_holds_no_cells():
    dist = outcome_distribution(random_density(64, 4, 1), build_mub(64), PovmMode.OFFDIAG)
    peaks = []
    for n in (1, 10**9):  # 10**9 copies are 2 GB as uint16 cells
        tracemalloc.start()
        try:
            record = sample_record(dist, n, seed=11)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a record builds and holds its alias table, whose size does not depend on n
    assert record.n == 10**9 and peaks[1] < peaks[0] + 10_000


@pytest.fixture
def alias_builds(monkeypatch):
    """The cell count K of every `AliasTable` built while the test runs, in order."""
    builds = []
    init = AliasTable.__init__

    def counted_init(table, probs):
        builds.append(np.asarray(probs).size)
        init(table, probs)

    monkeypatch.setattr(AliasTable, "__init__", counted_init)
    return builds


@pytest.mark.parametrize("mode", list(PovmMode))
def test_a_distribution_builds_no_alias_table_and_each_ordered_draw_one(fam3, alias_builds, mode):
    dist = outcome_distribution(random_density(3, 2, 4), fam3, mode)
    assert alias_builds == [] and not hasattr(dist, "alias")
    dist.sample_cells(stream_rng(1, 0), 10)
    dist.sample_cells(stream_rng(1, 0), 10)
    assert alias_builds == [dist.probs.size] * 2


@pytest.mark.parametrize("shards", [1, 2, 5])
def test_a_stream_builds_one_alias_table_for_all_its_shards_and_passes(fam3, alias_builds,
                                                                       tmp_path, shards):
    dist = outcome_distribution(random_density(3, 2, 4), fam3, PovmMode.OFFDIAG)
    n = 2 * measurement._BLOCK + 5
    record = sample_record(dist, n, seed=8, shards=shards)
    assert alias_builds == [dist.probs.size]
    first, again = cells(record), cells(record)  # two passes, every shard drawn in each
    write_record(record, tmp_path / "r.bin", binary=True)
    assert record.counted().counts.sum() == n
    assert alias_builds == [dist.probs.size] and np.array_equal(first, again)
    sample_record(dist, n, seed=9, shards=shards)
    assert alias_builds == [dist.probs.size] * 2  # one per stream


def test_sharded_sampling_memory_matches_one_shard():
    dist = outcome_distribution(random_density(64, 4, 1), build_mub(64), PovmMode.OFFDIAG)
    peaks = []
    for shards in (1, 2):
        tracemalloc.start()
        try:
            sample_record(dist, 1_000_000, seed=11, shards=shards).counted()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # each shard is drawn and counted a block at a time: no shard copies, no concatenation
    assert peaks[1] < peaks[0] + 2 * measurement._BLOCK  # one block of uint16 cells


def test_point_mass_record(fam2):
    # eigenstate of the computational basis measured in that basis
    rho = make_pure_superposition(0, 1, 0, 1, 2)  # |1><1|
    dist = outcome_distribution(rho, fam2, PovmMode.COMPUTATIONAL)
    record = sample_record(dist, 500, seed=1)
    assert np.all(cells(record) == 1)  # basis 1, outcome 1


def test_sampling_is_deterministic(fam2):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    a = sample_record(dist, 1000, seed=5)
    b = sample_record(dist, 1000, seed=5)
    c = sample_record(dist, 1000, seed=6)
    assert np.array_equal(cells(a), cells(b))
    assert not np.array_equal(cells(a), cells(c))


def test_sampling_unbiased_at_1e6(fam2):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    n = 1_000_000
    record = sample_record(dist, n, seed=12)
    freq = np.bincount(cells(record), minlength=4) / n
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(freq - 0.25) < 4 * sigma)


def test_shard_concatenation_contract(fam3):
    dist = outcome_distribution(random_density(3, 3, 1), fam3, PovmMode.OFFDIAG)
    whole = sample_record(dist, 1001, seed=9, shards=4)
    sizes = [251, 250, 250, 250]
    parts = []
    for s, size in enumerate(sizes):
        parts.append(dist.sample_cells(stream_rng(9, measurement._MODE_STREAM[dist.mode.value], s), size))
    flat = np.concatenate(parts)
    assert np.array_equal(cells(whole), flat)


def test_sample_record_rejects_zero_copies(fam2):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    with pytest.raises(ValueError):
        sample_record(dist, 0, seed=1)


@pytest.mark.parametrize("n, seed, shards, message", [
    (0, 1, 1, "at least one outcome"), (5, 1, 0, "shards must be >= 1"),
    (5, -1, 1, "seed must be >= 0, header says seed=-1$"),
    (2**53, 1, 1, r"fewer than 2\*\*53 outcomes, header says n=9007199254740992$")])
def test_sample_record_refuses_bad_arguments_before_writing(fam2, tmp_path, n, seed, shards,
                                                            message):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    with pytest.raises(ValueError, match=message):
        write_record(sample_record(dist, n, seed, shards), tmp_path / "r.txt")
    assert not (tmp_path / "r.txt").exists()


def test_a_record_holds_fewer_than_2_53_copies_as_the_planner_plans(fam2):
    # built, never drawn: a record's header rule is checked when the record is made
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    assert measurement.MAX_COPIES == 2**53
    assert sample_record(dist, 2**53 - 1, seed=0).n == 2**53 - 1
    header = dict(d=2, mode=PovmMode.OFFDIAG, seed=0, mub_fingerprint="0" * 16)
    assert RecordHeader(**header, n=2**53 - 1).n == 2**53 - 1
    with pytest.raises(RecordFormatError, match=r"^a record holds fewer than 2\*\*53 outcomes"):
        RecordHeader(**header, n=2**53)
    with pytest.raises(ValueError, match=r"reaches 2\*\*53"):  # the planner's bound is the same
        estimator.plan_samples(1e-8, 0.1)


def test_a_record_stream_draws_the_same_cells_on_every_pass(fam3):
    dist = outcome_distribution(random_density(3, 3, 4), fam3, PovmMode.FULL)
    n = 2 * measurement._BLOCK + 17
    stream = sample_record(dist, n, seed=6, shards=3)
    for _ in range(2):
        blocks = list(stream.cell_blocks())
        assert max(b.size for b in blocks) <= measurement._BLOCK
        assert np.array_equal(np.concatenate(blocks), cells(sample_record(dist, n, 6, 3)))


@pytest.mark.parametrize("shards", [1, 3, 4])
@pytest.mark.parametrize("binary", [False, True])
def test_the_two_sinks_agree_on_one_source(fam3, tmp_path, shards, binary):
    # a sampled record written to a file and read back, or counted as it is drawn
    dist = outcome_distribution(random_density(3, 3, 5), fam3, PovmMode.FULL)
    n = 2 * measurement._BLOCK + 17
    path = tmp_path / "r"
    write_record(sample_record(dist, n, 7, shards), path, binary=binary)
    read, drawn = read_record(path), sample_record(dist, n, 7, shards).counted()
    assert measurement._fields(read) == measurement._fields(drawn)
    assert np.array_equal(read.counts, drawn.counts)
    assert drawn.counts.sum() == n
    shard0 = stream_rng(7, measurement._MODE_STREAM[dist.mode.value], 0)  # shard 0 draws these first
    first = dist.sample_cells(shard0, n // shards)
    assert first.dtype == np.uint16
    assert np.array_equal(first, cells(path)[:first.size])


@dataclass(frozen=True)
class _GivenCells(RecordHeader):
    """A record of given cells, with the header fields and `cell_blocks` that write_record reads."""

    cells: np.ndarray = field(repr=False)

    def cell_blocks(self):
        return iter([self.cells])


def _roundtrip(record, path, binary):
    write_record(record, path, binary=binary)
    return measurement._fields(read_record(path)), cells(path).tolist()


@pytest.mark.parametrize("binary", [False, True])
def test_record_round_trip(fam3, binary, tmp_path):
    dist = outcome_distribution(random_density(3, 2, 2), fam3, PovmMode.OFFDIAG)
    record = sample_record(dist, 300, seed=3)
    path = tmp_path / ("r.bin" if binary else "r.txt")
    assert _roundtrip(record, path, binary) == (measurement._fields(record),
                                                 cells(record).tolist())


@pytest.mark.parametrize("binary", [False, True])
def test_record_files_byte_stable(fam3, binary, tmp_path):
    dist = outcome_distribution(random_density(3, 2, 2), fam3, PovmMode.FULL)
    record = sample_record(dist, 100, seed=3)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    write_record(record, p1, binary=binary)
    write_record(record, p2, binary=binary)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_with_wrong_family_fails(fam2, fam3, tmp_path):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    record = sample_record(dist, 10, seed=0)
    path = tmp_path / "r.txt"
    write_record(record, path)
    again = read_record(path)
    assert measurement._fields(again) == measurement._fields(record)
    assert np.array_equal(again.counts, record.counted().counts)
    check_family(again, fam2, PovmMode.OFFDIAG)
    with pytest.raises(FingerprintMismatch):
        check_family(again, fam3, PovmMode.OFFDIAG)


def test_empty_file_is_corrupt(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(RecordFormatError):
        read_record(path)


def test_garbage_header_is_corrupt(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#NOT A RECORD\n1,2\n")
    with pytest.raises(RecordFormatError, match="header"):
        read_record(path)


def test_truncated_binary_body(fam2, tmp_path):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    record = sample_record(dist, 50, seed=0)
    path = tmp_path / "r.bin"
    write_record(record, path, binary=True)
    data = path.read_bytes()
    path.write_bytes(data[:-6])
    with pytest.raises(RecordFormatError, match="body"):
        read_record(path)


def test_truncated_text_body(fam2, tmp_path):
    dist = outcome_distribution(np.eye(2, dtype=complex) / 2, fam2, PovmMode.OFFDIAG)
    record = sample_record(dist, 50, seed=0)
    path = tmp_path / "r.txt"
    write_record(record, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(RecordFormatError):
        read_record(path)


def test_out_of_range_outcome_rejected(fam2, tmp_path):
    path = tmp_path / "r.txt"
    header = "#SQST v1 d=2 mode=offdiag seed=0 n=1 mub=" + fam2.fingerprint()
    path.write_text(header + "\n4,0\n")  # basis 4 does not exist at d=2
    with pytest.raises(RecordFormatError, match="basis label"):
        read_record(path)


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("d, mode, m, k, message", [
    (2, "offdiag", 1, 0, "basis label outside 2..3"),
    (2, "full", 4, 0, "basis label outside 1..3"),
    (2, "offdiag", 2, 2, "outcome label outside 0..1"),
    (3, "computational", 1, 3, "outcome label outside 0..2"),
    # labels in range, but a table past a uint16 cell index: the header refuses the dimension
    (300, "offdiag", 2, 0, "dimension 300 exceeds maximum 64"),
], ids=["offdiag-basis", "full-basis", "offdiag-outcome", "computational-outcome", "uint16-cells"])
def test_file_labels_outside_their_ranges_rejected(tmp_path, binary, d, mode, m, k, message):
    path = tmp_path / "r"
    if binary:
        path.write_bytes((_header(d, mode, 1) + "\n").encode("ascii").ljust(128, b"\x00")
                         + np.array([m, k], dtype="<u2").tobytes())
    else:
        path.write_text(f"{_header(d, mode, 1)}\n{m},{k}\n")
    with pytest.raises(RecordFormatError, match=message):
        read_record(path)


@pytest.mark.parametrize("binary", [False, True])
def test_file_labels_decode_to_cells(tmp_path, binary):
    # full mode, d=3: cell (m - 1) * 3 + k
    labels = [(1, 0), (4, 2), (2, 1), (3, 0)]
    path = tmp_path / "r"
    if binary:
        path.write_bytes((_header(3, "full", 4) + "\n").encode("ascii").ljust(128, b"\x00")
                         + np.array(labels, dtype="<u2").tobytes())
    else:
        path.write_text(_header(3, "full", 4) + "\n" + "".join(f"{m},{k}\n" for m, k in labels))
    decoded = cells(path)
    assert decoded.tolist() == [0, 11, 4, 6]
    assert decoded.dtype == np.uint16
    record = _GivenCells(**measurement._fields(read_record(path)), cells=decoded)
    write_record(record, tmp_path / "again", binary=binary)
    assert (tmp_path / "again").read_bytes() == path.read_bytes()


def _header(d, mode, n, fp="0123456789abcdef", seed=0):
    return f"#SQST v1 d={d} mode={mode} seed={seed} n={n} mub={fp}"


def test_zero_copy_text_record_rejected(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text(_header(2, "offdiag", 0) + "\n")
    with pytest.raises(RecordFormatError, match="n=0"):
        read_record(path)


def test_zero_copy_binary_record_rejected(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes((_header(2, "offdiag", 0) + "\n").encode("ascii").ljust(128, b"\x00"))
    with pytest.raises(RecordFormatError, match="n=0"):
        read_record(path)


@pytest.mark.parametrize("line", ["70000,0", "-1,0", "2,65536", "2,-3", "99999,0"])
def test_text_label_outside_uint16_rejected(tmp_path, line):
    path = tmp_path / "r.txt"
    path.write_text(_header(2, "offdiag", 1) + "\n" + line + "\n")
    with pytest.raises(RecordFormatError, match="line 2"):
        read_record(path)


def test_largest_uint16_label_is_a_range_fault(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text(_header(2, "offdiag", 1) + "\n65535,0\n")
    with pytest.raises(RecordFormatError, match="basis label outside 2..3"):
        read_record(path)


def test_read_with_matching_dimension_but_foreign_fingerprint(fam2, tmp_path):
    path = tmp_path / "r.txt"
    path.write_text(_header(2, "offdiag", 1) + "\n2,0\n")
    with pytest.raises(FingerprintMismatch, match="fingerprint"):
        check_family(read_record(path), fam2, PovmMode.OFFDIAG)


def _record_invariants_hold(record, ordered):
    # cell c holds basis first + c // d in first..last and outcome c % d in 0..d-1
    size = record.mode.basis_count(record.d) * record.d
    return (record.n >= 1 and len(ordered) == record.n
            and ordered.dtype == np.uint16
            and int(ordered.max()) < size)


_labels = st.integers(min_value=-3, max_value=70_000)
_text_bodies = st.lists(
    st.one_of(st.tuples(_labels, _labels).map(lambda mk: f"{mk[0]},{mk[1]}"),
              st.text(alphabet="0123456789,- x\t", max_size=12)),
    max_size=6).map("\n".join)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(d=st.integers(min_value=0, max_value=70_000),
       mode=st.sampled_from([m.value for m in PovmMode]),
       n=st.integers(min_value=0, max_value=6),
       binary=st.booleans(),
       text_body=_text_bodies,
       raw_body=st.binary(max_size=28),
       trailing_newline=st.booleans())
def test_read_record_parses_or_raises_format_error(tmp_path_factory, d, mode, n, binary,
                                                   text_body, raw_body, trailing_newline):
    head = _header(d, mode, n) + "\n"
    if binary:
        data = head.encode("ascii").ljust(128, b"\x00") + raw_body
    else:
        data = (head + text_body + ("\n" if trailing_newline else "")).encode("ascii")
    path = tmp_path_factory.getbasetemp() / "fuzzed.record"
    path.write_bytes(data)
    counted = _outcome(lambda p: read_record(p).counts.ravel(), path)
    try:
        ordered = cells(path)
    except RecordFormatError as exc:
        assert counted == (type(exc).__name__, f"{path}: {exc}")
        return
    record = read_record(path)
    assert (record.d, record.mode.value, record.n) == (d, mode, n)
    assert _record_invariants_hold(record, ordered)
    assert counted == np.bincount(ordered, minlength=len(counted)).tolist()


def test_header_integer_too_long_for_int_is_format_error(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text(_header("9" * 5000, "offdiag", 1) + "\n2,0\n")
    with pytest.raises(RecordFormatError, match="header"):
        read_record(path)


# ---------------------------------------------------------------------------
# the text grammar across parse blocks

_MANY = 3 * 65_536 + 5


@pytest.fixture(scope="module")
def many_path(tmp_path_factory):
    family = build_mub(8)
    dist = outcome_distribution(random_density(8, 3, 4), family, PovmMode.FULL)
    record = sample_record(dist, _MANY, seed=5)
    path = tmp_path_factory.mktemp("many") / "r.txt"
    write_record(record, path)
    return record, path


def test_multi_block_text_round_trip_is_byte_identical(many_path, tmp_path):
    record, path = many_path
    data = path.read_bytes()
    lines = "".join(f"{1 + c // 8},{c % 8}\n" for c in cells(record).tolist())  # full mode, d=8
    assert data == (measurement._header_line(record) + "\n" + lines).encode("ascii")
    again = _GivenCells(**measurement._fields(read_record(path)), cells=cells(path))
    assert measurement._fields(again) == measurement._fields(record)
    assert np.array_equal(again.cells, cells(record))
    write_record(again, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == data


@pytest.mark.parametrize("d", [2, 3, 4, 8, 27, 64])
@pytest.mark.parametrize("mode", list(PovmMode))
@pytest.mark.parametrize("n", [1, 131_073])  # one line, and several blocks plus a partial one
def test_text_body_matches_a_line_by_line_writer(tmp_path, d, mode, n):
    size = mode.basis_count(d) * d
    cells = stream_rng(d, n).integers(0, size, n)
    cells[-1] = size - 1  # the longest line, last in the final partial block
    record = _GivenCells(d=d, mode=mode, seed=0, n=n, mub_fingerprint="0" * 16,
                         cells=cells.astype(np.uint16))
    path = tmp_path / "r.txt"
    write_record(record, path)
    first = mode.first_basis
    lines = "".join(f"{first + c // d},{c % d}\n" for c in cells.tolist())
    assert path.read_bytes() == (measurement._header_line(record) + "\n" + lines).encode("ascii")


def _corrupt_line(data: bytes, body_index: int) -> bytes:
    """Replace the first character of outcome line body_index by 'x', keeping every offset."""
    at = 0
    for _ in range(body_index + 1):  # skip the header and body_index outcome lines
        at = data.index(b"\n", at) + 1
    return data[:at] + b"x" + data[at + 1:]


def test_bad_line_in_a_later_block_is_named(many_path, tmp_path):
    _, path = many_path
    data = path.read_bytes()
    # the line holding the first byte of the second read chunk, and the last line
    boundary = len(measurement._header_line(many_path[0])) + 1 + measurement._CHUNK_BYTES
    at_boundary = data.count(b"\n", 0, boundary) - 1
    for body_index in (at_boundary, 2 * 65_536 + 7, _MANY - 1):
        bad = tmp_path / f"bad{body_index}.txt"
        bad.write_bytes(_corrupt_line(data, body_index))
        with pytest.raises(RecordFormatError, match=rf"bad outcome line {body_index + 2}: 'x"):
            read_record(bad)


def test_range_fault_in_an_earlier_block_wins_over_a_later_grammar_fault(many_path, tmp_path):
    _, path = many_path
    data = path.read_bytes()
    late = 2 * 65_536 + 7  # in the third parse block
    at = len(measurement._header_line(many_path[0])) + 1
    data = data[:at] + b"0" + data[at + 1:]  # line 2 names basis 0 of d=8 full mode: a range fault
    (tmp_path / "range.txt").write_bytes(data)
    with pytest.raises(RecordFormatError, match="basis label outside 1..9"):
        read_record(tmp_path / "range.txt")
    (tmp_path / "both.txt").write_bytes(_corrupt_line(data, late))
    with pytest.raises(RecordFormatError, match="basis label outside 1..9"):
        read_record(tmp_path / "both.txt")


def test_crlf_and_missing_final_newline_read_like_lf(many_path, tmp_path):
    record, path = many_path
    data = path.read_bytes()
    variants = {"crlf": data.replace(b"\n", b"\r\n"), "no_final": data[:-1],
                "crlf_no_final": data.replace(b"\n", b"\r\n")[:-2]}
    for name, body in variants.items():
        (tmp_path / name).write_bytes(body)
        assert np.array_equal(cells(tmp_path / name), cells(record)), name
        again = read_record(tmp_path / name)
        assert measurement._fields(again) == measurement._fields(record), name
        assert np.array_equal(again.counts, record.counted().counts), name


@pytest.mark.parametrize("line", ["+1,0", " 1,0", "1_0,0", "1,", ",0", "1,2,3", "", "1,0 ",
                                  "1;0", "000002,0", "1,0\r\r"])
def test_lines_outside_the_grammar_rejected(tmp_path, line):
    path = tmp_path / "r.txt"
    path.write_bytes((_header(2, "offdiag", 2) + "\n2,0\n" + line + "\n").encode("ascii"))
    with pytest.raises(RecordFormatError, match="line 3"):
        read_record(path)


def test_lone_carriage_return_is_not_a_line_end(tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes((_header(2, "offdiag", 2) + "\n2,0\r3,1\n").encode("ascii"))
    with pytest.raises(RecordFormatError, match="bad outcome line 2"):
        read_record(path)


# ---------------------------------------------------------------------------
# count tables are immutable


@pytest.mark.parametrize("binary", [False, True])
def test_count_tables_are_read_only(fam3, binary, tmp_path):
    dist = outcome_distribution(random_density(3, 2, 2), fam3, PovmMode.OFFDIAG)
    path = tmp_path / "r"
    write_record(sample_record(dist, 50, seed=3), path, binary=binary)
    for counts in (outcome_counts(sample_record(dist, 50, seed=3)), read_record(path).counts):
        assert np.array_equal(counts, np.bincount(cells(path), minlength=9).reshape(3, 3))
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 1


# ---------------------------------------------------------------------------
# read_record against the cells the same file decodes to, chunk size by chunk size


def _reader_cases(tmp_path) -> dict:
    """Record files, valid and damaged, that exercise the chunked readers; name -> path."""
    d, n = 4, 3000
    dist = outcome_distribution(random_density(d, 3, 8), build_mub(d), PovmMode.OFFDIAG)
    record = sample_record(dist, n, seed=21)
    write_record(record, tmp_path / "base.txt")
    write_record(record, tmp_path / "base.bin", binary=True)
    text, binary = (tmp_path / "base.txt").read_bytes(), (tmp_path / "base.bin").read_bytes()
    head, body = text.split(b"\n", 1)
    lines = body.split(b"\n")[:-1]
    late = n - 5  # a body line past a chunk edge at chunk sizes 7 and 4096

    def with_line(i, line, data=text):
        at = len(head) + 1 + sum(len(x) + 1 for x in lines[:i])
        return data[:at] + line + data[data.index(b"\n", at):]

    padded = b"\n".join(b"%05d,%05d" % tuple(map(int, x.split(b","))) if i % 97 == 0 else x
                        for i, x in enumerate(lines))
    range_fault = with_line(3, b"1,0")  # basis 1 is outside offdiag's 2..5
    zero = _header(d, "offdiag", 0).encode("ascii") + b"\n"
    cases = {
        "lf.txt": text,
        "crlf.txt": text.replace(b"\n", b"\r\n"),
        "no_final_lf.txt": text[:-1],
        "crlf_no_final_lf.txt": text.replace(b"\n", b"\r\n")[:-2],
        "long_lines.txt": head + b"\n" + padded + b"\n",  # 11-byte lines: longer than 7
        "overlong_line.txt": with_line(late, b"2," + b"0" * 5000),
        "non_ascii_and_bad_header.txt": b"#SQST v9" + text[8:-1] + b"\xe9",  # in the last chunk
        "bad_header.txt": b"#SQST v9" + text[8:],
        "range_fault.txt": range_fault,
        "range_then_grammar_fault.txt": with_line(late, b"2;1", range_fault),
        "outcome_range_fault.txt": with_line(late, b"2,4"),
        "line_count.txt": text[:text.rindex(b"\n", 0, -1) + 1],
        "empty.txt": b"",
        "header_only_no_lf.txt": zero[:-1],
        "n0.txt": zero,
        "n0.bin": zero.ljust(128, b"\x00"),
        "lf.bin": binary,
        "truncated_by_1.bin": binary[:-1],
        "truncated_by_4.bin": binary[:-4],
        "one_pair_too_many.bin": binary + binary[-4:],
        "bad_padding.bin": binary[:127] + b"z" + binary[128:],
        "range_fault.bin": binary[:128] + b"\x01\x00" + binary[130:],
    }
    paths = {}
    for name, data in cases.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    return paths


def _outcome(read, path):
    """The flat count table read gives for path, or the type and text of what it raises."""
    try:
        return read(path).tolist()
    except RecordFormatError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("chunk", [7, 4096, measurement._CHUNK_BYTES])
def test_read_record_agrees_with_counting_the_decoded_cells(tmp_path, monkeypatch, chunk):
    paths = _reader_cases(tmp_path)
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", chunk)
    size = 16  # d=4 offdiag: 4 bases of 4 outcomes
    outcomes = {}
    for name, path in paths.items():
        counted = _outcome(lambda p: np.bincount(cells(p), minlength=size), path)
        if isinstance(counted, tuple):  # read_record names the file in the oracle's fault
            counted = (counted[0], f"{path}: {counted[1]}")
        outcomes[name] = _outcome(lambda p: read_record(p).counts.ravel(), path)
        assert outcomes[name] == counted, name
    assert {name for name, out in outcomes.items() if isinstance(out, list)} == {
        "lf.txt", "crlf.txt", "no_final_lf.txt", "crlf_no_final_lf.txt", "long_lines.txt",
        "lf.bin"}
    assert outcomes["crlf.txt"] == outcomes["lf.bin"] == outcomes["long_lines.txt"]
    assert outcomes["non_ascii_and_bad_header.txt"][1].startswith(
        f"{paths['non_ascii_and_bad_header.txt']}: corrupt record header")
    # the earlier fault, unless one chunk holds both: within a block grammar comes before range
    one_block = paths["range_then_grammar_fault.txt"].stat().st_size <= chunk
    assert outcomes["range_then_grammar_fault.txt"][1].startswith(
        f"{paths['range_then_grammar_fault.txt']}: "
        + ("bad outcome line" if one_block else "basis label outside 2..5"))
    assert "bad outcome line 2997: '2,0000" in outcomes["overlong_line.txt"][1]
    assert outcomes["range_fault.txt"][1].startswith(
        f"{paths['range_fault.txt']}: basis label outside 2..5")
    assert outcomes["n0.bin"][1] == (f"{paths['n0.bin']}: "
                                     "a record needs at least one outcome, header says n=0")


class _ReadOnce:
    """A binary file wrapper that counts the bytes read and refuses to seek."""

    def __init__(self, fh):
        self.fh, self.bytes_read = fh, 0

    def read(self, size=-1):
        data = self.fh.read(size)
        self.bytes_read += len(data)
        return data

    def fileno(self):
        return self.fh.fileno()

    def seek(self, *args):
        raise AssertionError("the reader seeks")


@pytest.mark.parametrize("chunk", [7, 65_536])
@pytest.mark.parametrize("name", ["lf.txt", "crlf_no_final_lf.txt", "long_lines.txt", "lf.bin"])
def test_a_record_file_is_read_once_front_to_back(tmp_path, monkeypatch, chunk, name):
    paths = _reader_cases(tmp_path)
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", chunk)
    pairs = np.frombuffer(paths["lf.bin"].read_bytes()[128:], dtype="<u2").reshape(-1, 2)
    expected = (pairs[:, 0] - 2) * 4 + pairs[:, 1]  # d=4 offdiag, bases 2..5
    with open(paths[name], "rb") as raw:
        fh = _ReadOnce(raw)
        header, blocks = measurement._open_record(fh)
        assert fh.bytes_read == measurement._HEADER_BLOCK  # the header line, and no body line
        decoded = np.concatenate(list(blocks))
        assert fh.bytes_read == raw.tell() == paths[name].stat().st_size
    assert header.n == decoded.size and np.array_equal(decoded, expected)


@pytest.mark.parametrize("chunk", [7, 4096, measurement._CHUNK_BYTES])
@pytest.mark.parametrize("zeros", [100, 1 << 20, 8 << 20])
def test_an_overlong_line_is_refused_at_once_and_quoted_short(tmp_path, monkeypatch, chunk,
                                                              zeros):
    # a 100-zero line ended by LF is parsed whole in one 64 KiB chunk and carried at 7 bytes
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", chunk)
    head = (_header(4, "offdiag", 1) + "\n").encode("ascii")
    path = tmp_path / "one_line.txt"
    path.write_bytes(head + b"2," + b"0" * zeros + b"\n" * (zeros == 100))
    with open(path, "rb") as raw:
        fh = _ReadOnce(raw)
        with pytest.raises(RecordFormatError) as exc:
            measurement.counted(*measurement._open_record(fh))
        assert fh.bytes_read <= len(head) + 2 * max(chunk, measurement._HEADER_BLOCK)
    assert str(exc.value) == f"bad outcome line 2: '2,{'0' * 38}'..."
    assert len(str(exc.value)) < 200


_EARLY, _LATE = 3, 2995  # body lines of the 3000-line record, in different parse blocks
_NON_ASCII, _GRAMMAR, _BASIS, _OUTCOME = b"2,\xe9", b"2;1", b"1,0", b"2,4"
_MESSAGES = {_NON_ASCII: "not an ASCII record file", _GRAMMAR: "bad outcome line {}: '2;1'",
             _BASIS: "basis label outside 2..5", _OUTCOME: "outcome label outside 0..3"}


def _replace_lines(data: bytes, lines: dict) -> bytes:
    """data with body line i (counted from 0 after the header) replaced by lines[i]."""
    rows = data.split(b"\n")
    for i, line in lines.items():
        rows[i + 1] = line
    return b"\n".join(rows)


@pytest.mark.parametrize("first, second", [(_NON_ASCII, _GRAMMAR), (_GRAMMAR, _NON_ASCII),
                                           (_GRAMMAR, _BASIS), (_BASIS, _GRAMMAR),
                                           (_NON_ASCII, _BASIS), (_BASIS, _NON_ASCII),
                                           (_OUTCOME, _BASIS), (_BASIS, _OUTCOME)],
                         ids=lambda line: line.decode("latin-1"))
@pytest.mark.parametrize("chunk", [7, 4096])
def test_the_earlier_of_two_body_faults_is_raised(tmp_path, monkeypatch, chunk, first, second):
    text = _reader_cases(tmp_path)["lf.txt"].read_bytes()
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", chunk)
    path = tmp_path / "two_faults.txt"
    path.write_bytes(_replace_lines(text, {_EARLY: first, _LATE: second}))
    with pytest.raises(RecordFormatError, match=_MESSAGES[first].format(_EARLY + 2)):
        read_record(path)


@pytest.mark.parametrize("chunk", [7, 4096])
def test_a_header_fault_wins_over_any_body_fault_and_the_line_count_comes_last(
        tmp_path, monkeypatch, chunk):
    paths = _reader_cases(tmp_path)
    text, binary = paths["lf.txt"].read_bytes(), paths["lf.bin"].read_bytes()
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", chunk)
    short = text[:text.rindex(b"\n", 0, -1) + 1]  # 2999 of its 3000 lines
    faulty = [_replace_lines(text, {_EARLY: line}) for line in (*_MESSAGES, b"")] + [short]

    def under(header, data):  # the body of data under another header line
        return header.encode("ascii") + b"\n" + data.split(b"\n", 1)[1]

    cases = {
        "corrupt record header": [b"#SQST v9" + data[8:] for data in faulty],
        "dimension 300 exceeds maximum 64": [under(_header(300, "offdiag", 3000), data)
                                             for data in faulty],
        "dimension 6 is not a prime power": [under(_header(6, "offdiag", 3000), data)
                                             for data in faulty],
        # a header of n = 0 over a body of lines or pairs
        "at least one outcome, header says n=0": [
            under(_header(4, "offdiag", 0), text),
            (_header(4, "offdiag", 0) + "\n").encode("ascii").ljust(128, b"\x00") + binary[128:]],
        # and of n = 2**53, a copy count no float tells from the next
        "fewer than 2\\*\\*53 outcomes, header says n=9007199254740992": [
            under(_header(4, "offdiag", 2**53), text),
            (_header(4, "offdiag", 2**53) + "\n").encode("ascii").ljust(128, b"\x00") + binary[128:]],
        # the binary body size is checked on the header, before a pair is read
        "body holds 11996 bytes": [binary[:128] + b"\x01\x00" + binary[130:-4]],
        # the line count is checked at the end of the file, so any body fault comes first
        **{_MESSAGES[line].format(i + 2): [_replace_lines(short, {i: line})]
           for line in _MESSAGES for i in (_EARLY, 2990)},
        "2999 outcome lines, header says n=3000": [short],
    }
    path = tmp_path / "faults"
    for message, files in cases.items():
        for data in files:
            path.write_bytes(data)
            with pytest.raises(RecordFormatError, match=message):
                read_record(path)


def test_read_record_is_a_read_only_table_with_the_header_fields(tmp_path):
    paths = _reader_cases(tmp_path)
    counts = read_record(paths["lf.txt"])
    assert (counts.d, counts.mode, counts.seed, counts.n, counts.mub_fingerprint) == (
        4, PovmMode.OFFDIAG, 21, 3000, build_mub(4).fingerprint())
    assert counts.counts.shape == (4, 4) and counts.counts.sum() == 3000
    with pytest.raises(ValueError, match="read-only"):
        counts.counts[0, 0] = 1


def test_read_record_memory_does_not_grow_with_n(tmp_path):
    dist = outcome_distribution(random_density(64, 4, 1), build_mub(64), PovmMode.OFFDIAG)
    peaks = []
    for n in (100_000, 1_000_000):
        path = tmp_path / f"r{n}.txt"
        write_record(sample_record(dist, n, seed=2), path)
        tracemalloc.start()
        try:
            read_record(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 500_000


# ---------------------------------------------------------------------------
# the accept-only parser against the reference grammar


def _random_block(rng) -> bytes:
    """A text body block: LF or CRLF lines, 5-digit labels and 65535/65536 among them, an
    unended last line now and then, and zero to three random edits."""
    lines = [rng.choice(_FORMS) % (rng.choice(_LABELS), rng.choice(_LABELS))
             for _ in range(rng.randint(1, 8))]
    newline = rng.choice([b"\n", b"\r\n"])
    block = bytearray(newline.join(lines) + rng.choice([newline, b""]))
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        at, piece = rng.randrange(len(block) + 1), rng.choice(_EDITS)
        block[at:at + rng.randint(0, 2)] = piece
    return bytes(block)


_FORMS = [b"%d,%d", b"%d,%d", b"%05d,%d", b"%d,%05d"]
_LABELS = [0, 1, 2, 3, 5, 9, 10, 63, 99, 100, 999, 1_000, 9_999, 10_000, 12_345, 65_535] * 3 + [
    65_536, 99_999]
_EDITS = [b"", b"0", b"7", b",", b"\r", b"\n", b"\r\n", b" ", b"-", b"x", b"\xe9", b"65536", b"123456"]


def test_the_parser_accepts_exactly_the_blocks_without_a_reference_fault():
    rng = random.Random(22)
    outcomes = {"accepted": 0, "refused": 0}
    for _ in range(20_000):
        block = _random_block(rng)
        if not block:
            continue
        fault = measurement._body_fault(block, 2)
        try:
            m, k = measurement._parse_text_block(np.frombuffer(block, dtype=np.uint8), 2)
        except RecordFormatError as exc:
            assert fault is not None and str(exc) == str(fault), block
            outcomes["refused"] += 1
        else:
            assert fault is None, block
            labels = [(int(a), int(b)) for a, b in measurement._LINE.findall(block)]
            assert list(zip(m.tolist(), k.tolist())) == labels, block
            outcomes["accepted"] += 1
    assert min(outcomes.values()) > 4_000, outcomes


_BODY = [b"2,0", b"3,1", b"4,2", b"5,3", b"2,1"]  # d=4 offdiag, file lines 2 to 6


def _with_lines(**lines) -> bytes:
    """The LF body of _BODY with file line l<i> replaced by lines['l<i>']."""
    rows = list(_BODY)
    for name, line in lines.items():
        rows[int(name[1:]) - 2] = line
    return b"\n".join(rows) + b"\n"


_HEAD = (_header(4, "offdiag", 5) + "\n").encode("ascii")
_DAMAGED = {  # the message of each damaged file, every one naming the file
    "empty": (b"", "{path}: empty record file"),
    "garbage_header": (b"hello\n" + _with_lines(), "{path}: corrupt record header: 'hello\\n'"),
    "non_ascii_header": (_HEAD.replace(b"cd", b"c\xe9") + _with_lines(),
                         "{path}: not an ASCII record file"),
    "unended_header": (_HEAD[:-1] + b"1" * 70_000,
                       "{path}: corrupt record header: "
                       "'#SQST v1 d=4 mode=offdiag seed=0 n=5 mub=0123456789abcdef111'"),
    # one header rule for both formats: a binary header line ends in its LF too
    "unended_binary_header": (_HEAD[:-1].ljust(128, b"\x00") + b"\x02\x00\x00\x00" * 5,
                              f"{{path}}: corrupt record header: {_HEAD[:-1].decode()!r}"),
    "zero_copies": (_HEAD.replace(b"n=5", b"n=0") + _with_lines(),
                    "{path}: a record needs at least one outcome, header says n=0"),
    "copies_from_2_53": (_HEAD.replace(b"n=5", b"n=9007199254740992") + _with_lines(),
                         "{path}: a record holds fewer than 2**53 outcomes, "
                         "header says n=9007199254740992"),
    "binary_copies_from_2_53": (_HEAD.replace(b"n=5", b"n=9007199254740992").ljust(128, b"\x00")
                                + b"\x02\x00\x00\x00" * 5,
                                "{path}: a record holds fewer than 2**53 outcomes, "
                                "header says n=9007199254740992"),
    "non_ascii_line": (_HEAD + _with_lines(l4=b"2,\xe9"), "{path}: not an ASCII record file"),
    "sign": (_HEAD + _with_lines(l3=b"+2,0"), "{path}: bad outcome line 3: '+2,0'"),
    "leading_space": (_HEAD + _with_lines(l3=b" 2,0"), "{path}: bad outcome line 3: ' 2,0'"),
    "trailing_space": (_HEAD + _with_lines(l3=b"2,0 "), "{path}: bad outcome line 3: '2,0 '"),
    "semicolon": (_HEAD + _with_lines(l3=b"2;0"), "{path}: bad outcome line 3: '2;0'"),
    "empty_line": (_HEAD + _with_lines(l5=b""), "{path}: bad outcome line 5: ''"),
    "no_outcome": (_HEAD + _with_lines(l2=b"2,"), "{path}: bad outcome line 2: '2,'"),
    "no_basis": (_HEAD + _with_lines(l2=b",0"), "{path}: bad outcome line 2: ',0'"),
    "three_labels": (_HEAD + _with_lines(l6=b"2,0,1"), "{path}: bad outcome line 6: '2,0,1'"),
    "six_digits": (_HEAD + _with_lines(l4=b"000002,0"), "{path}: bad outcome line 4: '000002,0'"),
    "over_uint16": (_HEAD + _with_lines(l4=b"65536,0"), "{path}: bad outcome line 4: '65536,0'"),
    "double_cr": (_HEAD + _with_lines().replace(b"\n", b"\r\n").replace(b"3,1\r", b"3,1\r\r"),
                  "{path}: bad outcome line 3: '3,1\\r'"),
    "unended_cr": (_HEAD + _with_lines()[:-1] + b"\r", "{path}: bad outcome line 6: '2,1\\r'"),
    "lone_cr": (_HEAD + _with_lines().replace(b"3,1\n", b"3,1\r"),
                "{path}: bad outcome line 3: '3,1\\r4,2'"),
    "overlong": (_HEAD + _with_lines(l3=b"2," + b"0" * 100),
                 "{path}: bad outcome line 3: '2,00000000000000000000000000000000000000'..."),
    "non_ascii_after_grammar_in_one_block": (_HEAD + _with_lines(l3=b"2;0", l6=b"\xe9"),
                                             "{path}: not an ASCII record file"),
    "basis_range": (_HEAD + _with_lines(l5=b"65535,0"),
                    "{path}: basis label outside 2..5 for mode offdiag"),
    "outcome_range": (_HEAD + _with_lines(l5=b"2,4"), "{path}: outcome label outside 0..3"),
    "one_line_short": (_HEAD + _with_lines()[:-4], "{path}: 4 outcome lines, header says n=5"),
    "one_line_more": (_HEAD + _with_lines() + b"2,2\n", "{path}: 6 outcome lines, header says n=5"),
}


@pytest.mark.parametrize("name", list(_DAMAGED))
def test_each_damaged_file_gets_its_exact_message(tmp_path, name):
    data, message = _DAMAGED[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(data)
    with pytest.raises(RecordFormatError) as exc:
        read_record(path)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("chunk", [7, 4096, measurement._CHUNK_BYTES])
def test_a_header_line_past_its_bound_is_refused_once_the_bound_is_read(tmp_path, monkeypatch,
                                                                        chunk):
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", chunk)
    block = measurement._HEADER_BLOCK
    head, bound = _header(4, "offdiag", 1), block - 1
    pair = np.array([2, 0], dtype="<u2").tobytes()
    cases = {  # trailing spaces keep a header valid, while its line, LF included, fits the bound
        "at_bound.txt": (head.ljust(bound - 1) + "\n2,0\n").encode("ascii"),
        "past_bound.txt": (head.ljust(bound) + "\n2,0\n").encode("ascii"),
        "no_lf.txt": (head + "1" * (4 << 20)).encode("ascii"),
        "at_bound.bin": (head.ljust(bound - 1) + "\n\x00").encode("ascii") + pair,
        # a full block: no NUL is left to mark it binary, and its LF ends no line in time
        "past_bound.bin": (head.ljust(bound) + "\n").encode("ascii") + pair,
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        with open(path, "rb") as raw:
            fh = _ReadOnce(raw)
            try:
                header, blocks = measurement._open_record(fh)
            except RecordFormatError as exc:
                outcome = str(exc)
            else:
                assert fh.bytes_read == block, name
                outcome = measurement.counted(header, blocks).n
            assert fh.bytes_read <= block + chunk, name
        at_bound = name.startswith("at_bound")
        expected = 1 if at_bound else f"corrupt record header: {data[:60].decode()!r}"
        assert outcome == expected, name


def test_a_record_round_trips_at_every_header_length_up_to_the_bound(fam2, tmp_path):
    # seeds of 1 to 80 digits give every header length, LF included, from the shortest past 127
    dist = outcome_distribution(random_density(2, 2, 3), fam2, PovmMode.FULL)
    lengths = []
    for digits in range(1, 81):
        seed = 10**digits - 1
        size = len(_header(2, "full", 5, fam2.fingerprint(), seed)) + 1
        if size >= measurement._HEADER_BLOCK:  # refused before any file is written
            with pytest.raises(RecordFormatError, match=f"header line of {size} bytes"):
                sample_record(dist, 5, seed)
            continue
        lengths.append(size)
        record = sample_record(dist, 5, seed)
        for binary in (False, True):
            path = tmp_path / f"r{size}.{'bin' if binary else 'txt'}"
            write_record(record, path, binary=binary)
            again = read_record(path)
            assert measurement._fields(again) == measurement._fields(record), path
            assert np.array_equal(cells(path), cells(record)), path
        assert path.read_bytes()[measurement._HEADER_BLOCK - 1] == 0  # one NUL at the least
    assert lengths == list(range(lengths[0], measurement._HEADER_BLOCK))


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("d", [0, 1, 6, 65, 256, 65_536])
def test_a_header_outside_the_families_is_refused_within_the_header_block(tmp_path, binary, d):
    head = (_header(d, "computational", 1) + "\n").encode("ascii")
    path = tmp_path / "r"
    path.write_bytes(head.ljust(128, b"\x00") + np.array([1, 0], dtype="<u2").tobytes() if binary
                     else head + b"1,0\n" * 1000)
    with open(path, "rb") as raw:
        fh = _ReadOnce(raw)
        with pytest.raises(RecordFormatError, match=f"^dimension {d} "):
            measurement._open_record(fh)
        assert fh.bytes_read <= measurement._HEADER_BLOCK


@pytest.mark.parametrize("binary", [False, True])
def test_a_negative_seed_is_refused_at_the_header_with_the_path(tmp_path, binary):
    head = (_header(2, "offdiag", 1, seed=-5) + "\n").encode("ascii")
    path = tmp_path / "r"
    path.write_bytes(head.ljust(128, b"\x00") + np.array([2, 0], dtype="<u2").tobytes() if binary
                     else head + b"2,0\n" * 1000)
    message = "a record's seed must be >= 0, header says seed=-5"
    with open(path, "rb") as raw:
        fh = _ReadOnce(raw)
        with pytest.raises(RecordFormatError, match=f"^{message}$"):
            measurement._open_record(fh)
        assert fh.bytes_read <= measurement._HEADER_BLOCK
    with pytest.raises(RecordFormatError) as exc:
        read_record(path)
    assert str(exc.value) == f"{path}: {message}"
