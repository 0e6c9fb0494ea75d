import argparse
import decimal
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sqst
from oracles import cells
from sqst import estimator, measurement
from sqst.cli import _build_parser, _fig2_trial, main, parse_state, reproduce_fig2
from sqst.measurement import PovmMode, check_family, read_record
from sqst.mub import MubFamily, build_mub, eta_table, verify_mub
from sqst.states import make_pure_superposition, philox_rng, random_density, save_matrix


def run(*argv) -> int:
    return main(list(argv))


# ---------------------------------------------------------------------------
# plan


def test_plan_prints_pinned_value(capsys):
    assert run("plan", "--epsilon", "0.01", "--delta", "0.01") == 0
    out = capsys.readouterr().out
    assert "n = 119830" in out
    assert "exp(-n*" in out


def test_plan_multi_element(capsys):
    assert run("plan", "--epsilon", "0.01", "--delta", "0.01", "--elements", "16") == 0
    assert "n = 175282" in capsys.readouterr().out


def test_plan_general_json(capsys):
    assert run("plan", "--epsilon", "0.05", "--delta", "0.01", "--general",
               "--k-bound", "0.2", "--dim", "4", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4793


def test_plan_general_prints_a_true_inequality(capsys):
    # n floors the inverse (the paper's count), so the printed right-hand side is
    # the bound n reaches, rounded up, not delta
    for eps, delta, k, d in itertools.product([0.01, 0.05, 0.1], [0.01, 0.05],
                                              [0.1, 0.2], [2, 4, 8, 16]):
        assert run("plan", "--epsilon", str(eps), "--delta", str(delta), "--general",
                   "--k-bound", str(k), "--dim", str(d), "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        lhs, rhs = payload["inequality"].split(" <= ")
        value = eval(lhs.replace("^", "**"), {"__builtins__": {}, "exp": math.exp,
                                              "n": payload["n"]})
        assert value <= float(rhs) <= value * (1 + 1e-5)
        assert payload["delta"] == delta


@pytest.mark.parametrize("k", [1e-4, 1e-8])
def test_plan_general_prints_a_bound_below_the_float_range(capsys, k):
    # n = 1 is right, but its bound 4*exp(-n*eps^2/(2*K^2*(d+1)^2)) underflows a float
    assert run("plan", "--epsilon", "0.1", "--delta", "0.1", "--general",
               "--k-bound", str(k), "--dim", "4", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1
    rhs = decimal.Decimal(payload["inequality"].split(" <= ")[1])
    assert rhs < decimal.Decimal("1e-300")
    wide = decimal.Context(Emin=decimal.MIN_EMIN)
    log_bound = wide.ln(4) - wide.divide(decimal.Decimal(0.1)**2, 2 * decimal.Decimal(k)**2 * 25)
    assert 0 <= rhs.ln(wide) - log_bound <= 1e-5  # rounded up to 6 significant digits


def test_plan_takes_a_delta_whose_ratio_to_the_elements_overflows(capsys):
    # 4*M/delta overflows a float at delta = 1e-307 and M = 100; its logarithm does not
    assert run("plan", "--epsilon", "0.1", "--delta", "1e-307", "--elements", "100",
               "--format", "json") == 0
    n = json.loads(capsys.readouterr().out)["n"]
    assert n == 142_578
    delta = decimal.Decimal(1e-307)
    assert estimator.hoeffding_tail(n, 0.1, 100) <= delta < estimator.hoeffding_tail(n - 1, 0.1, 100)
    assert run("plan", "--epsilon", "0.1", "--delta", "1e-307", "--elements", "100",
               "--general", "--k-bound", "0.2", "--dim", "4", "--format", "json") == 0
    n = json.loads(capsys.readouterr().out)["n"]
    assert n == 142_577  # the floor of the inverse: K*(d+1) = 1 gives the element tail
    tail = estimator.hoeffding_tail
    assert tail(n + 1, 0.1, 100, 0.2, 4) <= delta <= tail(n, 0.1, 100, 0.2, 4)


def test_plan_invalid_epsilon_fails(capsys):
    assert run("plan", "--epsilon", "0", "--delta", "0.01") == 1
    assert "error:" in capsys.readouterr().err


def test_plan_takes_one_copy_for_a_huge_finite_epsilon(tmp_path, capsys):
    # epsilon**2 overflows here; the plan divides by epsilon twice instead
    assert run("plan", "--epsilon", "1e200", "--delta", "0.1", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["n"] == 1
    rec = tmp_path / "r.txt"
    assert run("simulate", "--dim", "2", "--state", "mixed", "--epsilon", "1e300",
               "--delta", "0.5", "--out", str(rec), "--quiet") == 0
    assert read_record(rec).n == 1


def test_plan_general_needs_dim(capsys):
    assert run("plan", "--epsilon", "0.1", "--delta", "0.1", "--general") == 1


# ---------------------------------------------------------------------------
# mub


def test_mub_pass_and_export(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run("mub", "--dim", "5", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    bases = np.asarray(obj["bases"], dtype=np.float64)
    family = MubFamily(d=obj["d"], vectors=bases[..., 0] + 1j * bases[..., 1])
    assert verify_mub(family, 1e-10).passed
    assert "pass" in capsys.readouterr().out


def test_mub_rejects_non_prime_power(capsys):
    assert run("mub", "--dim", "6") == 1
    assert "prime power" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_mub_rejects_bad_tol(tol, capsys):
    assert run("mub", "--dim", "2", "--tol", tol) == 1
    assert "tol must be finite and positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_record(tmp_path):
    out = tmp_path / "r.txt"
    assert run("simulate", "--dim", "2", "--state", "superposition:0,1,1,1",
               "--copies", "1000", "--povm", "offdiag", "--seed", "7",
               "--out", str(out)) == 0
    record = read_record(out)
    check_family(record, build_mub(2), PovmMode.OFFDIAG)
    assert record.n == 1000
    assert record.mode is PovmMode.OFFDIAG
    assert set(np.unique(cells(out))) <= {0, 1, 2, 3}  # the cells of bases 2 and 3


def test_simulate_povm_both(tmp_path):
    prefix = tmp_path / "pair"
    assert run("simulate", "--dim", "2", "--state", "mixed", "--copies", "200",
               "--povm", "both", "--seed", "3", "--out", str(prefix)) == 0
    off = read_record(f"{prefix}.offdiag.txt")
    diag = read_record(f"{prefix}.diag.txt")
    assert off.mode is PovmMode.OFFDIAG
    assert diag.mode is PovmMode.COMPUTATIONAL
    assert off.n == diag.n == 200


def test_simulate_planner_mode(tmp_path):
    out = tmp_path / "r.txt"
    assert run("simulate", "--dim", "2", "--state", "mixed", "--epsilon", "0.1",
               "--delta", "0.01", "--povm", "computational", "--seed", "1",
               "--out", str(out)) == 0
    assert read_record(out).n == 1199


def test_simulate_requires_exactly_one_size_spec(tmp_path, capsys):
    out = tmp_path / "r.txt"
    base = ["simulate", "--dim", "2", "--state", "mixed", "--povm", "offdiag",
            "--out", str(out)]
    assert main(base) == 1
    assert main(base + ["--copies", "10", "--epsilon", "0.1", "--delta", "0.1"]) == 1


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for path in (a, b):
        assert run("simulate", "--dim", "3", "--state", "random:2,5", "--copies",
                   "500", "--povm", "offdiag", "--seed", "11", "--out", str(path),
                   "--record-format", "binary") == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_binary_and_text_agree(tmp_path):
    t, b = tmp_path / "r.txt", tmp_path / "r.bin"
    for path, fmt in ((t, "text"), (b, "binary")):
        assert run("simulate", "--dim", "2", "--state", "mixed", "--copies", "100",
                   "--povm", "offdiag", "--seed", "5", "--out", str(path),
                   "--record-format", fmt) == 0
    assert measurement._fields(read_record(t)) == measurement._fields(read_record(b))
    assert np.array_equal(cells(t), cells(b))


@pytest.mark.parametrize("n", [1, 2 * measurement._BLOCK + 17])
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_streamed_simulate_writes_the_sampled_record_file(tmp_path, n, shards, fmt):
    out, expected = tmp_path / "streamed", tmp_path / "expected"
    assert run("simulate", "--dim", "4", "--state", "random:3,2", "--copies", str(n),
               "--povm", "full", "--seed", "8", "--shards", str(shards),
               "--record-format", fmt, "--out", str(out), "--quiet") == 0
    dist = measurement.outcome_distribution(parse_state("random:3,2", 4), build_mub(4),
                                            PovmMode.FULL)
    measurement.write_record(measurement.sample_record(dist, n, 8, shards), expected,
                             binary=fmt == "binary")
    assert out.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# estimate


@pytest.fixture()
def record_pair(tmp_path):
    prefix = tmp_path / "rec"
    assert run("simulate", "--dim", "2", "--state", "superposition:0,1,1,1",
               "--copies", "20000", "--povm", "both", "--seed", "13",
               "--out", str(prefix)) == 0
    return f"{prefix}.offdiag.txt", f"{prefix}.diag.txt"


def test_estimate_multiple_elements_one_record(record_pair, capsys):
    off, diag = record_pair
    assert run("estimate", "--record", off, "--diag-record", diag,
               "--element", "0,1", "--element", "1,0", "--element", "0,0") == 0
    payload = json.loads(capsys.readouterr().out)
    by_ij = {(e["i"], e["j"]): e for e in payload["estimates"]}
    assert len(by_ij) == 3
    # same record, conjugate elements: estimates are exact conjugates
    assert by_ij[(0, 1)]["re"] == pytest.approx(by_ij[(1, 0)]["re"])
    assert by_ij[(0, 1)]["im"] == pytest.approx(-by_ij[(1, 0)]["im"])
    assert 0.0 <= by_ij[(0, 0)]["re"] <= 1.0
    assert by_ij[(0, 0)]["im"] == 0.0


def test_estimate_with_truth_csv(record_pair, capsys):
    off, diag = record_pair
    assert run("estimate", "--record", off, "--diag-record", diag,
               "--element", "0,1", "--truth", "superposition:0,1,1,1",
               "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,j,re,im,n,epsilon,delta,abs_error"
    cells = lines[1].split(",")
    assert float(cells[7]) <= 0.05  # n = 20000 makes the error tiny


def test_estimate_diagonal_needs_diag_record(record_pair, capsys):
    off, _ = record_pair
    assert run("estimate", "--record", off, "--element", "1,1") == 1
    assert "diag-record" in capsys.readouterr().err


def test_estimate_requires_elements(record_pair):
    off, diag = record_pair
    assert run("estimate", "--record", off, "--diag-record", diag) == 1


@pytest.mark.parametrize("command", ["estimate", "tomography"])
@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "-3", "--delta", "7"], "epsilon must be positive, got -3.0"),
    (["--epsilon", "0"], "epsilon must be positive, got 0.0"),
    (["--delta", "7"], "delta must lie in (0, 1), got 7.0"),
    (["--delta", "1"], "delta must lie in (0, 1), got 1.0"),
    (["--epsilon", "0.1", "--delta", "0"], "delta must lie in (0, 1), got 0.0"),
    (["--epsilon", "nan"], "epsilon must be positive, got nan"),
    (["--epsilon", "inf"], "epsilon must be finite, got inf"),
    (["--delta", "1e-320"],
     "delta must exceed the least normal float 2.2250738585072014e-308, got 1e-320"),
    (["--delta", "2.2250738585072014e-308"],  # 4/delta overflows: the radius was inf
     "delta must exceed the least normal float 2.2250738585072014e-308, got 2.2250738585072014e-308"),
])
def test_epsilon_and_delta_outside_their_ranges_fail_cleanly(record_pair, capsys, command,
                                                             flags, message):
    off, diag = record_pair
    args = ["--element", "0,1"] if command == "estimate" else ["--quiet"]
    assert run(command, "--record", off, "--diag-record", diag, *args, *flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


@pytest.mark.parametrize("command", ["estimate", "tomography"])
def test_bad_delta_fails_before_any_record_is_read(tmp_path, capsys, command):
    absent = str(tmp_path / "absent.txt")
    args = ["--element", "0,1"] if command == "estimate" else []
    assert run(command, "--record", absent, "--diag-record", absent, *args, "--delta", "7") == 1
    assert capsys.readouterr().err == "error: delta must lie in (0, 1), got 7.0\n"


def test_estimate_prints_a_bound_below_the_float_range(tmp_path, capsys):
    # n*eps^2/2 from 722 (a subnormal float bound) to 125,000 (far below the float range)
    rec = tmp_path / "r.bin"
    assert run("simulate", "--dim", "2", "--state", "mixed", "--copies", "1000000",
               "--record-format", "binary", "--out", str(rec), "--quiet") == 0
    wide = decimal.Context(Emin=decimal.MIN_EMIN)
    for eps in (0.038, 0.05, 0.5):
        assert run("estimate", "--record", str(rec), "--element", "0,1",
                   "--epsilon", str(eps)) == 0
        guarantee = json.loads(capsys.readouterr().out)["estimates"][0]["guarantee"]
        rhs = decimal.Decimal(guarantee.split(" <= ")[1].split(" ")[0])
        assert rhs < decimal.Decimal("1e-308")
        log_bound = wide.ln(4) - wide.divide(10**6 * decimal.Decimal(eps)**2, 2)
        assert 0 <= rhs.ln(wide) - log_bound <= 1e-5  # rounded up to 6 significant digits


def _header(mode, n, d=2):
    return f"#SQST v1 d={d} mode={mode} seed=0 n={n} mub={build_mub(d).fingerprint()}\n"


@pytest.mark.parametrize("binary", [False, True])
def test_zero_copy_records_fail_cleanly(tmp_path, capsys, binary):
    paths = {}
    for mode in ("offdiag", "computational"):
        head = _header(mode, 0).encode("ascii")
        paths[mode] = tmp_path / f"{mode}.rec"
        paths[mode].write_bytes(head.ljust(128, b"\x00") if binary else head)
    off, diag = str(paths["offdiag"]), str(paths["computational"])
    assert run("estimate", "--record", off, "--element", "0,1") == 1
    assert run("tomography", "--record", off, "--diag-record", diag, "--quiet") == 1
    assert capsys.readouterr().err.count("n=0") == 2


@pytest.mark.parametrize("line", ["70000,0", "-1,0"])
def test_out_of_range_text_label_fails_cleanly(tmp_path, capsys, line):
    path = tmp_path / "r.txt"
    path.write_text(_header("offdiag", 1) + line + "\n")
    assert run("estimate", "--record", str(path), "--element", "0,1") == 1
    assert "bad outcome line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tomography


def test_tomography_project_none_flags_non_psd(record_pair, tmp_path, capsys):
    off, diag = record_pair
    out = tmp_path / "t.json"
    assert run("tomography", "--record", off, "--diag-record", diag,
               "--project", "none", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "none"
    assert payload["t_star"] is None
    assert isinstance(payload["psd"], bool)


def test_tomography_maxnorm_beats_clip(record_pair, tmp_path):
    off, diag = record_pair
    results = {}
    truth = parse_state("superposition:0,1,1,1", 2)
    for method in ("maxnorm", "clip"):
        out = tmp_path / f"{method}.json"
        assert run("tomography", "--record", off, "--diag-record", diag,
                   "--project", method, "--truth", "superposition:0,1,1,1",
                   "--out", str(out), "--quiet") == 0
        results[method] = json.loads(out.read_text())
        rows = np.asarray(results[method]["rho"]["rows"])
        error = truth - (rows[..., 0] + 1j * rows[..., 1])
        report = results[method]["error_report"]
        assert report["max_norm"] == pytest.approx(np.abs(error).max(), abs=1e-12)
        assert report["frobenius_norm"] == pytest.approx(np.linalg.norm(error), abs=1e-12)
        assert report["trace_norm"] == pytest.approx(
            np.abs(np.linalg.eigvalsh(error)).sum(), abs=1e-12)
        assert report["chain_passed"]
    assert results["maxnorm"]["t_star"] <= results["clip"]["t_star"] + 1e-6
    assert results["maxnorm"]["converged"] and results["maxnorm"]["gap"] <= 1e-6
    assert results["clip"]["gap"] is None
    for method, payload in results.items():
        rho = np.asarray(payload["rho"]["rows"])
        m = rho[..., 0] + 1j * rho[..., 1]
        assert np.linalg.eigvalsh(m).min() >= -1e-8


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_tomography_rejects_bad_tol(record_pair, tol, capsys):
    off, diag = record_pair
    assert run("tomography", "--record", off, "--diag-record", diag,
               "--tol", tol, "--quiet") == 1
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("project", ["clip", "none"])
@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--no-trace-constraint"]])
def test_tomography_rejects_solver_flags_without_maxnorm(record_pair, project, flag, capsys):
    off, diag = record_pair
    assert run("tomography", "--record", off, "--diag-record", diag,
               "--project", project, *flag, "--quiet") == 1
    assert "maxnorm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce-fig2


def test_fig2_single_trial_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run("reproduce-fig2", "--dims", "2", "--trials", "1",
                   "--epsilon", "0.1", "--delta", "0.1", "--seed", "21",
                   "--out", str(path), "--quiet") == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "d,trial,abs_error"
    assert len(lines) == 2


def test_fig2_refuses_a_repeated_dimension(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run("reproduce-fig2", "--dims", "2,3,2", "--trials", "3", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: dimension 2 is given more than once\n" and not captured.out
    assert not out.exists()


def test_fig2_parallel_matches_serial(tmp_path):
    serial, par = tmp_path / "s.csv", tmp_path / "p.csv"
    common = ["reproduce-fig2", "--dims", "2,3", "--trials", "6", "--epsilon", "0.1",
              "--delta", "0.1", "--seed", "5", "--quiet"]
    assert main(common + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(common + ["--workers", "2", "--out", str(par)]) == 0
    assert serial.read_bytes() == par.read_bytes()


def _loaded_by_cli_import(*packages) -> str:
    """The modules of `packages` that `import sqst.cli` loads, in a fresh interpreter."""
    probe = ("import sys, sqst.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    env = dict(os.environ, PYTHONPATH=str(Path(sqst.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_the_worker_pool_unloaded():
    # the pool is imported by reproduce_fig2 only when workers > 1
    assert _loaded_by_cli_import("concurrent", "multiprocessing") == "[]"


def test_cli_import_leaves_decimal_unloaded():
    # the Hoeffding tail imports it only when a bound is computed
    assert _loaded_by_cli_import("decimal", "_decimal", "_pydecimal") == "[]"


# A child's ru_maxrss starts from its parent's resident size, so the commands are
# started from an interpreter that has not imported numpy, not from this one.
_PEAK_PROBE = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    proc = subprocess.Popen([sys.executable, "-m", "sqst.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    peaks.append((os.waitstatus_to_exitcode(status), usage.ru_maxrss))
print(json.dumps(peaks))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_estimate_and_tomography_peak_memory_is_flat_in_n(tmp_path):
    # simulate in both formats too: it writes each record as it is drawn
    commands = []
    for n in (200_000, 800_000):
        prefix = tmp_path / f"r{n}"
        simulate = ["simulate", "--dim", "64", "--state", "random:4,1", "--copies", str(n),
                    "--povm", "both", "--seed", str(n), "--quiet"]
        records = ["--record", f"{prefix}.offdiag.txt", "--diag-record", f"{prefix}.diag.txt"]
        commands += [[*simulate, "--record-format", "binary", "--out", str(prefix)],
                     [*simulate, "--out", str(prefix)],
                     ["estimate", *records, "--element", "0,1", "--element", "5,5",
                      "--out", str(tmp_path / "e.json")],
                     ["tomography", *records, "--out", str(tmp_path / "t.json"), "--quiet"]]
    env = dict(os.environ, PYTHONPATH=str(Path(sqst.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _PEAK_PROBE, json.dumps(commands)],
                         capture_output=True, text=True, env=env, check=True)
    peaks = json.loads(out.stdout)
    assert [code for code, _ in peaks] == [0] * len(commands)
    for (_, small), (_, large) in zip(peaks[:4], peaks[4:]):
        assert abs(large - small) < 1024  # KiB: 4x the copies, within 1 MiB


def test_fig2_trial_is_the_fold_of_the_counts_of_its_draw():
    d, trial, seed, n = 8, 3, 17, 2 * measurement._BLOCK + 17
    family = build_mub(d)
    rng = philox_rng(seed, d, trial)  # the trial's own draws, in its order
    i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
    amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp /= np.linalg.norm(amp)
    rho = make_pure_superposition(i, j, amp[0], amp[1], d)
    dist = measurement.outcome_distribution(rho, family, PovmMode.OFFDIAG)
    counts = np.bincount(dist.sample_cells(rng, n), minlength=d * d).reshape(d, d)
    fold = estimator.fold(counts, n, eta_table(family, i, j))
    assert _fig2_trial((d, trial, seed, n)) == (d, trial, abs(complex(fold) - complex(rho[i, j])))


def test_fig2_trial_memory_does_not_grow_with_n():
    _fig2_trial((16, 0, 1, 1000))  # builds and caches the family
    peaks = []
    for n in (119_830, 4 * 119_830):
        tracemalloc.start()
        try:
            _fig2_trial((16, 0, 1, n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 16 * 1024  # bytes: 4x the copies, no more memory
    assert peaks[0] < 8 * 8 * measurement._BLOCK  # a few block temporaries, no n-long array


def test_fig2_rejects_bad_dimension():
    assert run("reproduce-fig2", "--dims", "6", "--trials", "1") == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_fig2_rejects_workers_below_one(workers, capsys):
    assert run("reproduce-fig2", "--dims", "2", "--trials", "2", "--workers", workers,
               "--quiet") == 1
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"


def test_fig2_summary_fields():
    n, rows, summaries = reproduce_fig2([2], 10, 0.1, 0.05, seed=3)
    assert n == 877  # ceil(2 * ln(4/0.05) / 0.1^2)
    assert len(rows) == 10
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    assert set(summaries[2]) == {"trials", "n", "frac_exceeding", "three_sigma", "max_error"}


# ---------------------------------------------------------------------------
# bounds-check


def test_bounds_check_passes(capsys):
    assert run("bounds-check", "--dim", "8", "--trials", "50", "--seed", "3") == 0
    assert "pass" in capsys.readouterr().out


def test_bounds_check_d1(capsys):
    assert run("bounds-check", "--dim", "1", "--trials", "20", "--seed", "3") == 0


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_bounds_check_rejects_dimension_below_one(dim, capsys):
    assert run("bounds-check", "--dim", dim, "--trials", "2") == 1
    assert capsys.readouterr().err == f"error: dimension must be >= 1, got {dim}\n"


def test_bounds_check_json(capsys):
    assert run("bounds-check", "--dim", "4", "--trials", "10", "--seed", "1",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["failures"] == 0


# ---------------------------------------------------------------------------
# operator-estimate


@pytest.fixture()
def full_record(tmp_path):
    out = tmp_path / "full.bin"
    assert run("simulate", "--dim", "3", "--state", "random:3,9", "--copies",
               "40000", "--povm", "full", "--seed", "17", "--out", str(out),
               "--record-format", "binary") == 0
    return str(out)


def test_operator_estimate_from_matrix_file(full_record, tmp_path, capsys):
    op = np.diag([1.0, 0.0, -1.0]).astype(complex)
    op_path = tmp_path / "op.json"
    save_matrix(op, op_path)
    assert run("operator-estimate", "--record", full_record,
               "--operator", f"file:{op_path}", "--truth", "random:3,9",
               "--quiet") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abs_error"] <= 0.2
    truth = random_density(3, 3, 9)
    assert payload["truth_mean"]["re"] == pytest.approx(
        np.trace(truth @ op).real, abs=1e-12)


def test_operator_estimate_extreme_manifold(full_record, capsys):
    assert run("operator-estimate", "--record", full_record, "--extreme", "0.25",
               "--phases", "random:5", "--truth", "random:3,9", "--quiet") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_bound"] == 0.25
    assert payload["abs_error"] <= 0.2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_estimate_rejects_non_finite_operator(full_record, tmp_path, capsys, bad):
    op = np.eye(3, dtype=complex)
    op[0, 1] = bad
    op_path = tmp_path / "op.json"
    save_matrix(op, op_path)
    assert run("operator-estimate", "--record", full_record,
               "--operator", f"file:{op_path}", "--quiet") == 1
    captured = capsys.readouterr()
    assert "non-finite" in captured.err and captured.out == ""


def test_operator_estimate_needs_exactly_one_source(full_record):
    assert run("operator-estimate", "--record", full_record) == 1


@pytest.mark.parametrize("flags, message", [
    (["--operator", "file:op.json", "--extreme", "0.2"], "exactly one of --operator or --extreme"),
    ([], "exactly one of --operator or --extreme"),
    (["--operator", "file:op.json", "--phases", "random:1"], "--phases applies only to --extreme"),
    (["--operator", "op.json"], "--operator takes file:PATH"),
])
def test_operator_estimate_checks_its_flags_before_reading_the_record(tmp_path, capsys, flags,
                                                                       message):
    assert run("operator-estimate", "--record", str(tmp_path / "absent.txt"), *flags) == 1
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_operator_estimate_rejects_foreign_family_record(tmp_path, capsys):
    path = tmp_path / "full.txt"
    path.write_text("#SQST v1 d=2 mode=full seed=0 n=3 mub=0123456789abcdef\n1,0\n2,1\n3,0\n")
    assert run("operator-estimate", "--record", str(path), "--extreme", "0.2",
               "--quiet") == 1
    assert "fingerprint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# state spec parsing


def test_parse_state_presets():
    assert np.allclose(parse_state("mixed", 3), np.eye(3) / 3)
    basis = parse_state("basis:2", 4)
    assert basis[2, 2] == 1.0
    sup = parse_state("superposition:0,1,1,1j", 2)
    assert sup[0, 1] == pytest.approx(-0.5j)
    assert np.array_equal(parse_state("random:2,7", 4), random_density(4, 2, 7))


def test_parse_state_file_round_trip(tmp_path):
    rho = make_pure_superposition(0, 2, 1, 1j, 3)
    path = tmp_path / "state.json"
    save_matrix(rho, path)
    assert np.allclose(parse_state(f"file:{path}"), rho)
    with pytest.raises(ValueError, match="dimension"):
        parse_state(f"file:{path}", 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_file_fails_cleanly(tmp_path, capsys, bad):
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = rho[1, 0] = bad
    path = tmp_path / "state.json"
    save_matrix(rho, path)
    assert run("simulate", "--dim", "2", "--state", f"file:{path}", "--copies", "10",
               "--out", str(tmp_path / "r.txt")) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_simulate_takes_every_state_require_density_takes(tmp_path, capsys):
    # a Born weight of a unit vector is at least the smallest eigenvalue, which
    # require_density lets dip to -EIGEN_TOL = -1e-10
    for lowest, code in ((-5e-11, 0), (-2e-10, 1)):
        path = tmp_path / f"state{code}.json"
        save_matrix(np.diag([1 - lowest, lowest]).astype(complex), path)
        assert run("simulate", "--dim", "2", "--state", f"file:{path}", "--copies", "10",
                   "--povm", "both", "--out", str(tmp_path / f"r{code}")) == code
    assert "eigenvalue -2.000e-10 below" in capsys.readouterr().err
    assert (tmp_path / "r0.diag.txt").exists() and not (tmp_path / "r1.diag.txt").exists()


def test_parse_state_rejects_unknown():
    with pytest.raises(ValueError, match="unknown"):
        parse_state("bogus:1", 2)
    with pytest.raises(ValueError, match="dimension"):
        parse_state("mixed")


# ---------------------------------------------------------------------------
# parser


@pytest.mark.parametrize("argv", [
    ["plan", "--epsilon", "0.1", "--delta", "0.1", "--format", "csv"],
    ["simulate", "--dim", "2", "--state", "mixed", "--copies", "10", "--format", "json"],
])
def test_format_only_where_it_is_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


# every option each subcommand accepts: a new flag needs a deliberate edit here
OPTIONS = {
    "plan": "--out --epsilon --delta --elements --general --k-bound --dim --format",
    "mub": "--out --quiet --dim --tol --format",
    "simulate": "--seed --out --quiet --dim --state --copies --epsilon --delta --elements "
                "--povm --record-format --shards",
    "estimate": "--out --quiet --record --diag-record --element --truth --epsilon --delta "
                "--format",
    "tomography": "--out --quiet --record --diag-record --project --tol --no-trace-constraint "
                  "--truth --epsilon --delta",
    "reproduce-fig2": "--seed --out --quiet --dims --trials --epsilon --delta --workers",
    "bounds-check": "--seed --quiet --dim --trials --format",
    "operator-estimate": "--seed --out --quiet --record --operator --extreme --phases --truth",
}


def test_each_subcommand_takes_exactly_its_options():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    taken = {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
             - {"--help"} for name, p in sub.choices.items()}
    assert taken == {name: set(flags.split()) for name, flags in OPTIONS.items()}
    assert sum(map(len, taken.values())) == 65


@pytest.mark.parametrize("argv, flag", [
    (["plan", "--epsilon", "0.1", "--delta", "0.1"], ["--seed", "1"]),
    (["plan", "--epsilon", "0.1", "--delta", "0.1"], ["--quiet"]),
    (["mub", "--dim", "2"], ["--seed", "1"]),
    (["estimate", "--record", "r.txt", "--element", "0,1"], ["--seed", "1"]),
    (["tomography", "--record", "r.txt", "--diag-record", "d.txt"], ["--seed", "1"]),
    (["bounds-check", "--dim", "2", "--trials", "1"], ["--out", "f.json"]),
])
def test_flags_a_subcommand_never_reads_exit_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["plan", "--epsilon", "0.05", "--delta", "0.01", "--k-bound", "0.2", "--dim", "4"],
     ["--k-bound", "--general"]),
    (["plan", "--epsilon", "0.05", "--delta", "0.01", "--dim", "4"], ["--dim", "--general"]),
    (["simulate", "--dim", "2", "--state", "mixed", "--copies", "10", "--elements", "3",
      "--out", "{tmp}/r.txt"], ["--elements", "--copies"]),
    (["operator-estimate", "--record", "{tmp}/full.txt", "--operator", "file:{tmp}/op.json",
      "--phases", "random:1"], ["--phases", "--operator"]),
])
def test_flag_combinations_that_would_drop_a_flag_exit_1(argv, named, tmp_path, capsys):
    assert run("simulate", "--dim", "2", "--state", "mixed", "--copies", "10",
               "--povm", "full", "--out", str(tmp_path / "full.txt")) == 0
    save_matrix(np.eye(2, dtype=complex), tmp_path / "op.json")
    capsys.readouterr()
    assert run(*[a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert all(flag in captured.err for flag in named) and not captured.out
    assert not (tmp_path / "r.txt").exists()


# ---------------------------------------------------------------------------
# no input ends in a traceback


_HUGE = "1" + "0" * 400  # an --elements count past the float range


@pytest.mark.parametrize("argv", [
    ["plan", "--epsilon", "1e-300", "--delta", "0.1"],
    ["plan", "--epsilon", "1e-100", "--delta", "0.1"],  # a count past 2**53: the fix-up never ended
    ["plan", "--epsilon", "inf", "--delta", "0.1"],
    ["simulate", "--dim", "2", "--state", "mixed", "--epsilon", "inf", "--delta", "0.1",
     "--out", "{tmp}/r.txt"],
    ["reproduce-fig2", "--dims", "2", "--trials", "1", "--epsilon", "inf"],
    ["plan", "--epsilon", "0.1", "--delta", "1e-320"],
    ["plan", "--epsilon", "0.1", "--delta", "0.1", "--elements", _HUGE],
    ["simulate", "--dim", "2", "--state", "mixed", "--epsilon", "1e-300", "--delta", "0.1",
     "--out", "{tmp}/r.txt"],
    ["reproduce-fig2", "--dims", "2", "--trials", "1", "--epsilon", "1e-300"],
    *(["plan", "--epsilon", "0.1", "--delta", "0.1", "--general", "--k-bound", k, "--dim", "4"]
      for k in ("inf", "1e200", "nan", "1e-300", "1e-160")),  # the last two: bounds that underflow
    *(["operator-estimate", "--record", "{tmp}/full.txt", "--extreme", k]
      for k in ("nan", "inf", "1e308")),
    ["operator-estimate", "--record", "{tmp}/full.txt", "--extreme", "1",
     "--phases", "file:{tmp}/nan_phases.json"],
    # 6K fits a float, but the 10 copies' weights sum to 10K, which does not
    ["operator-estimate", "--record", "{tmp}/full.txt", "--extreme", "2.5e307",
     "--phases", "file:{tmp}/zero_phases.json"],
    # state presets: a NaN truth printed NaN, an amplitude squared past the float range crashed
    ["estimate", "--record", "{tmp}/off.txt", "--element", "0,1",
     "--truth", "superposition:0,1,nan,1"],
    ["operator-estimate", "--record", "{tmp}/full.txt", "--extreme", "0.2",
     "--truth", "superposition:0,1,nan,0"],
    ["simulate", "--dim", "4", "--state", "superposition:0,1,1e200,1e200", "--copies", "10",
     "--out", "{tmp}/r.txt"],
    ["simulate", "--dim", "2", "--state", "superposition:0,1,1e308+1e308j,0", "--copies", "10",
     "--out", "{tmp}/r.txt"],
    *(["simulate", "--dim", "2", "--state", f"superposition:0,1,{a},0", "--copies", "10",
       "--out", "{tmp}/r.txt"] for a in ("1e-170", "1e-160")),  # |a|^2 underflows
    ["mub", "--dim", "1000000007"],  # refused before it is factored
], ids=lambda argv: " ".join(a for a in argv if "{tmp}" not in a)[:60])
def test_out_of_range_numbers_exit_1_without_a_traceback(argv, tmp_path, capsys):
    for mode in ("full", "offdiag"):
        assert run("simulate", "--dim", "2", "--state", "mixed", "--copies", "10",
                   "--povm", mode, "--out", str(tmp_path / f"{mode[:4]}.txt"), "--quiet") == 0
    (tmp_path / "nan_phases.json").write_text("[[0, 1], [NaN, 0], [0, 0]]")
    (tmp_path / "zero_phases.json").write_text("[[0, 0], [0, 0], [0, 0]]")
    assert run(*[a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "NaN" not in captured.out  # no value printed, NaN least of all
    assert not captured.out and not (tmp_path / "r.txt").exists()
