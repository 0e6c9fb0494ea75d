"""Acceptance suite: the exit criteria, each at its stated scale and tolerance.

Every test prints one `[criterion N] ... pass/FAIL` line (run pytest with -s
to watch them live).  The heavy Monte Carlo criteria (5 and 8) run at the
full stated scale, so this module takes a few minutes of CPU.
"""

import math
import time

import numpy as np

from oracles import (maxnorm_projection_grid_d2, maxnorm_projection_grid_d3,
                     random_nonpsd_matrix, smallest_n_satisfying)
from sqst.cli import main as cli_main
from sqst.cli import reproduce_fig2
from sqst.estimator import (decompose_operator, extreme_operator, fold_element, fold_mean,
                            plan_samples,
                            plan_samples_general)
from sqst.measurement import PovmMode, outcome_distribution, sample_record
from sqst.mub import build_mub, verify_mub
from sqst.states import (check_norm_chain, max_norm, random_density, random_hermitian,
                         schatten_norms, stream_rng)
from sqst.tomography import (assemble_linear_estimate, project_psd_clip,
                             project_psd_maxnorm)

MUB_DIMS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]
FOLD_DIMS = [2, 3, 4, 5, 8, 9]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_mub_validity():
    start = time.time()
    worst = 0.0
    for d in MUB_DIMS:
        report = verify_mub(build_mub(d), tol=1e-10)
        worst = max(worst, report.max_orthonormality_dev, report.max_unbiasedness_dev)
        if not report.passed:
            _report(1, "MUB validity", False, f"d={d}: {report}")
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "MUB validity", ok,
            f"13 dims, worst dev {worst:.2e}, {elapsed:.1f}s < 10s")


def test_criterion_2_exact_mixture_identity():
    start = time.time()
    worst_elem = 0.0
    worst_mean = 0.0
    for d in FOLD_DIMS:
        family = build_mub(d)
        for rep in range(100):
            rho = random_density(d, 1 + rep % d, seed=10_000 * d + rep)
            dist = outcome_distribution(rho, family, PovmMode.OFFDIAG)
            for i in range(d):
                for j in range(d):
                    if i != j:
                        worst_elem = max(worst_elem,
                                         abs(fold_element(dist, family, i, j) - rho[i, j]))
        rng = stream_rng(2, d)
        for rep in range(50):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = random_density(d, d, seed=20_000 * d + rep)
            dist = outcome_distribution(rho, family, PovmMode.FULL)
            coeffs = decompose_operator(a, family)
            worst_mean = max(worst_mean,
                             abs(fold_mean(dist, family, coeffs) - np.trace(rho @ a)))
    elapsed = time.time() - start
    ok = worst_elem <= 1e-10 and worst_mean <= 1e-10 and elapsed < 30.0
    _report(2, "exact mixture identity", ok,
            f"element dev {worst_elem:.2e}, mean dev {worst_mean:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_3_operator_round_trip():
    start = time.time()
    worst = 0.0
    for d in FOLD_DIMS:
        family = build_mub(d)
        rng = stream_rng(3, d)
        ops = [np.eye(d, dtype=complex)]
        unit = np.zeros((d, d), dtype=complex)
        unit[min(1, d - 1), 0] = 1.0  # matrix unit |j><i|
        ops.append(unit)
        ops += [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(100)]
        for a in ops:
            coeffs = decompose_operator(a, family)
            worst = max(worst, max_norm(coeffs.reconstruct(family) - a))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(3, "operator decomposition round trip", ok,
            f"worst residual {worst:.2e}, {elapsed:.1f}s < 10s")


def test_criterion_4_planner_inversion():
    n = plan_samples(0.01, 0.01, 1)
    bound = lambda m: 4 * math.exp(-m * 0.01**2 / 2)  # noqa: E731
    ok = (n == 119_830 and bound(n) <= 0.01 and bound(n - 1) > 0.01
          and n == smallest_n_satisfying(0.01, 0.01, 1))
    _report(4, "sample planner", ok,
            f"n={n}, bound(n)={bound(n):.6f} <= 0.01 < bound(n-1)={bound(n - 1):.6f}")


def test_criterion_5_fig2_full_scale():
    start = time.time()
    dims = [2, 4, 8, 16]
    n, _, summaries = reproduce_fig2(dims, trials=1000, epsilon=0.01, delta=0.01,
                                     seed=2024, workers=2)
    elapsed = time.time() - start
    ok = n == 119_830 and elapsed < 600.0
    details = [f"copies={n}"]
    for d in dims:
        s = summaries[d]
        ok = ok and s["frac_exceeding"] <= 0.01 and s["three_sigma"] < 0.01
        details.append(f"d={d}: frac={s['frac_exceeding']:.3f} 3sig={s['three_sigma']:.4f}")
    details.append(f"{elapsed:.0f}s < 600s")
    _report(5, "fig-2 reproduction at full scale", ok, ", ".join(details))


def test_criterion_6_norm_chain():
    start = time.time()
    ps = [1, 1.5, 2, 4, np.inf]
    worst_slack = math.inf
    monotone_ok = True
    for d in (2, 4, 8, 16, 32):
        for trial in range(1000):
            e = random_hermitian(d, stream_rng(6, d, trial))
            report = check_norm_chain(e)
            worst_slack = min(worst_slack, min(report.slacks) / d)
            if not report.passed:
                _report(6, "norm chain", False, f"d={d} trial={trial}")
            if trial % 5 == 0:  # Schatten monotonicity on a fifth of the draws
                vals = schatten_norms(e, ps)
                monotone_ok = monotone_ok and all(
                    vals[a] >= vals[a + 1] - 1e-12 * d for a in range(len(ps) - 1))
    elapsed = time.time() - start
    ok = worst_slack >= -1e-12 and monotone_ok and elapsed < 60.0
    _report(6, "norm inequality chain", ok,
            f"5000 matrices, worst slack/d {worst_slack:.2e}, "
            f"monotone={monotone_ok}, {elapsed:.0f}s < 60s")


def test_criterion_7_psd_projection():
    start = time.time()
    valid_ok = True
    oracle_worst = 0.0
    clip_gap_worst = -math.inf

    def check_valid(result):
        nonlocal valid_ok
        eig_min = float(np.linalg.eigvalsh(result.rho).min())
        tr = complex(np.trace(result.rho))
        valid_ok = valid_ok and eig_min >= -1e-8 and abs(tr - 1) <= 1e-8

    for d, oracle in ((2, maxnorm_projection_grid_d2), (3, maxnorm_projection_grid_d3)):
        for case in range(50):
            x = random_nonpsd_matrix(d, 700 + case)
            result = project_psd_maxnorm(x)
            check_valid(result)
            oracle_worst = max(oracle_worst, abs(result.t_star - oracle(x)))
            clip_gap_worst = max(clip_gap_worst,
                                 result.t_star - project_psd_clip(x).t_star)

    unchanged_ok = True
    for seed in range(10):
        d = 2 + seed % 4
        rho = random_density(d, 1 + seed % d, seed=800 + seed)
        result = project_psd_maxnorm(rho)
        check_valid(result)
        unchanged_ok = (unchanged_ok and result.t_star <= 1e-8
                        and max_norm(result.rho - rho) <= 1e-8)

    elapsed = time.time() - start
    ok = (valid_ok and oracle_worst <= 1e-3 and clip_gap_worst <= 1e-6
          and unchanged_ok and elapsed < 120.0)
    _report(7, "max-norm PSD projection", ok,
            f"outputs valid={valid_ok}, worst |t*-grid|={oracle_worst:.2e} <= 1e-3, "
            f"max t*(sdp)-t*(clip)={clip_gap_worst:.2e} <= 1e-6, "
            f"feasible unchanged={unchanged_ok}, {elapsed:.0f}s < 120s")


def test_criterion_8_full_tomography_budget():
    start = time.time()
    d = 4
    family = build_mub(d)
    n = plan_samples(0.02, 0.05, 16)
    assert n == smallest_n_satisfying(0.02, 0.05, 16)
    runs = 200
    eps = 0.02
    nu = math.sqrt(d**3) * eps
    event_hits = 0
    trace_ok = True
    for run in range(runs):
        rho = random_density(d, d, seed=30_000 + run)
        off = sample_record(outcome_distribution(rho, family, PovmMode.OFFDIAG),
                            n, seed=40_000 + run)
        diag = sample_record(outcome_distribution(rho, family, PovmMode.COMPUTATIONAL),
                             n, seed=50_000 + run)
        linear = assemble_linear_estimate(off, diag, family, epsilon=eps, delta=0.05)
        if max_norm(linear.matrix - rho) <= eps:
            event_hits += 1
            projected = project_psd_maxnorm(linear)
            trace_ok = trace_ok and schatten_norms(rho - projected.rho, [1])[0] <= nu
    frac = event_hits / runs
    elapsed = time.time() - start
    ok = frac >= 0.95 and trace_ok and elapsed < 300.0
    _report(8, "full-tomography error budget", ok,
            f"n={n}, max-norm event rate {frac:.3f} >= 0.95, "
            f"trace bound {nu:.3f} held whenever event held: {trace_ok}, "
            f"{elapsed:.0f}s < 300s")


def test_criterion_9_general_operator_estimation():
    start = time.time()
    d = 4
    k = 1.0 / (d + 1)
    n = plan_samples_general(0.05, 0.01, k, d, 1)
    pinned = n == 4_793
    dim_free = {plan_samples_general(0.05, 0.01, 1.0 / (dd + 1), dd, 1)
                for dd in (2, 8, 32)} == {n}
    family = build_mub(d)
    hits = 0
    runs = 200
    for run in range(runs):
        rng = stream_rng(9, run)
        phases = rng.uniform(0, 2 * np.pi, (d + 1, d))
        coeffs = extreme_operator(phases, k, family)
        rho = random_density(d, 1 + run % d, seed=60_000 + run)
        record = sample_record(outcome_distribution(rho, family, PovmMode.FULL),
                               n, seed=70_000 + run)
        truth = complex(np.trace(rho @ coeffs.reconstruct(family)))
        if abs(fold_mean(record, family, coeffs) - truth) <= 0.05:
            hits += 1
    frac = hits / runs
    elapsed = time.time() - start
    ok = pinned and dim_free and frac >= 0.99 and elapsed < 120.0
    _report(9, "general-operator estimation", ok,
            f"n={n} (pinned 4793: {pinned}, dimension-free: {dim_free}), "
            f"hit rate {frac:.3f} >= 0.99, {elapsed:.0f}s < 120s")


def test_criterion_10_determinism(tmp_path):
    sim_ok = True
    for fmt in ("text", "binary"):
        payloads = []
        for rep in range(2):
            out = tmp_path / f"rec-{fmt}-{rep}"
            code = cli_main(["simulate", "--dim", "4", "--state", "random:3,6",
                             "--copies", "5000", "--povm", "both", "--seed", "37",
                             "--out", str(out), "--record-format", fmt,
                             "--shards", "3", "--quiet"])
            assert code == 0
            ext = "bin" if fmt == "binary" else "txt"
            payloads.append((out.with_suffix(f".offdiag.{ext}").read_bytes(),
                             out.with_suffix(f".diag.{ext}").read_bytes()))
        sim_ok = sim_ok and payloads[0] == payloads[1]

    fig2_files = []
    for rep, workers in ((0, "2"), (1, "2"), (2, "1")):
        out = tmp_path / f"fig2-{rep}.csv"
        code = cli_main(["reproduce-fig2", "--dims", "2,3", "--trials", "8",
                         "--epsilon", "0.05", "--delta", "0.05", "--seed", "11",
                         "--workers", workers, "--out", str(out), "--quiet"])
        assert code == 0
        fig2_files.append(out.read_bytes())
    fig2_ok = fig2_files[0] == fig2_files[1] == fig2_files[2]

    ok = sim_ok and fig2_ok
    _report(10, "byte-level determinism", ok,
            f"simulate twice identical: {sim_ok}, "
            f"fig2 parallel/serial identical: {fig2_ok}")
