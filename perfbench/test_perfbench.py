"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from sqst import states

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "fig2": workloads.Fig2Size(trials=3),
    "tomography": workloads.TomographySize(dims=(2, 4), pool=4),
    "cli_pipeline": workloads.CliSize(d=4, rank=2, copies=2000, pool=1),
}


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_end_to_end(name, trace):
    report = run.run(name, seed=3, seconds=0.01, trace=bool(trace), size=TINY[name])
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert report["env"]["sizes"] and report["env"]["sqst_sources_sha256"]
    assert trace or report["item_p50_ms"] > 0 and report["item_tail_ms"] > 0


def test_traced_self_times_account_for_the_pass():
    report = run.run("cli_pipeline", seed=4, seconds=0.01, trace=True, size=TINY["cli_pipeline"])
    m = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.endswith("busy_s"))
    accounted = layers + m["cli.startup_s"] + m["cli.self_s"] + m["bench.glue_s"]
    assert accounted == pytest.approx(m["bench.traced_pass_s"], rel=1e-9)
    assert m["tomography.project.calls"] == 1 and m["estimator.fold.calls"] == 4
    assert m["measurement.record_write.bytes"] > 0 and m["cli.startup_s"] > 0


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_state_check_rejects_a_non_psd_state():
    good = states.random_density(4, 2, 1)
    assert checks.state_ok(good)
    bad = good - 0.3 * np.eye(4) / 4 + np.diag([0.3, 0, 0, 0])
    assert abs(np.trace(bad) - 1) < 1e-12 and np.linalg.eigvalsh(bad).min() < 0
    assert not checks.state_ok(bad)
    assert not checks.state_ok(np.full((2, 2), np.nan))


def test_estimate_check_rejects_an_estimate_off_by_ten_epsilon():
    truth = states.random_density(4, 2, 2)
    elements = [(0, j) for j in range(4)]
    eps = checks.hoeffding_radius(10_000, 1e-6, len(elements))
    rows = [{"i": i, "j": j, "re": truth[i, j].real, "im": truth[i, j].imag} for i, j in elements]
    assert checks.estimates_ok(rows, truth, eps, elements)
    rows[2] = dict(rows[2], im=rows[2]["im"] + 10 * eps)
    assert not checks.estimates_ok(rows, truth, eps, elements)
    assert not checks.estimates_ok(rows[:3], truth, eps, elements)


def test_fig2_check_fails_bad_trials():
    n, eps, delta = 119_830, 0.01, 0.01
    rows = [(2, t, 0.001) for t in range(50)] + [(4, t, 0.001) for t in range(50)]
    assert checks.fig2_failed_trials(n, rows, (2, 4), eps, delta, n) == set()
    nan = [(2, 0, float("nan"))] + rows[1:]
    assert checks.fig2_failed_trials(n, nan, (2, 4), eps, delta, n) == {(2, t) for t in range(50)}
    far = rows[:50] + [(4, t, 0.5 if t < 5 else 0.001) for t in range(50)]
    assert checks.fig2_failed_trials(n, far, (2, 4), eps, delta, n) == {(4, t) for t in range(50)}
    assert len(checks.fig2_failed_trials(n - 1, rows, (2, 4), eps, delta, n)) == 100


def test_tomography_check_rejects_an_invalid_projection():
    from sqst import tomography

    truth = states.random_density(3, 3, 5)
    linear = truth + 0.01 * np.diag([1.0, -1.0, 0.0])
    result = tomography.project_psd_maxnorm(linear)
    clip = tomography.project_psd_clip(linear).t_star
    assert checks.tomography_ok(truth, linear, result, clip, 0.02, 1e-6)
    bad = tomography.ProjectionResult(rho=linear - 0.5 * np.eye(3) / 3, t_star=result.t_star,
                                      iterations=1, converged=True, method="corrupt")
    assert not checks.tomography_ok(truth, linear, bad, clip, 0.02, 1e-6)
    worse = tomography.ProjectionResult(rho=result.rho, t_star=clip + 1e-3, iterations=1,
                                        converged=True, method="corrupt")
    assert not checks.tomography_ok(truth, linear, worse, clip, 0.02, 1e-6)


def test_cli_pipeline_counts_a_nonzero_exit_as_failed(tmp_path, monkeypatch):
    pipeline = workloads.CliPipeline(6, tmp_path, TINY["cli_pipeline"])
    pipeline.setup()
    commands = pipeline.commands

    def broken(k):
        p, elements, radius, argv = commands(k)
        argv["estimate"] = argv["estimate"] + ["--element", "0,99"]
        return p, elements, radius, argv

    monkeypatch.setattr(pipeline, "commands", broken)
    unit = pipeline.unit(0, run.tracing.Tracer())
    assert [(i.kind, i.ok) for i in unit.items] == [
        ("simulate", True), ("estimate", False), ("tomography", True)]
    assert unit.items[1].error == "exit code 1"


def test_tail_has_ten_samples_beyond_it():
    for n, pct in ((100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)):
        values = list(range(1, n + 1))
        value, got = run.tail(values)
        assert got == pct and sum(v > value for v in values) >= 10
    assert run.tail(list(range(1, 100))) == (50, 50.0)
    assert run.tail([3.0, 1.0, 2.0, 9.0]) == (2.5, 50.0)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig2", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and "correct" not in out.stdout
