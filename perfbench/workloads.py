"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs numbered units; unit k depends only on (seed, k), so a traced run can
replay exactly the units an untraced run measured.  A unit reports its items
(a fig-2 trial, a tomography state, a CLI command) with their latencies and
check results, the measurement outcomes it simulated, and its wall time.
Only the program's work is timed; checks run after the timer stops.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import checks
from sqst import cli, estimator, measurement, mub, states, tomography
from sqst.measurement import PovmMode

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """Environment for child interpreters, which import sqst from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Item:
    kind: str
    seconds: float
    ok: bool
    error: str | None = None


@dataclass
class Unit:
    items: list[Item]
    copies: int
    seconds: float


def derive_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and a stream tag."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def attempt(tracer, name: str, fn, *args):
    """Time fn under a span; returns (seconds, result, error text or None)."""
    start = time.perf_counter()
    try:
        seconds, out = tracer.timed(name, fn, *args)
        return seconds, out, None
    except Exception as exc:  # an item that raises is a failed item; the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# fig2: the paper's Fig. 2 Monte Carlo, in process and serial


@dataclass
class Fig2Size:
    dims: tuple = (2, 4, 8, 16)
    trials: int = 100  # per dimension per reproduce_fig2 call
    epsilon: float = 0.01
    delta: float = 0.01
    copies: int = 119_830  # the planner's n for epsilon = delta = 0.01


class Fig2:
    name = "fig2"

    def __init__(self, seed: int, workdir, size: Fig2Size | None = None):
        self.seed = seed
        self.size = size or Fig2Size()

    def setup(self) -> None:
        cli._family.cache_clear()
        for d in self.size.dims:
            cli._family(d)

    def unit(self, k: int, tracer) -> Unit:
        s = self.size
        seed = derive_seed(self.seed, k)
        times = {}
        trial = cli._fig2_trial

        def timed_trial(task):
            tracer.item = f"fig2:{seed}:{task[0]}:{task[1]}"
            seconds, out = tracer.timed("cli.fig2_trial", trial, task)
            times[task[0], task[1]] = seconds
            return out

        cli._fig2_trial = timed_trial
        try:
            tracer.item = f"fig2:{seed}"
            seconds, out, error = attempt(tracer, "cli.reproduce_fig2", cli.reproduce_fig2,
                                          s.dims, s.trials, s.epsilon, s.delta, seed, 1)
        finally:
            cli._fig2_trial = trial
        if error is not None:
            items = [Item("trial", t, False, error) for t in times.values()] or [
                Item("trial", seconds, False, error)]
            return Unit(items, 0, seconds)
        n, rows, _ = out
        failed = checks.fig2_failed_trials(n, rows, s.dims, s.epsilon, s.delta, s.copies)
        items = [Item("trial", times[d, t], (d, t) not in failed) for d, t, _ in rows]
        return Unit(items, n * len(rows), seconds)

    peak_rss_mb = staticmethod(self_peak_rss_mb)


# ---------------------------------------------------------------------------
# tomography: sample, assemble and project many random states, in process


@dataclass
class TomographySize:
    dims: tuple = (4, 8, 16)
    epsilon: float = 0.02
    delta: float = 0.05
    tol: float = 1e-6  # project_psd_maxnorm's default tolerance
    pool: int = 400  # states generated in set-up; units past it reuse them


class Tomography:
    name = "tomography"

    def __init__(self, seed: int, workdir, size: TomographySize | None = None):
        self.seed = seed
        self.size = size or TomographySize()

    def setup(self) -> None:
        s = self.size
        self.families = {d: mub.build_mub(d) for d in s.dims}
        self.copies = {d: estimator.plan_samples(s.epsilon, s.delta, d * d) for d in s.dims}
        self.states = []
        for k in range(s.pool):
            d = s.dims[k % len(s.dims)]
            rank = 1 + (k // len(s.dims)) % d
            self.states.append(states.random_density(d, rank, derive_seed(self.seed, 0, k)))

    def _estimate(self, rho, n: int, k: int):
        family = self.families[rho.shape[0]]
        records = [
            measurement.sample_record(measurement.outcome_distribution(rho, family, mode),
                                      n, derive_seed(self.seed, tag, k))
            for tag, mode in ((1, PovmMode.OFFDIAG), (2, PovmMode.COMPUTATIONAL))
        ]
        linear = tomography.assemble_linear_estimate(*records, family, self.size.epsilon,
                                                     self.size.delta)
        return linear, tomography.project_psd_maxnorm(linear, tol=self.size.tol)

    def unit(self, k: int, tracer) -> Unit:
        s = self.size
        rho = self.states[k % len(self.states)]
        n = self.copies[rho.shape[0]]
        tracer.item = f"tomography:{k}"
        seconds, out, error = attempt(tracer, "bench.item", self._estimate, rho, n, k)
        if error is None:
            linear, result = out
            clip = tomography.project_psd_clip(linear).t_star
            ok = checks.tomography_ok(rho, linear.matrix, result, clip, s.epsilon, s.tol)
        else:
            ok = False
        return Unit([Item("state", seconds, ok, error)], 2 * n, seconds)

    peak_rss_mb = staticmethod(self_peak_rss_mb)


# ---------------------------------------------------------------------------
# cli_pipeline: simulate -> estimate -> tomography as separate processes


@dataclass
class CliSize:
    d: int = 64
    rank: int = 4
    copies: int = 1_000_000  # per record; simulate --povm both writes two
    delta: float = 1e-6  # failure probability of the estimate check, per command
    pool: int = 4  # states written in set-up; passes cycle through them


class CliPipeline:
    name = "cli_pipeline"

    def __init__(self, seed: int, workdir, size: CliSize | None = None):
        self.seed = seed
        self.size = size or CliSize()
        self.workdir = workdir
        self.child_rss_mb = 0.0

    def setup(self) -> None:
        s = self.size
        mub.build_mub(s.d)
        self.truths = []
        for p in range(s.pool):
            rho = states.random_density(s.d, s.rank, derive_seed(self.seed, 0, p))
            states.save_matrix(rho, self.workdir / f"state{p}.json")
            self.truths.append(rho)

    def commands(self, k: int):
        s = self.size
        p = k % s.pool
        state = f"file:{self.workdir / f'state{p}.json'}"
        prefix = self.workdir / f"pass{k}"
        records = ["--record", f"{prefix}.offdiag.txt", "--diag-record", f"{prefix}.diag.txt"]
        elements = [(0, j) for j in range(s.d)]
        radius = checks.hoeffding_radius(s.copies, s.delta, len(elements))
        return p, elements, radius, {
            "simulate": ["simulate", "--dim", str(s.d), "--state", state,
                         "--copies", str(s.copies), "--povm", "both",
                         "--seed", str(derive_seed(self.seed, 1, k)),
                         "--out", str(prefix), "--quiet"],
            "estimate": ["estimate", *records,
                         *[a for i, j in elements for a in ("--element", f"{i},{j}")],
                         "--truth", state, "--epsilon", repr(radius), "--delta", repr(s.delta),
                         "--out", f"{prefix}.estimate.json", "--quiet"],
            "tomography": ["tomography", *records, "--project", "maxnorm", "--truth", state,
                           "--out", f"{prefix}.tomography.json", "--quiet"],
        }

    def _run(self, argv, log) -> int:
        with open(log, "ab") as fh:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
                                    env=child_env())
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode

    def _pass(self, k: int, commands: dict, tracer) -> list:
        log = self.workdir / f"pass{k}.log"
        results = []
        for name, args in commands.items():
            spans = self.workdir / f"pass{k}.{name}.spans.json"
            if tracer.on:
                argv = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"),
                        str(spans), *args]
            else:
                argv = [sys.executable, "-m", "sqst.cli", *args]
            index = len(tracer.spans)
            seconds, rc = tracer.timed(f"cli.{name}", self._run, argv, log)
            if tracer.on and rc == 0:
                with open(spans) as fh:
                    tracer.adopt(json.load(fh), index)
            results.append((name, seconds, rc))
        return results

    def _check(self, name: str, k: int) -> str | None:
        """Why the output of command name in pass k is wrong, or None."""
        p, elements, radius, _ = self.commands(k)
        path = self.workdir / f"pass{k}.{name}.json"
        try:
            if name == "estimate":
                with open(path) as fh:
                    rows = json.load(fh)["estimates"]
                if not checks.estimates_ok(rows, self.truths[p], radius, elements):
                    return f"estimate outside the Hoeffding radius {radius:.3g}"
            elif name == "tomography":
                with open(path) as fh:
                    rho = states.matrix_from_json(json.load(fh)["rho"])
                if not checks.state_ok(rho):
                    return "projected state is not a valid density matrix"
        except (OSError, ValueError, KeyError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def unit(self, k: int, tracer) -> Unit:
        tracer.item = f"cli_pipeline:{k}"
        commands = self.commands(k)[3]
        seconds, results, error = attempt(tracer, "bench.pass", self._pass, k, commands, tracer)
        if error is not None:
            return Unit([Item("pass", seconds, False, error)], 0, seconds)
        items = []
        for name, secs, rc in results:
            problem = f"exit code {rc}" if rc else self._check(name, k)
            items.append(Item(name, secs, problem is None, problem))
        for path in self.workdir.glob(f"pass{k}.*.txt"):
            path.unlink()
        return Unit(items, 2 * self.size.copies, seconds)

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb


WORKLOADS = {w.name: w for w in (Fig2, CliPipeline, Tomography)}


def sizes(workload) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(workload.size).items()}
