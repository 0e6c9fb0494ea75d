"""Command-line front end for planning, simulating, estimating, and projecting.

Subcommands: plan, mub, simulate, estimate, tomography, reproduce-fig2,
bounds-check, operator-estimate.  All randomness is derived from --seed via
counter-based Philox streams, so every command is reproducible from its flags
alone, including runs that use a worker pool.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import estimator, measurement, mub, states, tomography
from .measurement import PovmMode
from .states import philox_rng

_PHASE_STREAM = 101  # stream tag for random extreme-operator phases
_DIAG_STREAM_OFFSET = 1  # seed offset for the computational record in --povm both


# ---------------------------------------------------------------------------
# shared helpers


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def parse_state(spec: str, d: int | None = None) -> np.ndarray:
    """Build a density matrix from a preset string or a matrix file.

    Presets: ``mixed``, ``basis:i``, ``superposition:i,j,a,b`` (a, b parsed as
    Python complex literals, e.g. ``0.5+0.5j``), ``random:rank[,seed]``, and
    ``file:PATH`` for the JSON matrix format.
    """
    kind, _, rest = spec.partition(":")
    if kind == "file":
        rho = states.load_matrix(rest)
    elif d is None:
        raise ValueError(f"state preset {spec!r} needs an explicit dimension")
    elif kind == "mixed":
        rho = np.eye(d, dtype=np.complex128) / d
    elif kind == "basis":
        i = int(rest)
        if not 0 <= i < d:
            raise ValueError(f"basis label {i} outside 0..{d - 1}")
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[i, i] = 1.0
    elif kind == "superposition":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError("superposition preset needs i,j,a,b")
        i, j = int(parts[0]), int(parts[1])
        rho = states.make_pure_superposition(i, j, complex(parts[2]), complex(parts[3]), d)
    elif kind == "random":
        parts = rest.split(",") if rest else ["1"]
        rank = int(parts[0])
        seed = int(parts[1]) if len(parts) > 1 else 0
        rho = states.random_density(d, rank, seed)
    else:
        raise ValueError(f"unknown state spec {spec!r}")
    rho = states.require_density(rho)
    if d is not None and rho.shape[0] != d:
        raise ValueError(f"state file has dimension {rho.shape[0]}, expected {d}")
    return rho


@functools.lru_cache(maxsize=None)
def _family(d: int) -> mub.MubFamily:
    return mub.build_mub(d)


def _complex_pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    if args.general:
        if args.k_bound is None or args.dim is None:
            raise ValueError("--general needs --k-bound and --dim")
        n = estimator.plan_samples_general(args.epsilon, args.delta, args.k_bound,
                                           args.dim, args.elements)
        # n is the paper's floor of the inverse, so its bound can sit just above delta
        bound = estimator.bound_text(estimator.hoeffding_tail(
            n, args.epsilon, args.elements, args.k_bound, args.dim),
            f"the bound for n={n} at k_bound={args.k_bound}")
        ineq = (f"4*{args.elements}*exp(-n*{args.epsilon}^2 / "
                f"(2*{args.k_bound}^2*({args.dim}+1)^2)) <= {bound}")
    else:
        if args.k_bound is not None or args.dim is not None:
            raise ValueError("--k-bound and --dim apply only with --general")
        n = estimator.plan_samples(args.epsilon, args.delta, args.elements)
        ineq = f"4*{args.elements}*exp(-n*{args.epsilon}^2/2) <= {args.delta}"
    if args.format == "json":
        payload = {"n": n, "epsilon": args.epsilon, "delta": args.delta,
                   "elements": args.elements, "inequality": ineq}
        if args.general:
            payload.update({"k_bound": args.k_bound, "d": args.dim})
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        _emit(f"n = {n}\ninverts: {ineq}\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# mub


def cmd_mub(args) -> int:
    family = _family(args.dim)
    report = mub.verify_mub(family, args.tol)
    if args.out:
        mub.save_mub(family, args.out)
        _say(args, f"wrote {args.out}")
    if args.format == "json":
        print(json.dumps({
            "d": report.d,
            "passed": report.passed,
            "max_orthonormality_dev": report.max_orthonormality_dev,
            "max_unbiasedness_dev": report.max_unbiasedness_dev,
            "fingerprint": family.fingerprint(),
        }))
    else:
        _say(args, f"{report} fingerprint={family.fingerprint()}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# simulate


def _planned_copies(args) -> int:
    have_copies = args.copies is not None
    have_planner = args.epsilon is not None or args.delta is not None
    if have_copies == have_planner:
        raise ValueError("give exactly one of --copies or the planner pair --epsilon/--delta")
    if have_copies:
        if args.elements is not None:
            raise ValueError("--elements applies only to the planner pair --epsilon/--delta, "
                             "not to --copies")
        return args.copies
    if args.epsilon is None or args.delta is None:
        raise ValueError("planner mode needs both --epsilon and --delta")
    return estimator.plan_samples(args.epsilon, args.delta,
                                  1 if args.elements is None else args.elements)


def cmd_simulate(args) -> int:
    family = _family(args.dim)
    rho = parse_state(args.state, args.dim)
    n = _planned_copies(args)
    binary = args.record_format == "binary"
    ext = "bin" if binary else "txt"
    if args.povm == "both":
        if not args.out:
            raise ValueError("--povm both needs --out as a path prefix")
        jobs = [
            (PovmMode.OFFDIAG, args.seed, f"{args.out}.offdiag.{ext}"),
            (PovmMode.COMPUTATIONAL, args.seed + _DIAG_STREAM_OFFSET, f"{args.out}.diag.{ext}"),
        ]
    else:
        if not args.out:
            raise ValueError("simulate needs --out")
        jobs = [(PovmMode(args.povm), args.seed, args.out)]
    for mode, seed, path in jobs:
        dist = measurement.outcome_distribution(rho, family, mode)
        record = measurement.sample_record(dist, n, seed, shards=args.shards)
        measurement.write_record(record, path, binary=binary)  # drawn as it is written
        _say(args, f"wrote {path}: d={args.dim} mode={mode.value} n={n} seed={seed} "
                   f"mub={record.mub_fingerprint}")
    return 0


# ---------------------------------------------------------------------------
# estimate


def _parse_element(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"element {text!r} is not of the form i,j")
    return int(parts[0]), int(parts[1])


def cmd_estimate(args) -> int:
    if not args.element:
        raise ValueError("give at least one --element i,j")
    elements = [_parse_element(e) for e in args.element]
    estimator._check_plan_args(args.epsilon, args.delta)  # before the records are read
    offdiag = diag = None
    if args.record:
        offdiag = measurement.read_record(args.record)
    if args.diag_record:
        diag = measurement.read_record(args.diag_record)
    some = offdiag or diag
    if some is None:
        raise ValueError("give --record (off-diagonal) and/or --diag-record")
    family = _family(some.d)
    truth = parse_state(args.truth, some.d) if args.truth else None

    results = []
    for i, j in elements:
        if i == j:
            if diag is None:
                raise ValueError(f"element {i},{i} is diagonal: needs --diag-record")
            est = estimator.estimate_diagonal(diag, family, i, args.epsilon, args.delta)
        else:
            if offdiag is None:
                raise ValueError(f"element {i},{j} is off-diagonal: needs --record")
            est = estimator.estimate_element(offdiag, family, i, j, args.epsilon, args.delta)
        row = {"i": est.i, "j": est.j, "re": complex(est.value).real,
               "im": complex(est.value).imag, "n": est.n,
               "epsilon": est.epsilon, "delta": est.delta, "guarantee": est.guarantee}
        if truth is not None:
            row["abs_error"] = abs(complex(est.value) - truth[i, j])
        results.append(row)

    if args.format == "csv":
        cols = ["i", "j", "re", "im", "n", "epsilon", "delta"]
        if truth is not None:
            cols.append("abs_error")
        lines = [",".join(cols)]
        for row in results:
            lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps({"estimates": results}) + "\n", args.out)
    return 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


# ---------------------------------------------------------------------------
# tomography


def cmd_tomography(args) -> int:
    if args.project != "maxnorm" and (args.tol is not None or args.no_trace_constraint):
        raise ValueError(f"--tol and --no-trace-constraint apply only to --project maxnorm, "
                         f"not {args.project}")
    estimator._check_plan_args(args.epsilon, args.delta)  # before the records are read
    offdiag = measurement.read_record(args.record)
    diag = measurement.read_record(args.diag_record)
    family = _family(offdiag.d)
    linear = tomography.assemble_linear_estimate(offdiag, diag, family,
                                                 args.epsilon, args.delta)
    payload = {"d": linear.d}
    if args.project == "none":
        rho = linear.matrix
        psd = states.density_fault(rho, enforce_trace=False) is None
        payload.update({"method": "none", "t_star": None, "converged": True, "psd": psd})
        if not psd:
            _say(args, "linear estimate is not positive semidefinite (expected; use --project)")
    else:
        tol = {} if args.tol is None else {"tol": args.tol}
        result = (tomography.project_psd_clip(linear) if args.project == "clip" else
                  tomography.project_psd_maxnorm(linear, enforce_trace=not args.no_trace_constraint,
                                                 **tol))
        rho = result.rho
        payload.update({"method": result.method, "t_star": result.t_star,
                        "converged": result.converged, "iterations": result.iterations,
                        "gap": result.gap})
    payload["rho"] = states.matrix_to_json(rho)
    if args.truth:
        truth = parse_state(args.truth, linear.d)
        report = tomography.error_report(truth, rho)
        payload["error_report"] = {"max_norm": report.max_norm,
                                   "frobenius_norm": report.frobenius_norm,
                                   "trace_norm": report.trace_norm,
                                   "chain_passed": report.passed}
    _emit(json.dumps(payload) + "\n", args.out)
    if args.project != "none":
        _say(args, f"projected d={linear.d} method={payload['method']} "
                   f"t_star={payload['t_star']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# reproduce-fig2


def _fig2_trial(task) -> tuple:
    d, trial, seed, n = task
    family = _family(d)
    rng = philox_rng(seed, d, trial)
    pair = rng.choice(d, size=2, replace=False)
    i, j = int(pair[0]), int(pair[1])
    amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp /= np.linalg.norm(amp)
    rho = states.make_pure_superposition(i, j, amp[0], amp[1], d)
    dist = measurement.outcome_distribution(rho, family, PovmMode.OFFDIAG)
    counts = measurement.count_cells(dist.alias.blocks(rng, n), d * d).reshape(d, d)
    estimate = estimator.fold(counts, n, mub.eta_table(family, i, j))
    return d, trial, abs(complex(estimate) - complex(rho[i, j]))


def reproduce_fig2(dims, trials: int, epsilon: float, delta: float, seed: int,
                   workers: int = 1):
    """Random superposition states, one off-diagonal estimated per trial.

    Returns (copies per trial, rows sorted by (d, trial), per-dimension
    summaries).  Per-trial Philox streams (seed, d, trial) make the output
    independent of worker scheduling.
    """
    for k, d in enumerate(dims):  # validate before spawning workers
        if d in dims[:k]:
            raise ValueError(f"dimension {d} is given more than once")
        _family(d)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = estimator.plan_samples(epsilon, delta, 1)
    tasks = [(d, t, seed, n) for d in dims for t in range(trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only here: ~25 ms of start-up

        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_fig2_trial, tasks, chunksize=chunk))
    else:
        rows = [_fig2_trial(t) for t in tasks]
    rows.sort(key=lambda r: (r[0], r[1]))
    summaries = {}
    for d in dims:
        errs = np.array([r[2] for r in rows if r[0] == d])
        summaries[d] = {
            "trials": int(len(errs)),
            "n": n,
            "frac_exceeding": float((errs > epsilon).mean()),
            "three_sigma": float(3.0 * errs.std()),
            "max_error": float(errs.max()),
        }
    return n, rows, summaries


def cmd_reproduce_fig2(args) -> int:
    dims = [int(x) for x in args.dims.split(",")]
    n, rows, summaries = reproduce_fig2(dims, args.trials, args.epsilon, args.delta,
                                        args.seed, args.workers)
    lines = ["d,trial,abs_error"]
    lines += [f"{d},{t},{err:.12e}" for d, t, err in rows]
    _emit("\n".join(lines) + "\n", args.out)
    for d in dims:
        s = summaries[d]
        _say(args, f"d={d}: trials={s['trials']} copies={n} "
                   f"frac(|error|>{args.epsilon})={s['frac_exceeding']:.4f} "
                   f"3sigma={s['three_sigma']:.6f} max={s['max_error']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# bounds-check


def cmd_bounds_check(args) -> int:
    if args.dim < 1:
        raise ValueError(f"dimension must be >= 1, got {args.dim}")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    worst_slack = math.inf
    failures = 0
    for trial in range(args.trials):
        e = states.random_hermitian(args.dim, philox_rng(args.seed, trial))
        report = states.check_norm_chain(e)
        worst_slack = min(worst_slack, min(report.slacks))
        if not report.passed:
            failures += 1
    monotone_ok = _schatten_monotone_ok(args.dim, args.seed)
    passed = failures == 0 and monotone_ok
    if args.format == "json":
        print(json.dumps({"d": args.dim, "trials": args.trials, "failures": failures,
                          "worst_slack": worst_slack, "schatten_monotone": monotone_ok,
                          "passed": passed}))
    else:
        status = "pass" if passed else "FAIL"
        _say(args, f"d={args.dim} trials={args.trials}: {status} "
                   f"(worst slack {worst_slack:.3e}, {failures} chain failures)")
    return 0 if passed else 1


def _schatten_monotone_ok(d: int, seed: int, trials: int = 50) -> bool:
    ps = [1, 1.5, 2, 4, np.inf]
    for trial in range(trials):
        e = states.random_hermitian(d, philox_rng(seed, 7000, trial))
        vals = [states.schatten_norm(e, p) for p in ps]
        if any(vals[a] < vals[a + 1] - 1e-10 * max(d, 1) for a in range(len(ps) - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# operator-estimate


def _load_phases(spec: str, d: int, seed: int) -> np.ndarray:
    kind, _, rest = spec.partition(":")
    if kind == "file":
        with open(rest) as fh:
            return np.asarray(json.load(fh), dtype=np.float64)  # extreme_operator checks it
    if kind == "random":
        phase_seed = int(rest) if rest else seed
        rng = philox_rng(phase_seed, _PHASE_STREAM)
        return rng.uniform(0.0, 2.0 * np.pi, size=(d + 1, d))
    raise ValueError(f"unknown phase spec {spec!r}")


def cmd_operator_estimate(args) -> int:
    if (args.operator is None) == (args.extreme is None):
        raise ValueError("give exactly one of --operator or --extreme")
    if args.operator is not None and args.phases is not None:
        raise ValueError("--phases applies only to --extreme, not to --operator")
    if args.operator is not None and args.operator.partition(":")[0] != "file":
        raise ValueError("--operator takes file:PATH")
    record = measurement.read_record(args.record)  # after the flag checks: reading is slow
    family = _family(record.d)
    if args.operator is not None:
        matrix = states.load_matrix(args.operator.partition(":")[2])
        coeffs = estimator.decompose_operator(matrix, family)
    else:
        phases = _load_phases("random" if args.phases is None else args.phases, record.d,
                              args.seed)
        coeffs = estimator.extreme_operator(phases, args.extreme, family)
        matrix = coeffs.reconstruct(family)
    value = estimator.fold_mean(record, family, coeffs)
    payload = {"d": record.d, "n": record.n, "k_bound": coeffs.k_bound,
               "estimate": _complex_pair(value), "trace": _complex_pair(coeffs.trace)}
    if args.truth:
        truth = parse_state(args.truth, record.d)
        exact = complex(np.trace(truth @ matrix))
        payload["truth_mean"] = _complex_pair(exact)
        payload["abs_error"] = abs(value - exact)
    _emit(json.dumps(payload) + "\n", args.out)
    _say(args, f"mean estimate {value.real:+.6f}{value.imag:+.6f}j from n={record.n}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    # shared flags; each subcommand takes only those its handler reads
    seed, out, quiet = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    out.add_argument("--out", help="write primary output to this path")
    quiet.add_argument("--quiet", action="store_true", help="suppress summary lines")

    parser = argparse.ArgumentParser(
        prog="sqst",
        description="Selective quantum state tomography simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[out], help="sample-size planner")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--elements", type=int, default=1)
    p.add_argument("--general", action="store_true",
                   help="bounded-operator planner (needs --k-bound and --dim)")
    p.add_argument("--k-bound", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--format", choices=["json"], help="machine-readable output format")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("mub", parents=[out, quiet], help="build and verify a basis family")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=["json"], help="machine-readable output format")
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("simulate", parents=[seed, out, quiet], help="sample measurement records")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--state", required=True,
                   help="mixed | basis:i | superposition:i,j,a,b | random:rank[,seed] | file:PATH")
    p.add_argument("--copies", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--elements", type=int, default=None, help="planner only (default 1)")
    p.add_argument("--povm", choices=["offdiag", "full", "computational", "both"],
                   default="offdiag")
    p.add_argument("--record-format", choices=["text", "binary"], default="text")
    p.add_argument("--shards", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    # --quiet is read by no estimate output; scripts pass it, so it stays accepted
    p = sub.add_parser("estimate", parents=[out, quiet], help="estimate elements from records")
    p.add_argument("--record", help="off-diagonal (offdiag-mode) record file")
    p.add_argument("--diag-record", help="computational-mode record file")
    p.add_argument("--element", action="append", default=[], help="i,j (repeatable)")
    p.add_argument("--truth", help="known state for error columns")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json",
                   help="output format (default json)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tomography", parents=[out, quiet],
                       help="assemble and project a full state")
    p.add_argument("--record", required=True, help="off-diagonal record file")
    p.add_argument("--diag-record", required=True, help="computational record file")
    p.add_argument("--project", choices=["maxnorm", "clip", "none"], default="maxnorm")
    p.add_argument("--tol", type=float, default=None,
                   help="certified max-norm gap (maxnorm only; default 1e-6)")
    p.add_argument("--no-trace-constraint", action="store_true",
                   help="project onto the PSD cone only (drop tr=1)")
    p.add_argument("--truth", help="known state for the error report")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("reproduce-fig2", parents=[seed, out, quiet],
                       help="error histograms for random superposition states")
    p.add_argument("--dims", default="2,4,8,16", help="comma-separated prime powers")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_reproduce_fig2)

    p = sub.add_parser("bounds-check", parents=[seed, quiet],
                       help="fuzz the norm inequality chain on random Hermitian matrices")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--format", choices=["json"], help="machine-readable output format")
    p.set_defaults(func=cmd_bounds_check)

    p = sub.add_parser("operator-estimate", parents=[seed, out, quiet],
                       help="mean value of an operator from a full-mode record")
    p.add_argument("--record", required=True, help="full-mode record file")
    p.add_argument("--operator", help="file:PATH with the operator matrix")
    p.add_argument("--extreme", type=float, default=None,
                   help="coefficient bound K of an extreme-manifold operator")
    p.add_argument("--phases", default=None,
                   help="file:PATH | random[:seed] (with --extreme; default random)")
    p.add_argument("--truth", help="known state for the exact mean")
    p.set_defaults(func=cmd_operator_estimate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
