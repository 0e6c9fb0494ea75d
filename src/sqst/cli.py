"""Command-line front end for planning, simulating, estimating, and projecting.

Subcommands: plan, mub, simulate, estimate, tomography, reproduce-fig2,
bounds-check, operator-estimate.  All randomness is derived from the seeds in
the flags via keyed PCG64DXSM streams (`states.stream_rng`), so every command is
reproducible from its flags alone, including runs that use a worker pool.  A
command's document goes to stdout (or --out), its summary lines to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import estimator, fields, measurement, mub, states, tomography
from .measurement import PovmMode
from .states import stream_rng

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
    """A summary line, on stderr so that stdout holds only the command's document."""
    if not args.quiet:
        print(message, file=sys.stderr)


def _integers(text: str, what: str, count: int | None = None) -> list:
    """The one grammar of a typed integer list: count (or any number of) comma-separated fields
    of ASCII digits, each an integer >= 0; a fault names what, the flag or preset that carried text."""
    parts = text.split(",")
    if count in (None, len(parts)) and all(p.isascii() and p.isdigit() for p in parts):
        with contextlib.suppress(ValueError):  # more digits than int() converts
            return [int(p) for p in parts]
    need = "one integer" if count == 1 else f"{count or 'one or more'} comma-separated integers"
    raise ValueError(f"{what} needs {need} >= 0 in ASCII digits; got {text!r}")


def parse_state(spec: str, d: int, flag: str = "--state") -> np.ndarray:
    """Build a d-dimensional density matrix from a preset string or a matrix file.

    Presets: ``mixed``, ``basis:i``, ``superposition:i,j,a,b`` (a, b parsed as
    Python complex literals, e.g. ``0.5+0.5j``), ``random:rank[,seed]``, and
    ``file:PATH`` for the JSON matrix format.  A preset's fault names flag, the
    option that carried spec, and the whole spec; a file's fault names its path.
    """
    kind, _, rest = spec.partition(":")
    if kind != "file":
        try:
            return states.require_density(_preset(kind, rest, d))
        except ValueError as exc:
            raise ValueError(f"{flag} {spec!r}: {exc}") from exc
    rho = states.require_density(states.load_matrix(rest))
    if rho.shape[0] != d:
        raise ValueError(f"state file has dimension {rho.shape[0]}, expected {d}")
    return rho


def _preset(kind: str, rest: str, d: int) -> np.ndarray:
    if kind == "mixed":
        return np.eye(d, dtype=np.complex128) / d
    if kind == "basis":
        (i,) = _integers(rest, kind, 1)
        if not 0 <= i < d:
            raise ValueError(f"basis label {i} outside 0..{d - 1}")
        return np.diag(np.eye(1, d, i, dtype=np.complex128)[0])
    if kind == "superposition":
        labels, *amplitudes = rest.rsplit(",", 2)  # no complex literal holds a comma
        if len(amplitudes) != 2:
            raise ValueError("superposition needs i,j,a,b")
        i, j = _integers(labels, kind, 2)
        try:
            a, b = map(complex, amplitudes)
        except ValueError:
            raise ValueError("amplitudes a and b must be Python complex literals, "
                             "e.g. 0.5+0.5j") from None
        return states.make_pure_superposition(i, j, a, b, d)
    if kind == "random":
        rank, seed = [*_integers(rest or "1", kind, 1 + ("," in rest)), 0][:2]
        return states.random_density(d, rank, seed)
    raise ValueError(f"unknown state preset {kind!r}")


@functools.lru_cache(maxsize=None)
def _family(d: int) -> mub.MubFamily:
    return mub.build_mub(d)


def _records(*wanted) -> tuple:
    """(family, records): the record at each (path, mode), or None for no path, each checked against
    the family of the first read (`measurement.check_family`) and, if refused, named by its path."""
    family, records = None, []
    for path, mode in wanted:
        record = measurement.read_record(path) if path else None
        if record is not None:
            family = family or _family(record.d)
            try:
                measurement.check_family(record, family, mode)
            except ValueError as exc:
                raise type(exc)(f"{path}: {exc}") from exc
        records.append(record)
    return family, records


def _complex_pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    general = args.k_bound is not None
    if general != (args.dim is not None):
        raise ValueError("the bounded-operator planner needs both --k-bound and --dim")
    if general:
        n = estimator.plan_samples_general(args.epsilon, args.delta, args.k_bound,
                                           args.dim, args.elements)
        # n is the paper's floor of the inverse, so its bound can sit just above delta
        bound = estimator.bound_text(estimator.hoeffding_tail(
            n, args.epsilon, args.elements, args.k_bound, args.dim),
            f"the bound for n={n} at k_bound={args.k_bound}")
        ineq = (f"4*{args.elements}*exp(-n*{args.epsilon}^2 / "
                f"(2*{args.k_bound}^2*({args.dim}+1)^2)) <= {bound}")
    else:
        n = estimator.plan_samples(args.epsilon, args.delta, args.elements)
        ineq = f"4*{args.elements}*exp(-n*{args.epsilon}^2/2) <= {args.delta}"
    if args.format == "json":
        payload = {"n": n, "epsilon": args.epsilon, "delta": args.delta,
                   "elements": args.elements, "inequality": ineq}
        if general:
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
        _emit(json.dumps({
            "d": report.d,
            "passed": report.passed,
            "max_orthonormality_dev": report.max_orthonormality_dev,
            "max_unbiasedness_dev": report.max_unbiasedness_dev,
            "fingerprint": family.fingerprint(),
        }) + "\n", None)
    elif not args.quiet:
        _emit(f"{report} fingerprint={family.fingerprint()}\n", None)
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
    records = [(measurement.sample_record(measurement.outcome_distribution(rho, family, mode),
                                          n, seed, shards=args.shards), path)
               for mode, seed, path in jobs]  # every header is checked before any file is opened
    for record, path in records:
        measurement.write_record(record, path, binary=binary)  # drawn as it is written
        _say(args, f"wrote {path}: d={args.dim} mode={record.mode.value} n={n} seed={record.seed} "
                   f"mub={record.mub_fingerprint}")
    return 0


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    if not args.element:
        raise ValueError("give at least one --element i,j")
    elements = [_integers(e, "--element", 2) for e in args.element]
    estimator._check_plan_args(args.epsilon, args.delta)  # flags before the records are read
    if not (args.record or args.diag_record):
        raise ValueError("give --record (off-diagonal) and/or --diag-record")
    for i, j in elements:
        if i == j and not args.diag_record:
            raise ValueError(f"element {i},{i} is diagonal: needs --diag-record")
        if i != j and not args.record:
            raise ValueError(f"element {i},{j} is off-diagonal: needs --record")
    family, (offdiag, diag) = _records((args.record, PovmMode.OFFDIAG),
                                       (args.diag_record, PovmMode.COMPUTATIONAL))
    truth = parse_state(args.truth, family.d, "--truth") if args.truth else None

    results = []
    for i, j in elements:
        if i == j:
            est = estimator.estimate_diagonal(diag, family, i, args.epsilon, args.delta)
        else:
            est = estimator.estimate_element(offdiag, family, i, j, args.epsilon, args.delta)
        row = {"i": est.i, "j": est.j, "re": complex(est.value).real,
               "im": complex(est.value).imag, "n": est.n,
               "epsilon": est.epsilon, "delta": est.delta, "guarantee": est.guarantee}
        if truth is not None:
            row["abs_error"] = abs(complex(est.value) - truth[i, j])
        results.append(row)

    if args.format == "csv":
        cols = ["i", "j", "re", "im", "n", "epsilon", "delta"] + ["abs_error"] * (truth is not None)
        lines = [",".join(cols)] + [",".join(_csv_cell(row.get(c)) for c in cols) for row in results]
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
    if args.project != "maxnorm" and args.tol is not None:
        raise ValueError(f"--tol applies only to --project maxnorm, not {args.project}")
    estimator._check_plan_args(args.epsilon, args.delta)  # before the records are read
    family, (offdiag, diag) = _records((args.record, PovmMode.OFFDIAG),
                                       (args.diag_record, PovmMode.COMPUTATIONAL))
    truth = parse_state(args.truth, family.d, "--truth") if args.truth else None  # before the solve
    linear = tomography.assemble_linear_estimate(offdiag, diag, family,
                                                 args.epsilon, args.delta)
    payload = {"d": linear.d}
    if args.project == "none":
        rho = linear.matrix
        psd = states.density_fault(rho) is None  # rho_L's trace is 1 to rounding
        payload.update({"method": "none", "t_star": None, "converged": True, "psd": psd})
        if not psd:
            _say(args, "linear estimate is not positive semidefinite (expected; use --project)")
    else:
        tol = {} if args.tol is None else {"tol": args.tol}
        result = (tomography.project_psd_clip(linear) if args.project == "clip" else
                  tomography.project_psd_maxnorm(linear, **tol))
        rho = result.rho
        payload.update({"method": result.method, "t_star": result.t_star,
                        "converged": result.converged, "iterations": result.iterations,
                        "gap": result.gap})
    payload["rho"] = states.matrix_to_json(rho)
    if truth is not None:
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
    rng = stream_rng(seed, d, trial)
    pair = rng.choice(d, size=2, replace=False)
    i, j = int(pair[0]), int(pair[1])
    amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp /= np.linalg.norm(amp)
    rho = states.make_pure_superposition(i, j, amp[0], amp[1], d)
    dist = measurement.outcome_distribution(rho, family, PovmMode.OFFDIAG)
    counts = measurement.AliasTable(dist.probs).counts(rng, n).reshape(d, d)
    estimate = estimator.fold(counts, n, mub.eta_table(family, i, j))
    return d, trial, abs(complex(estimate) - complex(rho[i, j]))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of the machine's where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def reproduce_fig2(dims, trials: int, epsilon: float, delta: float, seed: int,
                   workers: int = 1):
    """Random superposition states, one off-diagonal estimated per trial.

    Returns (copies per trial, rows sorted by (d, trial), per-dimension
    summaries).  Per-trial streams keyed (seed, d, trial) make the output
    independent of worker scheduling; at most one worker process runs per
    usable CPU, however many are asked for.
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
    workers = min(workers, _usable_cpus())  # a pool starts all its workers at its first task
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
    dims = _integers(args.dims, "--dims")
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
    if args.dim > fields.MAX_FIELD_ORDER:  # before a d x d matrix is drawn
        raise ValueError(f"dimension {args.dim} exceeds maximum {fields.MAX_FIELD_ORDER}")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    worst_slack = math.inf
    failures = 0
    for trial in range(args.trials):
        e = states.random_hermitian(args.dim, stream_rng(args.seed, trial))
        report = states.check_norm_chain(e)
        worst_slack = min(worst_slack, min(report.slacks))
        if not report.passed:
            failures += 1
    monotone_ok = _schatten_monotone_ok(args.dim, args.seed)
    passed = failures == 0 and monotone_ok
    if args.format == "json":
        _emit(json.dumps({"d": args.dim, "trials": args.trials, "failures": failures,
                          "worst_slack": worst_slack, "schatten_monotone": monotone_ok,
                          "passed": passed}) + "\n", None)
    elif not args.quiet:
        status = "pass" if passed else "FAIL"
        _emit(f"d={args.dim} trials={args.trials}: {status} "
              f"(worst slack {worst_slack:.3e}, {failures} chain failures)\n", None)
    return 0 if passed else 1


def _schatten_monotone_ok(d: int, seed: int, trials: int = 50) -> bool:
    ps = [1, 1.5, 2, 4, np.inf]
    for trial in range(trials):
        vals = states.schatten_norms(states.random_hermitian(d, stream_rng(seed, 7000, trial)), ps)
        if any(lo < hi - 1e-10 * max(d, 1) for lo, hi in zip(vals, vals[1:])):
            return False
    return True


# ---------------------------------------------------------------------------
# operator-estimate


def _load_phases(spec: str, d: int) -> np.ndarray:
    kind, _, rest = spec.partition(":")
    if kind == "file":
        phases = states.number_array(states.load_json(rest))
        if phases is None:
            raise ValueError(f"phase file {rest} is not an array of numbers")
        return phases  # extreme_operator checks its shape and values
    if kind == "random":
        rng = stream_rng(*_integers(rest or "0", "--phases", 1), _PHASE_STREAM)
        return rng.uniform(0.0, 2.0 * np.pi, size=(d + 1, d))
    raise ValueError(f"unknown phase spec {spec!r}")


def cmd_operator_estimate(args) -> int:
    if (args.operator is None) == (args.extreme is None):
        raise ValueError("give exactly one of --operator or --extreme")
    if args.operator is not None and args.phases is not None:
        raise ValueError("--phases applies only to --extreme, not to --operator")
    if args.operator is not None and args.operator.partition(":")[0] != "file":
        raise ValueError("--operator takes file:PATH")
    family, (record,) = _records((args.record, PovmMode.FULL))  # after the flag checks: reading is slow
    if args.operator is not None:
        matrix = states.load_matrix(args.operator.partition(":")[2])
    else:
        phases = _load_phases("random" if args.phases is None else args.phases, record.d)
    truth = parse_state(args.truth, record.d, "--truth") if args.truth else None  # before the fold
    if args.operator is not None:
        coeffs = estimator.decompose_operator(matrix, family)
    else:
        coeffs = estimator.extreme_operator(phases, args.extreme, family)
        matrix = coeffs.reconstruct(family)
    value = estimator.fold_mean(record, family, coeffs)
    payload = {"d": record.d, "n": record.n, "k_bound": coeffs.k_bound,
               "estimate": _complex_pair(value), "trace": _complex_pair(coeffs.trace)}
    if truth is not None:
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
    p.add_argument("--k-bound", type=float, default=None,
                   help="coefficient bound K: with --dim, the bounded-operator planner")
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
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per usable CPU; the rows do not depend on it")
    p.set_defaults(func=cmd_reproduce_fig2)

    p = sub.add_parser("bounds-check", parents=[seed, quiet],
                       help="fuzz the norm inequality chain on random Hermitian matrices")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--format", choices=["json"], help="machine-readable output format")
    p.set_defaults(func=cmd_bounds_check)

    p = sub.add_parser("operator-estimate", parents=[out, quiet],
                       help="mean value of an operator from a full-mode record")
    p.add_argument("--record", required=True, help="full-mode record file")
    p.add_argument("--operator", help="file:PATH with the operator matrix")
    p.add_argument("--extreme", type=float, default=None,
                   help="coefficient bound K of an extreme-manifold operator")
    p.add_argument("--phases", default=None,
                   help="file:PATH | random[:seed] (with --extreme; default random:0)")
    p.add_argument("--truth", help="known state for the exact mean")
    p.set_defaults(func=cmd_operator_estimate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # every subcommand that takes it, before any file is opened
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
