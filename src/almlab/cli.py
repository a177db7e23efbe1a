"""Command-line interface: solve, verify, bench.

Exit codes are part of the contract:

* 0  success (solve reached its gradient stop; all certificates passed)
* 1  usage, IO, parse or validation failure (message on stderr)
* 2  solve stopped on an iteration budget (outer or inner)
* 3  divergence (inner iterates blew up, or the dual sequence did)
* 4  at least one certificate failed

The environment variable ALMLAB_SEED, when set, overrides --seed for the
verify and bench subcommands.

The argparse tree is built once per process, on the first call of main, and
reused by every later call.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .atoms import ValidationError
from .bench import FAMILIES, BenchmarkSpec, generate
from .dual import OuterSettings, accelerated_alm, alm
from .fileio import read_problem, write_problem, write_report, write_trace
from .inner import DivergenceDetected
from . import verify as _verify

__all__ = ["main"]

_EXIT_BY_REASON = {
    "grad_stop": 0,
    "max_outer": 2,
    "inner_max_iter": 2,
    "dual_divergence": 3,
}

_CHECK_NAMES = ("smoothness", "gradient_fd", "concavity", "moreau",
                "conjugate", "invariance")

_DEFAULT_CHECKS = "smoothness,gradient_fd,concavity,invariance"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is taken by budget stops
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(text):
    """The argparse type of every float flag and every --lam0 entry."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_list(text):
    return np.array([_finite(t) for t in text.split(",")])


@functools.cache
def _build_parser():
    # shared by every call of main: parse_args keeps no state in the parser
    # and returns a fresh namespace each time
    parser = _Parser(prog="almlab",
                     description="Augmented Lagrangian solver and dual-smoothness "
                                 "certificate toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run dual ascent on a problem file")
    ps.add_argument("problem", help="path to a problem JSON file")
    ps.add_argument("--method", choices=("alm", "accelerated"), default="alm")
    ps.add_argument("--lam0", type=_finite_list, default=None,
                    help="comma-separated initial multiplier (default: zeros)")
    ps.add_argument("--max-outer", type=int, default=500)
    ps.add_argument("--grad-stop", type=_finite, default=1e-6)
    ps.add_argument("--inner-tol0", type=_finite, default=1e-4)
    ps.add_argument("--inner-factor", type=_finite, default=0.5,
                    help="geometric inner-tolerance decay per outer iteration")
    ps.add_argument("--trace-out", default=None, help="write the trace CSV here")
    ps.set_defaults(func=_cmd_solve)

    pv = sub.add_parser("verify", help="run certificate checks on a problem file")
    pv.add_argument("problem", help="path to a problem JSON file")
    pv.add_argument("--checks", default=_DEFAULT_CHECKS,
                    help=f"comma-separated subset of {','.join(_CHECK_NAMES)}")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=200,
                    help="pair budget for smoothness; fd and concavity use a quarter")
    pv.add_argument("--report-out", default=None, help="write the JSON report here")
    pv.add_argument("--inner-tol", type=_finite, default=1e-8)
    pv.add_argument("--radius", type=_finite, default=10.0)
    pv.add_argument("--fd-h", type=_finite, default=1e-4)
    pv.add_argument("--grid-points", type=int, default=None,
                    help="points per axis for the moreau/conjugate grids")
    pv.set_defaults(func=_cmd_verify)

    pb = sub.add_parser("bench", help="generate a benchmark problem file")
    pb.add_argument("--family", required=True, choices=FAMILIES)
    pb.add_argument("--d", type=int, default=None)
    pb.add_argument("--p", type=int, default=None)
    pb.add_argument("--rho", type=_finite, default=1.0)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", default=None,
                    help="output path (default: <instance name>.json)")
    pb.set_defaults(func=_cmd_bench)

    return parser


def _env_seed(seed):
    """ALMLAB_SEED when set, else the --seed value; a nonnegative integer."""
    raw = os.environ.get("ALMLAB_SEED")
    source = "--seed"
    if raw is not None and raw != "":
        source = "ALMLAB_SEED"
        try:
            seed = int(raw)
        except ValueError:
            raise ValidationError(f"ALMLAB_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise ValidationError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def _cmd_solve(args) -> int:
    pb = read_problem(args.problem)
    settings = OuterSettings(
        max_outer=args.max_outer,
        inner_tol0=args.inner_tol0,
        inner_factor=args.inner_factor,
        grad_stop=args.grad_stop,
    )
    method = accelerated_alm if args.method == "accelerated" else alm
    trace = method(pb, lam0=args.lam0, settings=settings)
    last = trace.records[-1]
    print(f"instance {pb.name}: d={pb.d} p={pb.p} rho={pb.rho:g} method={args.method}")
    print(f"terminated: {trace.terminated_reason} after {len(trace.records)} recorded "
          f"iterations; phi_est={last.phi_est:.12g} grad_norm={last.grad_norm:.6g}")
    if args.trace_out is not None:
        write_trace(trace, args.trace_out)
        print(f"trace written to {args.trace_out}")
    return _EXIT_BY_REASON[trace.terminated_reason]


def _run_check(name, pb, args, seed):
    quarter = max(1, args.samples // 4)
    if name == "smoothness":
        return _verify.check_smoothness(pb, radius=args.radius, n_pairs=args.samples,
                                        tol_inner=args.inner_tol, seed=seed)
    if name == "gradient_fd":
        return _verify.check_gradient_fd_sampled(pb, n_samples=quarter,
                                                 radius=args.radius, h=args.fd_h,
                                                 tol_inner=args.inner_tol, seed=seed)
    if name == "concavity":
        return _verify.check_concavity(pb, radius=args.radius, n_pairs=quarter,
                                       tol_inner=args.inner_tol, seed=seed)
    if name == "moreau":
        return _verify.check_moreau_identity(pb, grid_points=args.grid_points,
                                             tol_inner=args.inner_tol)
    if name == "conjugate":
        return _verify.check_conjugate_identity(pb, grid_points=args.grid_points,
                                                tol_inner=args.inner_tol)
    if name == "invariance":
        return _verify.check_gradient_invariance(pb, tol_inner=args.inner_tol,
                                                 seed=seed)
    raise ValidationError(
        f"unknown check {name!r}; available: {', '.join(_CHECK_NAMES)}"
    )


def _cmd_verify(args) -> int:
    pb = read_problem(args.problem)
    seed = _env_seed(args.seed)
    names = [s.strip() for s in args.checks.split(",") if s.strip()]
    if not names:
        raise ValidationError("--checks must name at least one check")
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    certs = []
    for name in names:
        cert = _run_check(name, pb, args, seed)
        certs.append(cert)
        state = "PASS" if cert.passed else "FAIL"
        print(f"{cert.check_name}: {state} worst={cert.worst_violation:.6g} "
              f"threshold={cert.threshold:.6g} samples={cert.num_samples}")
    if args.report_out is not None:
        write_report(certs, args.report_out)
        print(f"report written to {args.report_out}")
    return 0 if all(c.passed for c in certs) else 4


def _cmd_bench(args) -> int:
    seed = _env_seed(args.seed)
    d, p = args.d, args.p
    if args.family == "tight_bound_family":
        d = 1 if d is None else d
        p = 1 if p is None else p
    if d is None or p is None:
        raise ValidationError(f"family {args.family!r} requires --d and --p")
    pb = generate(BenchmarkSpec(family=args.family, d=d, p=p, rho=args.rho, seed=seed))
    out = args.out if args.out is not None else f"{pb.name}.json"
    write_problem(pb, out)
    print(f"wrote {pb.name} to {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DivergenceDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
