"""almlab benchmark: one workload in one process, a closed loop with one caller.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 5

A round is the workload's fixed list of in-process `almlab solve` / `almlab
verify` calls (see workloads.py), each issued when the previous one returns.
Rounds repeat for about --seconds, and at least two run.  Every
artifact (trace CSV, report JSON) is hashed with sha256.  All rounds must
produce the same bytes, and so must every run of the workload on the same
source tree: the digests are kept in .perfbench_work and compared across
processes, traced or not.

setup_s is the median wall time of fresh child processes (`run.py
--setup-only`), each of which starts Python, imports almlab and sets the
workload up once.  SETUP_PROBES_FIRST of them run before the first round and
one after every round, so that the median spans the same stretch of time as
the rounds do.  A traced run makes none, as it reports no setup_s.

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
alternates untraced and traced rounds (tracing.py) and reports the per-layer
metrics of the traced ones, per round, plus one traced set-up.  The last line
of stdout is the JSON result; the lines above it list every metric with its
unit.  --all runs every workload in both modes as child processes and prints
all of their metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # one thread is the steady choice for OpenBLAS on small matrices
SETUP_PROBES_FIRST = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_ms": "ms",
                    "call_p90_ms": "ms", "solves_per_s": "1/s", "peak_rss_mb": "MB"}


def _pin_environment():
    os.environ.pop("ALMLAB_SEED", None)  # the CLI lets it override --seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_hash():
    digest = hashlib.sha256()
    for path in sorted((SRC / "almlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "git_commit": _git_commit(), "seed": seed}


class Bench:
    def __init__(self, workload, seed, workdir):
        import almlab.bench
        import almlab.cli
        import almlab.fileio
        self.almlab = almlab
        self.instances, self.calls = wl.build(workload, seed)
        self.workdir = workdir
        self.meta = {}

    def problem_path(self, inst):
        return self.workdir / f"{inst.name}.json"

    def set_up(self):
        """Generate, write and read back every instance; one operator norm each."""
        bench, fileio = self.almlab.bench, self.almlab.fileio
        for inst in self.instances:
            pb = bench.generate(bench.BenchmarkSpec(inst.family, inst.d, inst.p, 1.0, inst.seed))
            path = self.problem_path(inst)
            fileio.write_problem(pb, path)
            fileio.read_problem(path).operator_norm_sq()
            self.meta[inst.name] = {"rho": pb.rho, "phi_star": pb.phi_star}

    def run_round(self, index, tracer=None):
        """Issue every call once; returns {call name: (Outcome, digest)}."""
        results = {}
        for call in self.calls:
            art = self.workdir / call.artifact
            if art.exists():
                art.unlink()
            argv = call.argv(str(self.problem_path(call.instance)), str(art))
            if tracer is not None:
                tracer.op = f"{index}:{call.name}"
            rc, raised = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.almlab.cli.main(argv)
            except Exception:  # a raise is a failed call, not a crashed benchmark
                raised = traceback.format_exc()
            seconds = time.perf_counter() - t0
            if raised is not None or not art.exists():
                out = wl.Outcome(seconds, True, [raised or f"exit {rc} and no artifact"])
                results[call.name] = (out, None)
                continue
            try:
                problems, solves, iters = wl.check_output(call, rc, art,
                                                          self.meta[call.instance.name])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems, solves, iters = [f"malformed artifact: {exc!r}"], 0, 0
            out = wl.Outcome(seconds, rc != 0, problems, solves, iters)
            results[call.name] = (out, hashlib.sha256(art.read_bytes()).hexdigest())
        return results


def setup_probe(workload, seed):
    """Wall time of one child process that imports almlab and sets the
    workload up once: process start to the first call."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--setup-only"], check=True)
    return time.perf_counter() - t0


def end_to_end(setup_s, rounds):
    """wall_s is the mean round time, and call percentiles are taken over
    the distinct calls of a round, each at its mean time across rounds.  On a
    shared host whose speed drifts by tens of percent, the mean across rounds
    gave a lower run-to-run spread than the median, minimum or lower
    quartile."""
    per_call = [1000.0 * statistics.fmean(r[name][0].seconds for r in rounds)
                for name in rounds[0]]
    round_s = [sum(out.seconds for out, _ in r.values()) for r in rounds]
    solves = sum(out.solves for r in rounds for out, _ in r.values())
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(round_s),
        "call_p50_ms": statistics.median(per_call),
        "call_p90_ms": statistics.quantiles(per_call, n=10, method="inclusive")[8],
        "solves_per_s": solves / sum(round_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _check_rounds(rounds, problems):
    """Every round must produce byte-identical artifacts; returns the digests."""
    first = {name: digest for name, (_, digest) in rounds[0].items()}
    for i, r in enumerate(rounds[1:], start=1):
        for name, (_, digest) in r.items():
            if digest != first[name]:
                problems.append(f"round {i}: {name} artifact differs from round 0")
    for r in rounds:
        for name, (out, _) in r.items():
            problems.extend(f"{name}: {p}" for p in out.problems)
    return first


def _check_earlier_runs(workload, digests, problems):
    """The artifacts must match those of the first run of this workload on the
    same source tree in this checkout, whatever its seed or trace mode."""
    path = WORK / f"digests-{workload}-{_source_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for name, digest in digests.items():
            if name in earlier and earlier[name] != digest:
                problems.append(f"{name}: artifact differs from an earlier run ({path.name})")
    else:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
        os.replace(tmp, path)


def setup_only(args):
    workdir = WORK / f"setup-{args.workload}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        Bench(args.workload, args.seed, workdir).set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args):
    import tracing
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = [] if args.trace else [setup_probe(args.workload, args.seed)
                                             for _ in range(SETUP_PROBES_FIRST)]
        bench = Bench(args.workload, args.seed, workdir)
        bench.set_up()
        setup_tracer = tracing.Tracer()
        if args.trace:
            with tracing.installed(setup_tracer):
                setup_tracer.op = "setup"
                bench.set_up()

        plain, traced = [], []  # (round index, results)
        round_tracer = tracing.Tracer()
        index, round_s, measured = 0, 0.0, 0.0
        # stop when another round would end more than half a round past --seconds
        while index < 2 or measured + round_s / 2 < args.seconds:
            start = time.perf_counter()
            if args.trace and len(plain) > len(traced):
                with tracing.installed(round_tracer):
                    traced.append((index, bench.run_round(index, round_tracer)))
            else:
                plain.append((index, bench.run_round(index)))
            round_s = time.perf_counter() - start
            measured += round_s
            index += 1
            if not args.trace:
                setup_times.append(setup_probe(args.workload, args.seed))
        rounds = [r for _, r in plain + traced]
        problems = []
        digests = _check_rounds(rounds, problems)
        _check_earlier_runs(args.workload, digests, problems)
        if args.trace:
            import layers
            metrics = layers.per_layer(setup_tracer, round_tracer, traced, plain, problems)
            setup_tracer.dump(workdir.parent / f"spans-{args.workload}-s{args.seed}-setup.jsonl")
            round_tracer.dump(workdir.parent / f"spans-{args.workload}-s{args.seed}.jsonl")
            units = layers.UNITS
        else:
            metrics = end_to_end(statistics.median(setup_times), [r for _, r in plain])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in rounds)
    failed = sum(out.failed for r in rounds for out, _ in r.values())
    print("env " + json.dumps(environment(args.seed)))
    print("digests " + json.dumps(digests, sort_keys=True))
    print(f"workload {args.workload}: {len(bench.calls)} calls a round; "
          f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            secs = " ".join(f"{sum(o.seconds for o, _ in r.values()):.3f}" for _, r in group)
            print(f"{label} rounds (s): {secs}")
    if setup_times:
        print("set-up probes (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    for problem in problems:
        print("check failed: " + problem)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in both modes, as child processes; exit 1 on any
    incorrect result."""
    status = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"{name} trace={trace}: NOT CORRECT (exit {proc.returncode})")
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if not (SRC / "almlab" / "__init__.py").is_file():
        print(f"error: no almlab source tree at {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    return setup_only(args) if args.setup_only else run(args)


if __name__ == "__main__":
    sys.exit(main())
