"""Per-layer metrics from the traced phase, and the checks that the wrappers
saw every call.

Additive figures are per round: the traced rounds' totals divided by their
number, plus the one traced set-up (bench.generate and the problem-file
writes and reads happen there).  Distribution figures (iterations per solve)
and ratios are taken over all traced rounds.  A span whose call raised has
no counts and adds none.
"""

import statistics

UNITS = {
    "atoms.prox_calls": "count", "atoms.prox_s": "s", "atoms.value_batch_s": "s",
    "problem.aug_lagrangian_calls": "count", "problem.aug_lagrangian_s": "s",
    "problem.operator_norm_sq_s": "s",
    "inner.solves": "count", "inner.solve_s": "s", "inner.self_s": "s",
    "inner.iters": "count", "inner.us_per_iter": "us",
    "inner.iters_per_solve_p50": "count", "inner.iters_per_solve_max": "count",
    "inner.unconverged": "count",
    "dual.runs": "count", "dual.outer_steps": "count", "dual.solves_per_step": "count",
    "dual.self_s": "s",
    "verify.smoothness_s": "s", "verify.gradient_fd_s": "s", "verify.concavity_s": "s",
    "verify.invariance_s": "s", "verify.moreau_s": "s", "verify.conjugate_s": "s",
    "verify.self_s": "s", "verify.inner_solves": "count",
    "fileio.read_problem_s": "s", "fileio.write_s": "s", "fileio.bytes_written": "B",
    "bench.generate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

_LEAVES = {"atoms.prox": ("atoms.prox_calls", "atoms.prox_s"),
           "atoms.value_batch": (None, "atoms.value_batch_s"),
           "problem.aug_lagrangian": ("problem.aug_lagrangian_calls",
                                      "problem.aug_lagrangian_s"),
           "problem.operator_norm_sq": (None, "problem.operator_norm_sq_s")}


def _totals(tracer):
    """Additive per-layer figures of one tracer."""
    t = dict.fromkeys(UNITS, 0.0)
    for leaf, (calls_key, secs_key) in _LEAVES.items():
        calls, secs = tracer.leaves.get(leaf, (0, 0.0))
        if calls_key:
            t[calls_key] += calls
        t[secs_key] += secs
    for sp in tracer.spans:
        layer, _, what = sp.name.partition(".")
        if layer == "inner":
            t["inner.solves"] += 1
            t["inner.solve_s"] += sp.duration
            t["inner.self_s"] += sp.self_s
            t["inner.iters"] += sp.attrs.get("iters", 0)
            t["inner.unconverged"] += not sp.attrs.get("converged", False)
            if sp.parent is not None and tracer.spans[sp.parent].name.startswith("verify."):
                t["verify.inner_solves"] += 1
        elif layer == "dual":
            t["dual.runs"] += 1
            t["dual.outer_steps"] += sp.attrs.get("outer_steps", 0)
            t["dual.self_s"] += sp.self_s
        elif layer == "verify":
            t[f"verify.{what}_s"] += sp.duration
            t["verify.self_s"] += sp.self_s
        elif layer == "fileio":
            key = "fileio.read_problem_s" if what == "read_problem" else "fileio.write_s"
            t[key] += sp.duration
            t["fileio.bytes_written"] += sp.attrs.get("bytes", 0)
        elif layer == "bench":
            t["bench.generate_s"] += sp.duration
        elif layer == "cli":
            t["cli.self_s"] += sp.self_s
    return t


def _cross_check(tracer, traced, problems):
    """Inner solves the wrappers saw must equal the count each call's output
    implies, and on alm solve calls their iterations must equal the trace
    CSV's inner_iters column."""
    seen = {}
    for sp in tracer.spans:
        if sp.name == "inner.solve_subproblem":
            n, iters = seen.get(sp.op, (0, 0))
            seen[sp.op] = (n + 1, iters + sp.attrs.get("iters", 0))
    for index, results in traced:
        for name, (out, digest) in results.items():
            if digest is None:
                continue
            n, iters = seen.get(f"{index}:{name}", (0, 0))
            if n != out.solves:
                problems.append(f"traced {name}: wrappers saw {n} inner solves, "
                                f"output implies {out.solves}")
            if name.endswith(".alm") and iters != out.iters_logged:
                problems.append(f"traced {name}: wrappers saw {iters} inner iterations, "
                                f"trace CSV logs {out.iters_logged}")


def per_layer(setup_tracer, round_tracer, traced, plain, problems):
    """traced and plain are lists of (round index, results); problems gets
    every failed cross-check."""
    _cross_check(round_tracer, traced, problems)
    n = len(traced)
    per_round = _totals(round_tracer)
    setup = _totals(setup_tracer)
    m = {k: setup[k] + per_round[k] / n for k in UNITS}
    iters = [sp.attrs.get("iters", 0) for sp in round_tracer.spans
             if sp.name == "inner.solve_subproblem"]
    m["inner.us_per_iter"] = 1e6 * per_round["inner.solve_s"] / max(per_round["inner.iters"], 1)
    m["inner.iters_per_solve_p50"] = statistics.median(iters) if iters else 0.0
    m["inner.iters_per_solve_max"] = max(iters, default=0)
    dual_solves = sum(1 for sp in round_tracer.spans
                      if sp.name == "inner.solve_subproblem" and sp.parent is not None
                      and round_tracer.spans[sp.parent].name.startswith("dual."))
    m["dual.solves_per_step"] = dual_solves / max(per_round["dual.outer_steps"], 1)

    def round_s(results):
        return sum(out.seconds for out, _ in results.values())

    m["trace.overhead_frac"] = (statistics.median(round_s(r) for _, r in traced)
                                / statistics.median(round_s(r) for _, r in plain) - 1.0)
    return m
