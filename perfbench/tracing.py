"""In-memory spans around almlab's public entry points.

The wrappers live here, not in the package: ``installed`` swaps each entry
point for a timing wrapper at the name its caller looks it up under, and puts
the original back on exit.  A span is (id, name, start, end, parent id,
operation id) plus the counts taken at the same boundary (inner iterations,
outer steps, bytes written).

Leaf calls -- prox, value_batch, aug_lagrangian, operator_norm_sq -- run tens
of thousands of times per second and call no other wrapped function, so they
are aggregated into a call count and total time per name instead of being
stored one by one.  Self time of a stored span is its duration minus the
durations of its direct children, leaves included.
"""

import contextlib
import json
import os
import time

import almlab.atoms
import almlab.bench
import almlab.cli
import almlab.dual
import almlab.fileio
import almlab.inner
import almlab.problem
import almlab.verify

# the check functions the CLI calls, by the check name it gives them
_CHECKS = {"check_smoothness": "smoothness",
           "check_gradient_fd_sampled": "gradient_fd",
           "check_concavity": "concavity",
           "check_gradient_invariance": "invariance",
           "check_moreau_identity": "moreau",
           "check_conjugate_identity": "conjugate"}


class Span:
    """One stored span; sid is its index in Tracer.spans."""

    __slots__ = ("sid", "name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "self_s": self.self_s, **self.attrs}


class Tracer:
    """Collects spans for one traced phase; ``op`` tags every span opened
    while it is set with the operation that caused it."""

    def __init__(self):
        self.spans = []
        self.leaves = {}
        self.op = None
        self._stack = []

    def span(self, name, fn, counts=None):
        """Wrap fn in a stored span; counts(result, args) returns the attrs."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sp = Span(len(spans), name, time.perf_counter(),
                      None if parent is None else parent.sid, self.op)
            spans.append(sp)
            stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += sp.duration
            if counts is not None:
                sp.attrs.update(counts(result, args))
            return result

        return wrapper

    def leaf(self, name, fn):
        """Wrap fn in an aggregated leaf: call count and total seconds."""
        stack = self._stack
        agg = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    stack[-1].child_s += dt

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")
            for name, (calls, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "seconds": secs}) + "\n")


def _inner_counts(sol, args):
    return {"iters": sol.iterations, "converged": sol.converged}


def _outer_counts(trace, args):
    return {"outer_steps": len(trace.records)}


def _bytes_counts(result, args):
    return {"bytes": os.path.getsize(args[1])}


def _targets(tracer):
    """(owner, attribute, wrapper factory) for every traced entry point."""
    cf = almlab.atoms.CompositeFunction
    pi = almlab.problem.ProblemInstance
    out = [
        (cf, "prox", lambda f: tracer.leaf("atoms.prox", f)),
        (cf, "value_batch", lambda f: tracer.leaf("atoms.value_batch", f)),
        (pi, "operator_norm_sq", lambda f: tracer.leaf("problem.operator_norm_sq", f)),
        (almlab.inner, "aug_lagrangian", lambda f: tracer.leaf("problem.aug_lagrangian", f)),
        (almlab.dual, "solve_subproblem",
         lambda f: tracer.span("inner.solve_subproblem", f, _inner_counts)),
        (almlab.verify, "solve_subproblem",
         lambda f: tracer.span("inner.solve_subproblem", f, _inner_counts)),
        (almlab.cli, "alm", lambda f: tracer.span("dual.alm", f, _outer_counts)),
        (almlab.cli, "accelerated_alm",
         lambda f: tracer.span("dual.accelerated_alm", f, _outer_counts)),
        (almlab.cli, "read_problem", lambda f: tracer.span("fileio.read_problem", f)),
        (almlab.cli, "write_trace",
         lambda f: tracer.span("fileio.write_trace", f, _bytes_counts)),
        (almlab.cli, "write_report",
         lambda f: tracer.span("fileio.write_report", f, _bytes_counts)),
        (almlab.cli, "main", lambda f: tracer.span("cli.main", f)),
        (almlab.bench, "generate", lambda f: tracer.span("bench.generate", f)),
        (almlab.fileio, "write_problem",
         lambda f: tracer.span("fileio.write_problem", f, _bytes_counts)),
        (almlab.fileio, "read_problem", lambda f: tracer.span("fileio.read_problem", f)),
    ]
    for attr, check in _CHECKS.items():
        out.append((almlab.verify, attr,
                    lambda f, n="verify." + check: tracer.span(n, f)))
    return out


@contextlib.contextmanager
def installed(tracer):
    """Swap every traced entry point for its wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, make in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
