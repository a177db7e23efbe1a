"""The benchmark's tracer (perfbench/tracing.py) swaps almlab entry points for
timing wrappers, looking each one up in its owner's __dict__.  A rename or a
dropped import there breaks only traced benchmark runs, with a KeyError, so
these tests pin the names."""

import importlib.util
from pathlib import Path

import numpy as np

import almlab as al

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owner():
    tracing = _tracing()
    targets = tracing._targets(tracing.Tracer())
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if attr not in vars(owner)]
    assert not missing
    wrapped = {(owner.__name__, attr) for owner, attr, _ in targets}
    for name in [("almlab.inner", "aug_lagrangian"), ("almlab.dual", "solve_subproblem"),
                 ("almlab.verify", "solve_subproblem"), ("CompositeFunction", "prox"),
                 ("CompositeFunction", "value_batch"),
                 ("ProblemInstance", "operator_norm_sq")]:
        assert name in wrapped


def test_traced_inner_solve_reaches_the_leaf_hooks():
    tracing = _tracing()
    tracer = tracing.Tracer()
    pb = al.generate(al.BenchmarkSpec("nonneg_lp", 6, 3, 1.0, 4))
    with tracing.installed(tracer):
        sol = al.solve_subproblem(pb, np.ones(pb.p), 1e-8)
    # one aug_lagrangian per solve, and at least one prox per iteration
    assert tracer.leaves["problem.aug_lagrangian"][0] == 1
    assert tracer.leaves["atoms.prox"][0] > sol.iterations
    assert tracer.leaves["problem.operator_norm_sq"][0] == 1
