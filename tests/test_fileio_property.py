"""Property tests for the problem parser: a mutated valid document either
parses or raises ValidationError, never another exception, and the CLI
turns every rejection into exit 1 with one error line."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import almlab as al
from almlab.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _base_docs():
    docs = [al.problem_to_dict(al.generate(al.BenchmarkSpec(fam, d, p, 1.0, 3)))
            for fam, d, p in [("qp", 3, 2), ("basis_pursuit", 4, 2), ("nonneg_lp", 3, 1),
                              ("rank_deficient_box", 2, 2), ("tight_bound_family", 1, 1)]]
    # every atom kind once, a box with an open edge and a dense quadratic term
    blocks = [(al.Zero(1), (0, 1)), (al.Quadratic(2.0 * np.eye(2), [0.5, -1.0], 0.3), (1, 3)),
              (al.L1(1, 0.7), (3, 4)), (al.Box([-1.0], [np.inf]), (4, 5)),
              (al.Nonneg(1), (5, 6)), (al.L2Ball(2.0, [0.5]), (6, 7)),
              (al.Linear([1.5]), (7, 8))]
    f = al.CompositeFunction(blocks, smooth_quad=al.SmoothQuadratic(8, np.eye(8), np.ones(8)))
    docs.append(al.problem_to_dict(al.ProblemInstance(
        f, np.ones((1, 8)), np.zeros(1), 2.0, name="all_kinds",
        lambda_star=[0.5], phi_star=1.0)))
    return docs


_BASES = _base_docs()

# integers stay small, or too large for any array or double, so no mutation
# can make the parser allocate a large array
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9),
    st.sampled_from([10**400, -10**400, 2**63]),
    st.floats(), st.sampled_from(["", "1", "nan", "1e400", "zero"]),
    st.lists(st.one_of(st.floats(-5, 5), st.none()), max_size=3),
    st.dictionaries(st.sampled_from(["Q", "q", "c", "lo", "hi", "weight"]),
                    st.integers(0, 2), max_size=2),
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


_OPS = st.sampled_from(("replace", "delete", "append"))


def _mutate(doc, data):
    # an index, not sampled_from: a fresh strategy per draw costs a validation
    paths = list(_paths(doc))
    path = paths[data.draw(st.integers(1, len(paths) - 1))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(_OPS)
    if op == "delete":
        del parent[key]
    elif op == "append" and isinstance(parent[key], list):
        parent[key].append(data.draw(_JUNK))
    else:
        parent[key] = data.draw(_JUNK)


def _mutated_doc(data):
    doc = copy.deepcopy(_BASES[data.draw(st.integers(0, len(_BASES) - 1))])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_parse_or_raise_validation_error(data):
    try:
        al.problem_from_dict(_mutated_doc(data))
    except al.ValidationError:
        pass


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_cli_rejects_mutated_documents_with_one_error_line(tmp_path_factory, data):
    doc = _mutated_doc(data)
    try:
        al.problem_from_dict(doc)
    except al.ValidationError:
        pass
    else:
        return  # parses: no solve runs here
    path = tmp_path_factory.getbasetemp() / "mutated_problem.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["solve", str(path)])
    lines = err.getvalue().splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")
