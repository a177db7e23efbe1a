"""Problem, trace and certificate serialization.

Formats:

* Problem files are JSON objects {name, d, p, rho, atoms, A, b} with optional
  smooth_quad, witness_x0, lambda_star, phi_star.  Each atom record is
  {kind, params, range}; range is a 0-based half-open [lo, hi) coordinate
  window and the atom kinds are zero, quadratic, l1, box, nonneg, l2ball,
  linear.  JSON has no Infinity literal, so unbounded box edges are null.
* Traces are CSV with the exact header ``k,phi_est,grad_norm,primal_obj,
  inner_iters`` and floats printed with 17 significant digits, which
  round-trips doubles losslessly.
* Certificate reports are JSON arrays of certificate records (the dataclass
  field passed serializes under the key "pass").

Serialization is deterministic: identical objects produce identical bytes.
"""

import csv
import json
import math

import numpy as np

from .atoms import (
    Atom,
    Box,
    CompositeFunction,
    L1,
    L2Ball,
    Linear,
    Nonneg,
    Quadratic,
    SmoothQuadratic,
    ValidationError,
    Zero,
)
from .dual import SolveTrace
from .problem import ProblemInstance
from .verify import Certificate

__all__ = [
    "problem_to_dict", "problem_from_dict",
    "write_problem", "read_problem",
    "write_trace", "read_trace",
    "write_report", "read_report",
    "certificate_to_dict",
    "TRACE_HEADER",
]

TRACE_HEADER = ("k", "phi_est", "grad_norm", "primal_obj", "inner_iters")


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _flist(v):
    return [float(t) for t in np.asarray(v, dtype=float)]


def _fmat(M):
    return [_flist(row) for row in np.asarray(M, dtype=float)]


def _bound_list(v):
    out = []
    for t in np.asarray(v, dtype=float):
        out.append(None if math.isinf(t) else float(t))
    return out


def _is_int(value):
    """A JSON integer; bool is an int subclass, so it is excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value):
    """value as a float.  float() would also convert numeric strings and
    booleans, so those raise TypeError, as every other non-number does.  An
    integer beyond the double range raises ValueError: it has no finite float."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer beyond the float range; every number must be "
                         "finite") from None


def _numbers(value):
    """value as a float array; every entry must pass :func:`_number`.  Plain
    floats, the bulk of every file, skip the call."""
    stack = [value]
    while stack:
        t = stack.pop()
        if isinstance(t, list):
            stack.extend(u for u in t if type(u) is not float)
        else:
            _number(t)
    return np.asarray(value, dtype=float)


def _bound_array(lst, fill, name):
    if not isinstance(lst, list):
        raise ValidationError(f"{name} must be a list")
    out = np.empty(len(lst))
    for i, t in enumerate(lst):
        if t is None:
            out[i] = fill
        elif _is_int(t) or isinstance(t, float):
            try:
                out[i] = _number(t)
            except ValueError as exc:
                raise ValidationError(f"{name}[{i}]: {exc}") from None
        else:
            raise ValidationError(f"{name}[{i}] must be a number or null")
    return out


def _atom_to_dict(atom: Atom) -> dict:
    if isinstance(atom, Zero):
        return {"kind": "zero", "params": {}}
    if isinstance(atom, Quadratic):
        return {"kind": "quadratic",
                "params": {"Q": _fmat(atom.Q), "q": _flist(atom.q),
                           "c": float(atom.c)}}
    if isinstance(atom, L1):
        return {"kind": "l1", "params": {"weight": float(atom.weight)}}
    if isinstance(atom, Nonneg):  # a Box subclass, so it must be tested first
        return {"kind": "nonneg", "params": {}}
    if isinstance(atom, Box):
        return {"kind": "box", "params": {"lo": _bound_list(atom.lo),
                                          "hi": _bound_list(atom.hi)}}
    if isinstance(atom, L2Ball):
        return {"kind": "l2ball", "params": {"radius": float(atom.radius),
                                             "center": _flist(atom.center)}}
    if isinstance(atom, Linear):
        return {"kind": "linear", "params": {"c": _flist(atom.c)}}
    raise ValidationError(f"cannot serialize atom type {type(atom).__name__}")


def _atom_from_dict(rec, n):
    kind = rec.get("kind")
    params = rec.get("params", {})
    if kind == "zero":
        return Zero(n)
    if kind == "quadratic":
        return Quadratic(_numbers(params["Q"]), _numbers(params["q"]),
                         _number(params.get("c", 0.0)))
    if kind == "l1":
        return L1(n, _number(params.get("weight", 1.0)))
    if kind == "box":
        return Box(_bound_array(params["lo"], -np.inf, "box lo"),
                   _bound_array(params["hi"], np.inf, "box hi"))
    if kind == "nonneg":
        return Nonneg(n)
    if kind == "l2ball":
        return L2Ball(_number(params["radius"]), _numbers(params["center"]))
    if kind == "linear":
        return Linear(_numbers(params["c"]))
    raise ValidationError(f"unknown atom kind {kind!r}")


def problem_to_dict(pb: ProblemInstance) -> dict:
    doc = {
        "name": pb.name,
        "d": pb.d,
        "p": pb.p,
        "rho": float(pb.rho),
        "atoms": [],
    }
    for atom, (lo, hi) in pb.f.blocks:
        rec = _atom_to_dict(atom)
        rec["range"] = [int(lo), int(hi)]
        doc["atoms"].append(rec)
    sq = pb.f.smooth_quad
    if sq is not None:
        doc["smooth_quad"] = {
            "Q": None if sq.Q is None else _fmat(sq.Q),
            "q": None if sq.q is None else _flist(sq.q),
            "c": float(sq.c),
        }
    doc["A"] = _fmat(pb.A)
    doc["b"] = _flist(pb.b)
    if pb.witness_x0 is not None:
        doc["witness_x0"] = _flist(pb.witness_x0)
    if pb.lambda_star is not None:
        doc["lambda_star"] = _flist(pb.lambda_star)
    if pb.phi_star is not None:
        doc["phi_star"] = float(pb.phi_star)
    return doc


def _parsed(name, convert, value):
    """convert(value); a value of the wrong type or shape raises a
    ValidationError that names the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def problem_from_dict(doc) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise ValidationError("problem document must be a JSON object")
    for key in ("name", "d", "p", "rho", "atoms", "A", "b"):
        if key not in doc:
            raise ValidationError(f"problem file missing field {key!r}")
    if not isinstance(doc["name"], str):
        raise ValidationError("name must be a string")
    d = doc["d"]
    if not _is_int(d) or d < 1:
        raise ValidationError("d must be a positive integer")
    # A holds d numbers per row, so once its columns match d, nothing sized
    # by d can outgrow the file
    A = _parsed("A", _numbers, doc["A"])
    if A.ndim != 2:
        raise ValidationError("A must be an array of equal-length rows")
    if A.shape[1] != d:
        raise ValidationError(f"A has {A.shape[1]} columns but d is {d}")
    if not isinstance(doc["atoms"], list):
        raise ValidationError("atoms must be a list of atom records")
    blocks = []
    for i, rec in enumerate(doc["atoms"]):
        if not isinstance(rec, dict):
            raise ValidationError(f"atom {i} must be an object")
        if "range" not in rec:
            raise ValidationError(f"atom {i} missing field 'range'")
        rng = rec["range"]
        if not (isinstance(rng, list) and len(rng) == 2
                and all(_is_int(t) for t in rng) and 0 <= rng[0] < rng[1] <= d):
            raise ValidationError(
                f"atom {i} range must be an integer window [lo, hi) inside [0, {d})"
            )
        if not isinstance(rec.get("params", {}), dict):
            raise ValidationError(f"atom {i} params must be an object")
        lo, hi = rng
        try:
            atom = _atom_from_dict(rec, hi - lo)
        except KeyError as exc:
            raise ValidationError(f"atom {i} missing parameter {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"atom {i}: {exc}") from exc
        blocks.append((atom, (lo, hi)))
    sq = None
    if doc.get("smooth_quad") is not None:
        rec = doc["smooth_quad"]
        if not isinstance(rec, dict):
            raise ValidationError("smooth_quad must be an object")
        try:
            sq = SmoothQuadratic(
                d,
                Q=None if rec.get("Q") is None else _numbers(rec["Q"]),
                q=None if rec.get("q") is None else _numbers(rec["q"]),
                c=_number(rec.get("c", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"smooth_quad: {exc}") from exc
    f = CompositeFunction(blocks, dim=d, smooth_quad=sq)
    if not _is_int(doc["p"]) or doc["p"] != A.shape[0]:
        raise ValidationError(f"p is {doc['p']!r} but A has {A.shape[0]} rows")
    optional = {}
    for key, convert in (("witness_x0", _numbers), ("lambda_star", _numbers),
                         ("phi_star", _number)):
        if doc.get(key) is not None:
            optional[key] = _parsed(key, convert, doc[key])
    return ProblemInstance(
        f, A, _parsed("b", _numbers, doc["b"]), _parsed("rho", _number, doc["rho"]),
        name=doc["name"], **optional,
    )


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_problem(pb: ProblemInstance, path) -> None:
    _dump_json(problem_to_dict(pb), path)


def _reject_constant(name):
    raise ValidationError(f"problem JSON contains {name}; every number must be finite")


def read_problem(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed problem JSON: {exc}") from exc
    return problem_from_dict(doc)


def write_trace(trace: SolveTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for r in trace.records:
            fh.write(f"{r.k},{_fmt17(r.phi_est)},{_fmt17(r.grad_norm)},"
                     f"{_fmt17(r.primal_obj)},{r.inner_iters}\n")


def read_trace(path) -> list:
    """Rows as dicts with Python ints/floats; header is checked exactly."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != TRACE_HEADER:
            raise ValidationError(
                f"trace header must be {','.join(TRACE_HEADER)!r}, got {','.join(header)!r}"
            )
        rows = []
        for row in reader:
            if len(row) != 5:
                raise ValidationError(f"trace row {len(rows)} has {len(row)} fields")
            rows.append({
                "k": int(row[0]),
                "phi_est": float(row[1]),
                "grad_norm": float(row[2]),
                "primal_obj": float(row[3]),
                "inner_iters": int(row[4]),
            })
    return rows


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _flist(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "check_name": cert.check_name,
        "instance_name": cert.instance_name,
        "num_samples": int(cert.num_samples),
        "worst_violation": float(cert.worst_violation),
        "threshold": float(cert.threshold),
        "pass": bool(cert.passed),
        "witnesses": list(cert.witnesses),
        "rng_seed": int(cert.rng_seed),
        "details": _json_safe(cert.details),
    }


def write_report(certs, path) -> None:
    _dump_json([certificate_to_dict(c) for c in certs], path)


def read_report(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValidationError("certificate report must be a JSON array")
    return doc
