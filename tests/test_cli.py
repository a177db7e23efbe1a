import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import almlab as al
from almlab.cli import _build_parser, main


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_problem(tmp_path, capsys):
    out = tmp_path / "qp.json"
    rc = main(["bench", "--family", "qp", "--d", "4", "--p", "2", "--out", str(out)])
    assert rc == 0
    assert "wrote qp_d4_p2_rho1_seed0" in capsys.readouterr().out
    pb = al.read_problem(str(out))
    assert pb.d == 4 and pb.p == 2


def test_bench_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["bench", "--family", "basis_pursuit", "--d", "6", "--p", "2",
            "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_bytes(a) == read_bytes(b)


def test_bench_env_seed_override(tmp_path, monkeypatch):
    via_flag, via_env = tmp_path / "flag.json", tmp_path / "env.json"
    assert main(["bench", "--family", "qp", "--d", "4", "--p", "2",
                 "--seed", "3", "--out", str(via_flag)]) == 0
    monkeypatch.setenv("ALMLAB_SEED", "3")
    assert main(["bench", "--family", "qp", "--d", "4", "--p", "2",
                 "--seed", "0", "--out", str(via_env)]) == 0
    assert read_bytes(via_flag) == read_bytes(via_env)


def test_bench_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ALMLAB_SEED", "banana")
    rc = main(["bench", "--family", "qp", "--d", "4", "--p", "2",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "ALMLAB_SEED" in capsys.readouterr().err


def test_bench_requires_dims(capsys):
    assert main(["bench", "--family", "qp"]) == 1
    assert "requires --d and --p" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


@pytest.fixture()
def qp_file(tmp_path):
    path = tmp_path / "qp_d2_p1.json"
    assert main(["bench", "--family", "qp", "--d", "2", "--p", "1",
                 "--seed", "7", "--out", str(path)]) == 0
    return str(path)


def test_solve_success_and_trace(qp_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", qp_file, "--trace-out", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "terminated: grad_stop" in out
    with open(trace_path) as fh:
        assert fh.readline().rstrip("\n") == "k,phi_est,grad_norm,primal_obj,inner_iters"
    rows = al.read_trace(str(trace_path))
    assert rows[0]["k"] == 0
    assert rows[-1]["grad_norm"] <= 1e-6


def test_solve_trace_round_trips_17_digits(qp_file, tmp_path):
    trace_path = tmp_path / "trace.csv"
    main(["solve", qp_file, "--trace-out", str(trace_path)])
    pb = al.read_problem(qp_file)
    st = al.OuterSettings(inner_tol0=1e-4, inner_factor=0.5)
    trace = al.alm(pb, None, st)
    rows = al.read_trace(str(trace_path))
    assert len(rows) == len(trace.records)
    for row, rec in zip(rows, trace.records):
        assert row["k"] == rec.k
        assert row["phi_est"] == rec.phi_est  # %.17g is lossless for float64
        assert row["grad_norm"] == rec.grad_norm
        assert row["primal_obj"] == rec.primal_obj
        assert row["inner_iters"] == rec.inner_iters


def test_solve_accelerated_method(qp_file):
    assert main(["solve", qp_file, "--method", "accelerated"]) == 0


def test_solve_at_optimum_stops_immediately(qp_file, capsys):
    pb = al.read_problem(qp_file)
    lam0 = ",".join(format(v, ".17g") for v in pb.lambda_star)
    rc = main(["solve", qp_file, "--lam0", lam0, "--inner-tol0", "1e-12"])
    assert rc == 0
    assert "after 1 recorded" in capsys.readouterr().out


def test_solve_budget_exhaustion_exits_2(qp_file):
    rc = main(["solve", qp_file, "--max-outer", "1", "--grad-stop", "1e-15"])
    assert rc == 2


def test_solve_divergence_exits_3(tmp_path, capsys):
    # linear objective pushed the wrong way has an unbounded inner problem
    f = al.CompositeFunction([(al.Linear(np.array([1e6, -2e6])), (0, 2))])
    pb = al.ProblemInstance(f, np.array([[1.0, 1.0]]), np.zeros(1), 1.0,
                            name="runaway")
    path = tmp_path / "runaway.json"
    al.write_problem(pb, str(path))
    rc = main(["solve", str(path)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_solve_bad_lam0_exits_1(qp_file, capsys):
    assert main(["solve", qp_file, "--lam0", "1.0;2.0"]) == 1
    assert "lam0" in capsys.readouterr().err


def test_solve_wrong_lam0_length_exits_1(qp_file):
    assert main(["solve", qp_file, "--lam0", "1.0,2.0,3.0"]) == 1


def test_solve_missing_file_exits_1(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["solve", str(path)]) == 1


def test_solve_missing_field_exits_1(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"name": "x", "rho": 1.0}))
    assert main(["solve", str(path)]) == 1
    assert "missing field" in capsys.readouterr().err


def test_solve_unknown_atom_kind_exits_1(tmp_path, qp_file):
    with open(qp_file) as fh:
        doc = json.load(fh)
    doc["atoms"][0]["kind"] = "mystery"
    path = tmp_path / "unknown_atom.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1


def _set_atom(kind, params):
    """Mutation that replaces atom 0 of a problem document, keeping its range."""
    def mutate(doc):
        doc["atoms"][0] = {"kind": kind, "params": params, "range": doc["atoms"][0]["range"]}
    return mutate


# json.dumps writes NaN and Infinity literals, which read_problem must reject
@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.update(p=7), "p is 7 but A has 1 rows"),
    (lambda doc: doc.update(atoms={"kind": "zero"}), "atoms must be a list"),
    (lambda doc: doc["atoms"].__setitem__(0, "zero"), "atom 0 must be an object"),
    (lambda doc: doc["atoms"][0].update(range=2), "atom 0 range must be"),
    (lambda doc: doc["atoms"][0].update(params=[1]), "atom 0 params must be an object"),
    (lambda doc: doc.update(smooth_quad=[1]), "smooth_quad must be an object"),
    (_set_atom("l2ball", {"radius": [1], "center": [0.0, 0.0]}),
     "atom 0: float() argument must be"),
    (lambda doc: doc.update(rho=np.inf), "problem JSON contains Infinity"),
    (_set_atom("l1", {"weight": np.inf}), "problem JSON contains Infinity"),
    (_set_atom("linear", {"c": [np.nan, 0.0]}), "problem JSON contains NaN"),
    (_set_atom("box", {"lo": [np.nan, 0.0], "hi": [1.0, 1.0]}), "problem JSON contains NaN"),
    (lambda doc: doc.update(witness_x0=[np.nan, 0.0]), "problem JSON contains NaN"),
    (lambda doc: doc.update(phi_star=np.inf), "problem JSON contains Infinity"),
    (lambda doc: doc.update(rho=[1]), "rho: float() argument must be"),
    (lambda doc: doc.update(A={"row": 1}), "A: float() argument must be"),
    (lambda doc: doc.update(smooth_quad={"c": [1]}), "smooth_quad: float() argument must be"),
    (lambda doc: doc.update(phi_star=[1]), "phi_star: float() argument must be"),
    (_set_atom("l1", {"weight": "1"}), "atom 0: expected a number, got '1'"),
    (lambda doc: doc.update(rho="1"), "rho: expected a number, got '1'"),
    (lambda doc: doc.update(rho=True), "rho: expected a number, got True"),
    (lambda doc: doc.update(b=["1"]), "b: expected a number, got '1'"),
    (lambda doc: doc["A"][0].__setitem__(1, "0.5"), "A: expected a number, got '0.5'"),
    (lambda doc: doc["A"][0].__setitem__(1, True), "A: expected a number, got True"),
    (_set_atom("linear", {"c": ["1", 0.0]}), "atom 0: expected a number, got '1'"),
    (_set_atom("l2ball", {"radius": "2", "center": [0.0, 0.0]}),
     "atom 0: expected a number, got '2'"),
    (_set_atom("box", {"lo": [True, 0.0], "hi": [1.0, 1.0]}),
     "atom 0: box lo[0] must be a number or null"),
    (lambda doc: doc.update(name=[1]), "name must be a string"),
    (lambda doc: doc.update(d=True), "d must be a positive integer"),
    # json.dumps writes 10**400 as an integer literal, which no double holds
    (lambda doc: doc.update(b=[10**400]), "b: integer beyond the float range"),
    (lambda doc: doc.update(rho=10**400), "rho: integer beyond the float range"),
    (_set_atom("box", {"lo": [0.0, 0.0], "hi": [1.0, 10**400]}),
     "atom 0: box hi[1]: integer beyond the float range"),
], ids=["p_mismatch", "atoms_not_list", "atom_not_object", "range_not_pair",
        "params_not_object", "smooth_quad_not_object", "l2ball_radius_list",
        "rho_inf", "l1_weight_inf", "linear_c_nan", "box_lo_nan", "witness_nan",
        "phi_star_inf", "rho_list", "A_not_numeric", "smooth_quad_c_list",
        "phi_star_list", "l1_weight_string", "rho_string", "rho_bool", "b_strings",
        "A_entry_string", "A_entry_bool", "linear_c_string", "l2ball_radius_string",
        "box_lo_bool", "name_list", "d_bool", "b_huge_int", "rho_huge_int",
        "box_hi_huge_int"])
def test_solve_malformed_problem_exits_1(tmp_path, qp_file, capsys, mutate, message):
    with open(qp_file) as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("atom", [None, {"kind": "nonneg", "params": {}}],
                         ids=["smooth_quad", "nonneg_atom"])
def test_huge_d_is_rejected_before_anything_of_size_d(qp_file, atom):
    # a few bytes ask for d = 2e7, and the quadratic term or a nonneg atom
    # covering it would build length-d vectors; A's 2 columns reject it first
    with open(qp_file) as fh:
        doc = json.load(fh)
    doc.update(d=2 * 10**7, smooth_quad={"c": 0.0})
    if atom is not None:
        doc["atoms"] = [dict(atom, range=[0, 2 * 10**7])]
    tracemalloc.start()
    try:
        with pytest.raises(al.ValidationError, match="A has 2 columns but d is 20000000"):
            al.problem_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# verify


@pytest.fixture()
def tight_file(tmp_path):
    path = tmp_path / "tight.json"
    assert main(["bench", "--family", "tight_bound_family",
                 "--out", str(path)]) == 0
    return str(path)


def test_verify_default_checks_pass(tight_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", tight_file, "--samples", "40",
               "--report-out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4  # smoothness, gradient_fd, concavity, invariance
    docs = json.loads(read_bytes(report))
    assert len(docs) == 4
    assert all(doc["pass"] is True for doc in docs)
    assert {doc["check_name"] for doc in docs} == \
        {"smoothness", "gradient_fd", "concavity", "invariance"}


def test_verify_reports_byte_identical(tight_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", tight_file, "--samples", "40", "--seed", "2"]
    assert main(args + ["--report-out", str(a)]) == 0
    assert main(args + ["--report-out", str(b)]) == 0
    assert read_bytes(a) == read_bytes(b)


def test_verify_identity_checks_pass_on_tight(tight_file):
    rc = main(["verify", tight_file, "--checks", "moreau,conjugate"])
    assert rc == 0


def test_verify_invariance_holds_at_tight_inner_tol(tmp_path, capsys, monkeypatch):
    # FISTA alone left two minimizers' constraint maps 1.197e-9 apart on this
    # instance, above the 1e-9 threshold; polished solves agree to rounding
    monkeypatch.delenv("ALMLAB_SEED", raising=False)
    path = tmp_path / "nonneg_lp.json"
    assert main(["bench", "--family", "nonneg_lp", "--d", "20", "--p", "8",
                 "--seed", "1011", "--out", str(path)]) == 0
    rc = main(["verify", str(path), "--checks", "invariance", "--inner-tol", "1e-10",
               "--samples", "2"])
    assert "invariance: PASS" in capsys.readouterr().out
    assert rc == 0


def _curved_file(tmp_path, Q):
    # nonneg plus a dense quadratic term: moreau falls back to the x grid
    d = Q.shape[0]
    f = al.CompositeFunction.single(al.Nonneg(d), smooth_quad=al.SmoothQuadratic(d, Q=Q))
    pb = al.ProblemInstance(f, np.ones((1, d)), np.ones(1), 1.0, name=f"curved_d{d}")
    path = tmp_path / "curved.json"
    al.write_problem(pb, str(path))
    return str(path)


def _curved_d2_file(tmp_path):
    return _curved_file(tmp_path, np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_verify_coarse_grid_fails_honestly(tmp_path, capsys):
    # 5 points per axis cannot resolve the envelope to the 1e-3 budget on
    # the x-grid route (it reads 2.96); the certificate must report the
    # failure and the command must exit 4
    report = tmp_path / "report.json"
    rc = main(["verify", _curved_file(tmp_path, np.array([[1.7]])), "--checks", "moreau",
               "--grid-points", "5", "--report-out", str(report)])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out
    docs = json.loads(read_bytes(report))
    assert docs[0]["pass"] is False


def test_verify_moreau_refuses_the_default_x_grid_on_a_curved_f(tmp_path, capsys):
    rc = main(["verify", _curved_d2_file(tmp_path), "--checks", "moreau"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_verify_moreau_passes_a_curved_f_on_a_finer_grid(tmp_path, capsys):
    rc = main(["verify", _curved_d2_file(tmp_path), "--checks", "moreau",
               "--grid-points", "301"])
    assert "moreau: PASS" in capsys.readouterr().out
    assert rc == 0


def _bench_file(tmp_path, family, d, p, seed):
    path = tmp_path / f"{family}_d{d}_p{p}_seed{seed}.json"
    assert main(["bench", "--family", family, "--d", str(d), "--p", str(p),
                 "--seed", str(seed), "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("family, seed, checks", [
    ("qp", 6, "moreau,conjugate"), ("basis_pursuit", 0, "moreau")])
def test_verify_grid_points_sizes_only_the_grids_a_check_builds(tmp_path, family, seed,
                                                               checks):
    # a 301^3 x grid would exceed the 1e7 cap, but neither check builds one
    # here: moreau has the closed-form plain dual, and conjugate on qp the
    # positive-definite-quadratic route
    rc = main(["verify", _bench_file(tmp_path, family, 3, 2, seed), "--checks", checks,
               "--grid-points", "301"])
    assert rc == 0


@pytest.mark.parametrize("args", [
    ["solve", "--lam0", "1e300,0"],
    ["verify", "--checks", "smoothness", "--samples", "2", "--radius", "1e200"],
    ["verify", "--checks", "gradient_fd", "--samples", "4", "--fd-h", "1e300"]])
def test_huge_finite_inputs_diverge_without_overflow_warnings(tmp_path, capsys, args):
    # the suite turns a RuntimeWarning into an error, so an overflow warning
    # would raise out of main
    rc = main([args[0], _bench_file(tmp_path, "qp", 3, 2, 0), *args[1:]])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_negative_seed_names_its_source(tight_file, capsys, monkeypatch):
    monkeypatch.delenv("ALMLAB_SEED", raising=False)
    assert main(["verify", tight_file, "--seed", "-1"]) == 1
    assert "error: --seed must be a nonnegative integer" in capsys.readouterr().err
    monkeypatch.setenv("ALMLAB_SEED", "-1")
    assert main(["verify", tight_file]) == 1
    assert "error: ALMLAB_SEED must be a nonnegative integer" in capsys.readouterr().err


def test_verify_grid_points_matches_the_library_call(tmp_path):
    # d = 6 with a closed-form plain dual: moreau builds only its w grid
    path = _bench_file(tmp_path, "qp", 6, 2, 1)
    cli_report, lib_report = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["verify", path, "--checks", "moreau", "--grid-points", "101",
                 "--report-out", str(cli_report)]) == 0
    al.write_report([al.check_moreau_identity(al.read_problem(path), grid_points=101)],
                    str(lib_report))
    assert read_bytes(lib_report) == read_bytes(cli_report)


@pytest.mark.parametrize("argv", [
    ["verify", "p.json", "--inner-tol", "inf"],
    ["verify", "p.json", "--radius", "inf"],
    ["verify", "p.json", "--fd-h", "inf"],
    ["solve", "p.json", "--grad-stop", "inf"],
    ["solve", "p.json", "--inner-tol0", "nan"],
    ["solve", "p.json", "--inner-factor", "inf"],
    ["solve", "p.json", "--lam0", "nan"],
    ["solve", "p.json", "--lam0", "0.5,inf"],
    ["bench", "--family", "qp", "--d", "2", "--p", "1", "--rho", "inf"],
], ids=["inner_tol", "radius", "fd_h", "grad_stop", "inner_tol0", "inner_factor",
        "lam0_nan", "lam0_inf", "rho"])
def test_non_finite_float_flag_exits_1(argv, capsys):
    # the flags are parsed before the problem file is read
    flag = argv[-2]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be a finite number" in err
    assert "Traceback" not in err


def test_verify_unknown_check_exits_1(tight_file, capsys):
    assert main(["verify", tight_file, "--checks", "telepathy"]) == 1
    assert "unknown check" in capsys.readouterr().err


def test_verify_empty_checks_exits_1(tight_file):
    assert main(["verify", tight_file, "--checks", " , "]) == 1


@pytest.mark.parametrize("args", [
    ["--samples", "0"],
    ["--samples", "-3", "--checks", "gradient_fd"],
], ids=["zero", "negative_gradient_fd"])
def test_verify_samples_below_one_exits_1(tight_file, capsys, args):
    assert main(["verify", tight_file] + args) == 1
    assert "error: --samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["0", "-1"])
@pytest.mark.parametrize("check", ["smoothness", "gradient_fd", "concavity"])
def test_verify_radius_must_be_positive(tight_file, capsys, check, radius):
    assert main(["verify", tight_file, "--checks", check, "--radius", radius]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: radius must be positive and finite\n"
    assert "PASS" not in captured.out


def test_verify_moreau_rejects_wide_multiplier(tmp_path):
    path = tmp_path / "wide.json"
    assert main(["bench", "--family", "qp", "--d", "6", "--p", "5",
                 "--out", str(path)]) == 0
    assert main(["verify", str(path), "--checks", "moreau"]) == 1


# ---------------------------------------------------------------------------
# surface plumbing


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    assert main(["solve"]) == 1


def test_parser_is_built_once_and_keeps_no_state(qp_file, tmp_path, capsys):
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    _build_parser.cache_clear()
    assert main(["solve", qp_file, "--trace-out", str(first)]) == 0
    assert _build_parser() is _build_parser()
    assert main(["solve"]) == 1
    assert main(["solve", qp_file, "--method", "accelerated", "--lam0", "0.5",
                 "--inner-tol0", "1e-6", "--max-outer", "3"]) in (0, 2)
    assert main(["solve", qp_file, "--trace-out", str(last)]) == 0
    assert read_bytes(last) == read_bytes(first)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli_smoke.json"
    # the child must import the same almlab as this process, which pytest
    # may have found through its own pythonpath setting
    package_root = str(Path(al.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "almlab", "bench", "--family",
         "tight_bound_family", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.exists()
