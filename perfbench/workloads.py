"""The three workloads: their instance panels, the CLI calls of one round, and
how each call's output is checked and its inner solves counted.

Every panel is fixed.  Inner-solve cost is heavy-tailed in both the instance
and the sampled multipliers (one nonneg_lp 20x8 verify call took 1.2 s to
13 s depending on its --seed; nonneg_lp 100x40 alm took 2k to 235k inner
iterations over four instance seeds), so drawing either from the workload
seed would make the run-to-run spread measure input luck rather than the
code.  The workload seed fixes the order of the calls in a round.
"""

import csv
import json
import random
from dataclasses import dataclass

# C01 sizes; seed 5 is the instance seed the C01 acceptance test uses
C01_DIMS = {"qp": (24, 10), "basis_pursuit": (16, 6), "nonneg_lp": (20, 8),
            "rank_deficient_box": (20, 8)}
C01_SEED = 5

CERTIFY_CHECKS = ("smoothness", "gradient_fd", "concavity", "invariance")
CERTIFY_SAMPLES = 4
CERTIFY_INNER_TOL = "1e-10"
VERIFY_DEFAULT_SAMPLES = 200

SOLVE_INSTANCE_SEEDS = tuple(range(13))
SOLVE_METHODS = ("alm", "accelerated")
GRAD_STOP = 1e-6  # the CLI default, which solve calls keep

# C04 bench instances; nonneg_lp 2x1 fails moreau at the default grid
IDENTITY_INSTANCES = (("tight_bound_family", 1, 1, 0), ("rank_deficient_box", 2, 2, 0),
                      ("qp", 3, 2, 6), ("nonneg_lp", 2, 1, 0))
IDENTITY_CHECKS = ("moreau", "conjugate")
KNOWN_FAILURES = {("nonneg_lp_d2_p1_rho1_seed0", "moreau")}

# |phi_est - phi_star| allowed at grad_stop, relative to 1 + |phi_star|.  An
# exact inner solve leaves a dual gap of at most rho * grad_stop^2 / 2 = 5e-13
# there; the panels measure at most 1.3e-12.
PHI_STAR_RTOL = 1e-8
# C01: the measured Lipschitz ratio may exceed 1/rho by at most this much
SMOOTHNESS_SLACK = 1e-6

WORKLOADS = ("certify", "solve", "identities")


@dataclass(frozen=True)
class Instance:
    family: str
    d: int
    p: int
    seed: int

    @property
    def name(self):
        # the name almlab.bench gives the instance at rho = 1
        return f"{self.family}_d{self.d}_p{self.p}_rho1_seed{self.seed}"


@dataclass(frozen=True)
class Call:
    """One CLI call: `almlab <command> <problem> <args> <artifact flag>`."""

    name: str
    instance: Instance
    command: str
    args: tuple
    checks: tuple = ()
    samples: int = 0

    @property
    def artifact(self):
        return self.name + (".csv" if self.command == "solve" else ".json")

    def argv(self, problem_path, artifact_path):
        flag = "--trace-out" if self.command == "solve" else "--report-out"
        return [self.command, problem_path, *self.args, flag, artifact_path]


def _verify(inst, checks, samples=VERIFY_DEFAULT_SAMPLES, extra=()):
    args = ("--checks", ",".join(checks), "--samples", str(samples), *extra)
    return Call(f"{inst.name}.verify", inst, "verify", args, checks, samples)


def _solve(inst, method):
    return Call(f"{inst.name}.{method}", inst, "solve", ("--method", method))


def build(workload, seed):
    """Instances and the ordered calls of one round."""
    if workload == "certify":
        insts = [Instance(f, d, p, C01_SEED) for f, (d, p) in C01_DIMS.items()]
        calls = [_verify(i, CERTIFY_CHECKS, CERTIFY_SAMPLES,
                         ("--inner-tol", CERTIFY_INNER_TOL)) for i in insts]
    elif workload == "solve":
        insts = [Instance(f, d, p, s) for f, (d, p) in C01_DIMS.items()
                 for s in SOLVE_INSTANCE_SEEDS]
        insts.append(Instance("tight_bound_family", 1, 1, 0))
        calls = [_solve(i, m) for i in insts for m in SOLVE_METHODS]
    elif workload == "identities":
        insts = [Instance(*spec) for spec in IDENTITY_INSTANCES]
        calls = [_verify(i, IDENTITY_CHECKS) for i in insts]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(calls)
    return insts, calls


def read_trace_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["k", "phi_est", "grad_norm", "primal_obj", "inner_iters"]:
        raise ValueError(f"unexpected trace header {rows[0]}")
    return [(float(r[1]), float(r[2]), int(r[4])) for r in rows[1:]]


def accelerated_solves(phis):
    """Inner solves an accelerated_alm run made, from its recorded phi_est.

    Every record is one solve.  The step after record k solves again at the
    extrapolated point unless the extrapolation weight is zero: at k = 0 and
    1, and after a restart (phi_k < phi_{k-1}) at k or k - 1.  The last
    record takes no step.
    """
    restart = [k >= 1 and phis[k] < phis[k - 1] for k in range(len(phis))]
    extra = sum(1 for k in range(2, len(phis) - 1)
                if not restart[k] and not restart[k - 1])
    return len(phis) + extra


def verify_solves(check, samples, p):
    """Inner solves one certificate makes, from its sample budget."""
    quarter = max(1, samples // 4)
    return {"smoothness": 2 * samples, "gradient_fd": (1 + 2 * p) * quarter,
            "concavity": 3 * quarter, "invariance": 10,
            "moreau": 7 ** p, "conjugate": 7 ** p}[check]


@dataclass
class Outcome:
    """What one call produced: failed is the contract's view (exit code not 0,
    or an exception), problems lists output checks that did not hold."""

    seconds: float
    failed: bool
    problems: list
    solves: int = 0
    iters_logged: int = 0


def check_output(call, rc, path, meta):
    """Check a finished call's artifact; returns (problems, solves,
    inner iterations its trace logs)."""
    if call.command == "solve":
        rows = read_trace_csv(path)
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}")
        if rows[-1][1] > GRAD_STOP:
            problems.append(f"final grad_norm {rows[-1][1]:.3g} > {GRAD_STOP:g}")
        phi_star = meta["phi_star"]
        if phi_star is not None and abs(rows[-1][0] - phi_star) > PHI_STAR_RTOL * (1 + abs(phi_star)):
            problems.append(f"phi_est {rows[-1][0]!r} vs phi_star {phi_star!r}")
        phis = [r[0] for r in rows]
        solves = len(rows) if call.name.endswith(".alm") else accelerated_solves(phis)
        return problems, solves, sum(r[2] for r in rows)

    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    names = [c["check_name"] for c in report]
    if names != list(call.checks):
        problems.append(f"report holds {names}, expected {list(call.checks)}")
    failing = {c["check_name"] for c in report if not c["pass"]}
    if rc != (4 if failing else 0):
        problems.append(f"exit {rc} with failing checks {sorted(failing)}")
    unexpected = {n for n in failing if (call.instance.name, n) not in KNOWN_FAILURES}
    if unexpected:
        problems.append(f"certificates failed: {sorted(unexpected)}")
    for c in report:
        if c["check_name"] == "smoothness":
            ratio = c["details"]["max_ratio"]
            if ratio > 1.0 / meta["rho"] + SMOOTHNESS_SLACK:
                problems.append(f"smoothness max_ratio {ratio!r} > 1/rho + {SMOOTHNESS_SLACK:g}")
    solves = sum(verify_solves(n, call.samples, call.instance.p) for n in call.checks)
    return problems, solves, 0
