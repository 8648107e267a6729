"""The benchmark's workloads: inputs, operations and their output checks.

Every workload is a fixed round of operations.  A run repeats whole rounds,
so every run attempts the same operations in the same proportions and the
share of failed operations is the same in every run.  The starts are drawn
once from POOL_SEED, so every run does identical work and the evaluation
count per solve repeats exactly; the run's --seed sets the order in which a
round visits its operations.
"""

import json
import math

import numpy as np

import nlpflow
from nlpflow import cli, integrate

import oracle

POOL_SEED = 180409829
EX1_HARD_START = (-4.8578, 3.8180, -2.7364)
EX1_PTS_GROUPS = [(0, 1, 2), (3, 4)]
LOG_EDGE_TEXT = "var 1\nmin log(x1)\nineq 0.05 - x1\n"


class Op:
    """One timed operation.  ``run(out_dir)`` returns the output that
    ``check(output, outputs)`` validates after the round, untimed, with the
    round's outputs by label at hand; it returns a list of failures.  ``known_fault`` marks the one
    operation that is expected to fail until the program is mended."""

    def __init__(self, label, run, check, known_fault=False):
        self.label = label
        self.run = run
        self.check = check
        self.known_fault = known_fault


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


# --- library solves ---------------------------------------------------------

def _check_ex1(traj, hard):
    if traj.verdict != "converged":
        return [f"verdict {traj.verdict}"]
    final = traj.final
    spec = oracle.example1()
    errors = []
    dist = float(np.linalg.norm(final.theta - oracle.EX1_OPTIMUM))
    if not dist <= 1e-6:
        errors.append(f"|theta - optimum| = {dist:.3e}")
    errors += oracle.kkt_failures(spec, final.theta, final.pi_e, final.pi_i)
    reference, active = oracle.min_norm_multipliers(spec, final.theta)
    got = np.concatenate([final.pi_e, final.pi_i[active]])
    inactive = np.delete(final.pi_i, active)
    gap = max(float(np.abs(got - reference).max()),
              float(np.abs(inactive).max()) if inactive.size else 0.0)
    if not gap <= 1e-6:
        errors.append(f"multipliers differ from the min-norm lstsq ones by {gap:.3e}")
    if hard:
        paper = np.array([final.pi_e[0], final.pi_e[1], final.pi_i[oracle.EX1_PAPER_ROW]])
        gap = float(np.abs(paper - oracle.EX1_PAPER_MULTIPLIERS).max())
        if not gap <= 1e-6:
            errors.append(f"hard start multipliers differ from the paper's by {gap:.3e}")
    return errors


def _chain_failures(theta, pi_e, pi_i, upper_bound_pi):
    """Checks shared by both chain workloads."""
    errors = []
    dist = float(np.abs(np.asarray(theta) - 1.0).max())
    if not dist <= 1e-3:
        errors.append(f"max |theta - 1| = {dist:.3e}")
    if not upper_bound_pi <= 1e-6:
        errors.append(f"theta_1 <= 1.5 multiplier reached {upper_bound_pi:.3e}")
    errors += oracle.kkt_failures(oracle.chain(), theta, pi_e, pi_i)
    return errors


def _check_chain(traj):
    if traj.verdict != "converged":
        return [f"verdict {traj.verdict}"]
    final = traj.final
    return _chain_failures(final.theta, final.pi_e, final.pi_i,
                           max(float(s.pi_i[0]) for s in traj.samples))


def _solve_op(label, problem, theta0, gains, config, check, pts_groups=None):
    theta0 = np.array(theta0, dtype=float)

    def run(out_dir):
        return integrate.solve(problem, theta0, gains, integrator=config,
                               pts_groups=pts_groups)

    return Op(label, run, lambda traj, outputs: check(traj))


class Ex1Multistart:
    """example1 with rk45 and priority groups from many uniform starts."""

    name = "ex1-multistart"

    def __init__(self, smoke):
        rng = np.random.default_rng(POOL_SEED)
        self.starts = [np.array(EX1_HARD_START)] + [
            rng.uniform(-10.0, 10.0, size=3) for _ in range(2 if smoke else 23)]

    def build(self):
        self.problem = nlpflow.builtin("example1")

    def ops(self, instrument):
        problem = instrument(self.problem)
        gains = nlpflow.GainSet.uniform(3, 2, 5, k_theta=0.1, k_h=0.1, k_g=0.1)
        config = nlpflow.IntegratorConfig(method="rk45", t_end=300.0)
        return [_solve_op(f"start{k}", problem, theta0, gains, config,
                          lambda traj, hard=(k == 0): _check_ex1(traj, hard),
                          pts_groups=EX1_PTS_GROUPS)
                for k, theta0 in enumerate(self.starts)]


def chain_starts(n, count, rng):
    """Standard starts: theta_1 = 2, the rest uniform on [0.7, 1.2]."""
    starts = []
    for _ in range(count):
        theta = rng.uniform(0.7, 1.2, size=n)
        theta[0] = 2.0
        starts.append(theta)
    return starts


class ChainStiff:
    """Builtin example2 with the Rosenbrock stepper: standard starts and the
    descending ramp 2 - 3i/(n-1)."""

    name = "chain-stiff"

    def __init__(self, smoke):
        self.n = 10 if smoke else 100
        rng = np.random.default_rng(POOL_SEED)
        self.starts = chain_starts(self.n, 1 if smoke else 4, rng)
        self.starts.append(2.0 - 3.0 * np.arange(self.n) / (self.n - 1))

    def build(self):
        self.problem = nlpflow.builtin("example2", size=self.n)

    def ops(self, instrument):
        n = self.n
        problem = instrument(self.problem)
        gains = nlpflow.GainSet.uniform(n, n - 1, 2 * n, k_theta=0.1, k_h=1.0, k_g=1.0)
        config = nlpflow.IntegratorConfig(method="stiff", t_end=100.0)
        labels = [f"start{k}" for k in range(len(self.starts) - 1)] + ["ramp"]
        return [_solve_op(label, problem, theta0, gains, config, _check_chain)
                for label, theta0 in zip(labels, self.starts)]


# --- CLI runs of a problem file ------------------------------------------

def chain_text(n):
    """The chained-sine problem in the problem-file format, rows in the same
    order as the builtin and oracle.chain()."""
    shift = repr(oracle.CHAIN_SHIFT)
    pi = repr(math.pi)
    terms = [f"sin(x1 - 1 + {shift})"]
    terms += [f"100 * sin(-x{i} + {shift} + x{i - 1}^2)" for i in range(2, n + 1)]
    lines = [f"var {n}", "min " + " + ".join(terms), "ineq x1 - 1.5", "ineq 0.5 - x1"]
    for i in range(2, n + 1):
        lines.append(f"ineq x{i - 1}^2 - x{i} - {pi}")
        lines.append(f"ineq -{pi} - (x{i - 1}^2 - x{i})")
    lines += [f"eq x{i} - x{i + 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def _read_run(out_dir, n, s, r):
    """Structure checks of one `nlpflow run` output directory.  Returns
    (errors, summary, CSV rows or None when the columns are wrong)."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    lines = (out_dir / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(","), [[float(v) for v in line.split(",")]
                                         for line in lines[1:]]
    errors = []
    if len(header) != n + s + r + 5 or any(len(row) != len(header) for row in rows):
        errors.append(f"CSV has {len(header)} columns, expected {n + s + r + 5}")
        return errors, summary, None
    if len(rows) != summary["step_count"] + 1:
        errors.append(f"CSV has {len(rows)} rows for {summary['step_count']} steps")
    last = rows[-1]
    kkt = summary["kkt"]
    expected = ([summary["tau_final"]] + summary["theta_final"] + summary["pi_e_final"]
                + summary["pi_i_final"]
                + [kkt["stationarity"], kkt["ec_violation"], kkt["iec_violation"]])
    if last[:len(expected)] != expected:
        errors.append("last CSV row differs from summary.json")
    if summary["verdict"] != "converged":
        errors.append(f"verdict {summary['verdict']}")
    return errors, summary, rows


class ChainTextCli:
    """The chain as a problem file, solved through `nlpflow run`, plus one run
    of the log-edge file per round."""

    name = "chain-text-cli"

    def __init__(self, smoke, work_dir):
        self.n = 10 if smoke else 20
        self.work_dir = work_dir
        rng = np.random.default_rng(POOL_SEED)
        self.starts = chain_starts(self.n, 1 if smoke else 6, rng)
        self.chain_file = work_dir / "chain.nlp"
        self.log_file = work_dir / "log_edge.nlp"
        self.chain_file.write_text(chain_text(self.n), encoding="utf-8")
        self.log_file.write_text(LOG_EDGE_TEXT, encoding="utf-8")

    def build(self):
        self.problem = nlpflow.parse_problem(self.chain_file.read_text(encoding="utf-8"),
                                             name=self.chain_file.stem)

    def ops(self, instrument):
        # the CLI parses its own problem; the worker instruments that one
        # through nlpflow.cli.parse_problem, so ``instrument`` is not needed
        n = self.n
        s, r = n - 1, 2 * n

        def chain_op(label, theta0, same_as=None):
            argv = ["run", "--problem", str(self.chain_file), f"--theta0={_fmt(theta0)}",
                    "--method", "stiff", "--k-h", "1", "--k-g", "1", "--t-end", "100"]

            def run(out_dir):
                return cli.main(argv + ["--out", str(out_dir)]), out_dir

            def check(output, outputs):
                code, out_dir = output
                if code != 0:
                    return [f"exit code {code}"]
                errors, _, rows = _read_run(out_dir, n, s, r)
                if rows is None:
                    return errors
                last = rows[-1]
                errors += _chain_failures(np.array(last[1:n + 1]), last[n + 1:n + s + 1],
                                          last[n + s + 1:n + s + r + 1],
                                          max(row[n + s + 1] for row in rows))
                if same_as is not None:
                    first = outputs[same_as][1] / "trajectory.csv"
                    if first.read_bytes() != (out_dir / "trajectory.csv").read_bytes():
                        errors.append(f"trajectory.csv differs from {same_as}'s")
                return errors

            return Op(label, run, check)

        def log_edge_run(out_dir):
            return cli.main(["run", "--problem", str(self.log_file), "--theta0=1",
                             "--out", str(out_dir)]), out_dir

        def log_edge_check(output, outputs):
            code, out_dir = output
            if code != 0:
                return [f"exit code {code}"]
            errors, summary, _ = _read_run(out_dir, 1, 0, 1)
            x, pi = summary["theta_final"][0], summary["pi_i_final"][0]
            if not abs(x - oracle.LOG_EDGE_SOLUTION) <= 1e-6:
                errors.append(f"x1 = {x!r}, expected {oracle.LOG_EDGE_SOLUTION}")
            if not abs(pi - oracle.LOG_EDGE_MULTIPLIER) <= 1e-4:
                errors.append(f"pi = {pi!r}, expected {oracle.LOG_EDGE_MULTIPLIER}")
            return errors + oracle.kkt_failures(oracle.log_edge(), [x], [], [pi])

        ops = [chain_op(f"start{k}", theta0) for k, theta0 in enumerate(self.starts)]
        ops.append(chain_op("repeat0", self.starts[0], same_as="start0"))
        ops.append(Op("log-edge", log_edge_run, log_edge_check, known_fault=True))
        return ops


def make(name, smoke, work_dir):
    if name == Ex1Multistart.name:
        return Ex1Multistart(smoke)
    if name == ChainStiff.name:
        return ChainStiff(smoke)
    return ChainTextCli(smoke, work_dir)
