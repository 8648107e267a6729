"""Command-line front end: run flows, multistart batches, list problems.

Outputs are a trajectory CSV (one row per recorded step) and a JSON summary
embedding the full effective configuration and the seed, so any run can be
replayed byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import GainSet
from .errors import InvalidInputError, NlpflowError
from .integrate import IntegratorConfig, solve
from .monitor import ToleranceSet
from .problemfile import parse_problem
from .problems import builtin, builtin_names

SUMMARY_SCHEMA = 5


def _fmt(x):
    return format(float(x), ".17g")


def _load_problem(source, size):
    path = Path(source)
    if path.suffix or path.exists():
        return parse_problem(path.read_text(encoding="utf-8"), name=path.stem)
    return builtin(source, size)


def _number(token, option, kind=float):
    """``kind(token)``; a malformed token is an InvalidInputError naming it."""
    try:
        return kind(token)
    except ValueError:
        raise InvalidInputError(f"{option}: bad value {token!r}") from None


def _initial_points(args, problem, rng):
    fixes = {}
    for item in args.fix or []:
        k, _, v = item.partition("=")
        k = _number(k, f"--fix {item}", int)
        if not 1 <= k <= problem.n:
            raise InvalidInputError(f"--fix {item}: component {k} outside 1..{problem.n}")
        fixes[k - 1] = _number(v, f"--fix {item}")
    count = getattr(args, "count", 1)
    if args.theta0.startswith("sample:"):
        bounds = args.theta0[len("sample:"):].split(",")
        if len(bounds) != 2:
            raise InvalidInputError(f"--theta0 {args.theta0}: expected sample:lo,hi")
        lo, hi = (_number(t, "--theta0") for t in bounds)
        points = [rng.uniform(lo, hi, size=problem.n) for _ in range(count)]
    else:
        theta = np.array([_number(t, "--theta0") for t in args.theta0.split(",")])
        if theta.size != problem.n:
            raise InvalidInputError(
                f"--theta0 has {theta.size} components, problem needs {problem.n}")
        points = [theta.copy() for _ in range(count)]
    for theta in points:
        for k, v in fixes.items():
            theta[k] = v
    return points


def _gains(args, problem):
    def matrix(file_attr, scalar, dim):
        path = getattr(args, file_attr)
        if path:
            return np.loadtxt(path, ndmin=2)
        return scalar * np.eye(dim)

    k_g_file = args.k_g_file
    k_g = np.loadtxt(k_g_file, ndmin=1) if k_g_file else np.full(problem.r, args.k_g)
    return GainSet(matrix("k_theta_file", args.k_theta, problem.n),
                   matrix("k_h_file", args.k_h, problem.s),
                   k_g)


def _write_trajectory(path, problem, traj):
    header = (["tau"]
              + [f"theta_{i + 1}" for i in range(problem.n)]
              + [f"pi_e_{i + 1}" for i in range(problem.s)]
              + [f"pi_i_{i + 1}" for i in range(problem.r)]
              + ["kkt_stationarity", "ec_violation", "iec_violation", "lyapunov"])
    lines = [",".join(header)]
    for s in traj.samples:
        row = ([_fmt(s.tau)] + [_fmt(v) for v in s.theta]
               + [_fmt(v) for v in s.pi_e] + [_fmt(v) for v in s.pi_i]
               + [_fmt(s.report.stationarity), _fmt(s.report.ec_violation),
                  _fmt(s.report.iec_violation), _fmt(s.lyapunov)])
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary(problem, traj, config_echo, seed, wall_time):
    out = {
        "schema_version": SUMMARY_SCHEMA,
        "nlpflow_version": __version__,
        "problem": problem.name,
        "verdict": traj.verdict,
    }
    if traj.samples:   # none when theta0 fails to evaluate
        final = traj.final
        out.update({
            "tau_final": final.tau,
            "theta_final": [float(v) for v in final.theta],
            "pi_e_final": [float(v) for v in final.pi_e],
            "pi_i_final": [float(v) for v in final.pi_i],
            "kkt": {
                "stationarity": final.report.stationarity,
                "ec_violation": final.report.ec_violation,
                "iec_violation": final.report.iec_violation,
                "complementarity": final.report.complementarity,
                "sign_violation": final.report.sign_violation,
            },
        })
    out.update({
        "step_count": traj.step_count,
        "rejected_count": traj.rejected_count,
        "trial_rejections": traj.trial_rejections,
        "endgame_steps": traj.endgame_steps,
        "endgame_fallbacks": traj.endgame_fallbacks,
        "rhs_eval_count": traj.rhs_eval_count,
        "jacobian_count": traj.jacobian_count,
        "wall_time_s": wall_time,
        "seed": seed,
        "config": config_echo,
    })
    if problem.known_optimum is not None and traj.samples:
        out["error_to_known_optimum"] = float(
            np.linalg.norm(traj.final.theta - problem.known_optimum))
    if traj.error is not None:
        out["error_detail"] = str(traj.error)
    return out


def _setup(args):
    """The problem, its start points and a timed solve from the run options."""
    problem = _load_problem(args.problem, args.size)
    points = _initial_points(args, problem, np.random.default_rng(args.seed))
    gains = _gains(args, problem)
    config = IntegratorConfig(method=args.method, rel_tol=args.rel_tol,
                              abs_tol=args.abs_tol, t_end=args.t_end,
                              fixed_horizon=args.fixed_horizon)
    tols = ToleranceSet(stationarity=args.stationarity_tol)
    # '1,2,3;4,5' -> zero-based priority groups; solve adds the rows in none
    pts_groups = [[_number(tok, "--pts", int) - 1 for tok in part.split(",")]
                  for part in (args.pts or "").split(";") if part.strip()] or None

    def run_once(theta0):
        start = time.perf_counter()
        traj = solve(problem, theta0, gains, integrator=config, tolerances=tols,
                     pts_groups=pts_groups)
        return traj, time.perf_counter() - start

    return problem, points, run_once


def _config_echo(args, theta0):
    keys = ["problem", "size", "k_theta", "k_h", "k_g", "method", "rel_tol",
            "abs_tol", "t_end", "fixed_horizon", "pts", "stationarity_tol"]
    echo = {k: getattr(args, k, None) for k in keys}
    echo["theta0"] = [float(v) for v in theta0]
    return echo


def cmd_run(args):
    problem, points, run_once = _setup(args)
    theta0 = points[0]
    traj, wall = run_once(theta0)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trajectory(out_dir / "trajectory.csv", problem, traj)
    summary = _summary(problem, traj, _config_echo(args, theta0), args.seed, wall)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    at = f" at tau={traj.final.tau:.6g}" if traj.samples else ""
    print(f"{problem.name}: {traj.verdict}{at} ({traj.step_count} steps, {wall:.3f}s)")
    if "error_to_known_optimum" in summary:
        print(f"  error vs known optimum: {summary['error_to_known_optimum']:.3e}")
    return 0 if traj.verdict in ("converged", "horizon-reached") else 1


def cmd_multistart(args):
    problem, points, run_once = _setup(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, theta0 in enumerate(points):
        traj, wall = run_once(theta0)
        _write_trajectory(out_dir / f"run_{k:02d}_trajectory.csv", problem, traj)
        summary = _summary(problem, traj, _config_echo(args, theta0), args.seed, wall)
        (out_dir / f"run_{k:02d}_summary.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        rows.append({
            "run": k,
            "verdict": traj.verdict,
            "error": summary.get("error_to_known_optimum"),
            "wall_time_s": wall,
        })

    errors = [r["error"] for r in rows if r["error"] is not None]
    times = [r["wall_time_s"] for r in rows]
    aggregate = {
        "schema_version": SUMMARY_SCHEMA,
        "problem": problem.name,
        "count": len(rows),
        "runs": rows,
        "seed": args.seed,
        "error": (None if not errors else
                  {"average": float(np.mean(errors)),
                   "minimum": float(np.min(errors)),
                   "maximum": float(np.max(errors))}),
        "wall_time_s": {"average": float(np.mean(times)),
                        "minimum": float(np.min(times)),
                        "maximum": float(np.max(times))},
    }
    (out_dir / "multistart.json").write_text(
        json.dumps(aggregate, indent=2) + "\n", encoding="utf-8")

    print(f"{'run':>4} {'verdict':>16} {'error':>12} {'time (s)':>9}")
    for r in rows:
        err = "-" if r["error"] is None else f"{r['error']:.4e}"
        print(f"{r['run']:>4} {r['verdict']:>16} {err:>12} {r['wall_time_s']:>9.3f}")
    if aggregate["error"]:
        e = aggregate["error"]
        print(f"error  avg {e['average']:.4e}  min {e['minimum']:.4e}  "
              f"max {e['maximum']:.4e}")
    bad = [r for r in rows if r["verdict"].startswith("error")]
    return 1 if bad else 0


def cmd_list(args):
    entries = []
    for name in builtin_names():
        p = builtin(name)
        entries.append({
            "name": name,
            "n": p.n, "r": p.r, "s": p.s,
            "known_optimum": (None if p.known_optimum is None
                              else [float(v) for v in p.known_optimum]),
        })
    if args.json:
        print(json.dumps(entries, indent=2))
    else:
        for e in entries:
            opt = "-" if e["known_optimum"] is None else np.array(e["known_optimum"])
            print(f"{e['name']:<26} n={e['n']:<5} r={e['r']:<5} s={e['s']:<5} "
                  f"optimum={opt}")
    return 0


def _add_run_options(p):
    p.add_argument("--problem", required=True,
                   help="builtin name or problem-file path")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--theta0", required=True,
                   help="'v1,v2,...' or 'sample:lo,hi'")
    p.add_argument("--fix", action="append", metavar="K=V",
                   help="pin component K (1-based) to V after sampling")
    p.add_argument("--k-theta", type=float, default=0.1)
    p.add_argument("--k-h", type=float, default=0.1)
    p.add_argument("--k-g", type=float, default=0.1)
    p.add_argument("--k-theta-file", default=None)
    p.add_argument("--k-h-file", default=None)
    p.add_argument("--k-g-file", default=None)
    p.add_argument("--method", choices=("rk45", "stiff"), default="rk45")
    p.add_argument("--rel-tol", type=float, default=1e-3)
    p.add_argument("--abs-tol", type=float, default=1e-6)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--fixed-horizon", action="store_true")
    p.add_argument("--stationarity-tol", type=float, default=1e-6)
    p.add_argument("--pts", default=None,
                   help="priority groups of 1-based rows, e.g. '1,2,3;4,5'")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlpflow",
        description="Solve constrained NLPs by integrating a gradient flow")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single solve")
    _add_run_options(run)
    run.set_defaults(func=cmd_run)

    multi = sub.add_parser("multistart", help="batch of seeded solves")
    _add_run_options(multi)
    multi.add_argument("--count", type=int, default=10)
    multi.set_defaults(func=cmd_multistart)

    lst = sub.add_parser("list", help="list builtin problems")
    lst.add_argument("--json", action="store_true")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NlpflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
