"""Command-line front end: run flows, multistart batches, list problems.

Outputs are a trajectory CSV (one row per recorded step) and a JSON summary
embedding the full effective configuration and the seed, so any run can be
replayed byte-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import GainSet
from .errors import InvalidInputError, NlpflowError
from .integrate import IntegratorConfig, solve
from .problemfile import parse_problem
from .problems import builtin, builtin_names

SUMMARY_SCHEMA = 6


def _fmt(x):
    return format(float(x), ".17g")


def _read(path, option, load):
    """``load(path)``; a missing, unreadable or malformed file is an
    InvalidInputError naming the option and the path."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc   # no path twice for an OSError
        raise InvalidInputError(f"{option} {path}: {reason}") from None


def _load_problem(source, size):
    path = Path(source)
    if path.suffix or path.exists():
        text = _read(path, "--problem", lambda p: p.read_text(encoding="utf-8"))
        return parse_problem(text, name=path.stem)
    return builtin(source, size)


def _number(token, option, kind=float):
    """``kind(token)``; a malformed or non-finite token is an
    InvalidInputError naming it."""
    try:
        value = kind(token)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{option}: bad value {token!r}")


def _index(token, option, what, size):
    """The zero-based index of a 1-based token, which must lie in 1..size."""
    k = _number(token, option, int)
    if not 1 <= k <= size:
        raise InvalidInputError(f"{option}: {what} {k} outside 1..{size}")
    return k - 1


def _initial_points(args, problem, rng):
    fixes = {}
    for item in args.fix or []:
        k, _, v = item.partition("=")
        fixes[_index(k, f"--fix {item}", "component", problem.n)] = _number(v, f"--fix {item}")
    count = getattr(args, "count", 1)
    if count < 1:
        raise InvalidInputError(f"--count must be at least 1, got {count}")
    if args.theta0.startswith("sample:"):
        bounds = args.theta0[len("sample:"):].split(",")
        if len(bounds) != 2:
            raise InvalidInputError(f"--theta0 {args.theta0}: expected sample:lo,hi")
        lo, hi = (_number(t, "--theta0") for t in bounds)
        if not math.isfinite(hi - lo):
            raise InvalidInputError(f"--theta0 {args.theta0}: range too wide")
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
    """Each gain from its file when given, else from its scalar: a scaled
    identity for k_theta and k_h, a constant vector for k_g."""
    def gain(name, dim, ndmin):
        path = getattr(args, name + "_file")
        if path is None:
            scaled = np.full(dim, getattr(args, name))
            return np.diag(scaled) if ndmin == 2 else scaled
        return _read(path, f"--{name.replace('_', '-')}-file",
                     lambda p: np.loadtxt(p, ndmin=ndmin))

    return GainSet(gain("k_theta", problem.n, 2), gain("k_h", problem.s, 2),
                   gain("k_g", problem.r, 1))


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
            "kkt": asdict(final.report),
        })
    for name in ("step_count", "rejected_count", "trial_rejections", "endgame_steps",
                 "endgame_fallbacks", "rhs_eval_count", "jacobian_count"):
        out[name] = getattr(traj, name)
    out.update(wall_time_s=wall_time, seed=seed, config=config_echo)
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
    # each option named after an IntegratorConfig field sets it
    config = IntegratorConfig(**{f.name: getattr(args, f.name) for f in fields(IntegratorConfig)})
    # '1,2,3;4,5' -> zero-based priority groups; solve adds the rows in none
    pts_groups = [[_index(tok, f"--pts {args.pts}", "row", problem.r) for tok in part.split(",")]
                  for part in (args.pts or "").split(";") if part.strip()] or None

    def run_once(theta0):
        start = time.perf_counter()
        traj = solve(problem, theta0, gains, integrator=config, pts_groups=pts_groups)
        return traj, time.perf_counter() - start

    return problem, points, run_once


def _config_echo(args, theta0):
    keys = ["problem", "size", "k_theta", "k_h", "k_g", "k_theta_file", "k_h_file",
            "k_g_file", *(f.name for f in fields(IntegratorConfig)), "pts"]
    echo = {k: getattr(args, k, None) for k in keys}
    for k in ("k_theta", "k_h", "k_g"):
        if echo[k + "_file"] is not None:   # the file's gains ran, not the scalar's
            echo[k] = None
    echo["theta0"] = [float(v) for v in theta0]
    return echo


def _stats(values):
    return {"average": float(np.mean(values)),
            "minimum": float(np.min(values)),
            "maximum": float(np.max(values))}


def cmd_solve(args):
    """``run`` and ``multistart``: solve from each start point and write its
    trajectory and summary; a multistart names them ``run_KK_*`` and adds
    ``multistart.json`` and a table.  Exit 1 when a solve ends in an error
    verdict."""
    multi = args.command == "multistart"
    problem, points, run_once = _setup(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, theta0 in enumerate(points):
        traj, wall = run_once(theta0)
        prefix = f"run_{k:02d}_" if multi else ""
        _write_trajectory(out_dir / f"{prefix}trajectory.csv", problem, traj)
        summary = _summary(problem, traj, _config_echo(args, theta0), args.seed, wall)
        (out_dir / f"{prefix}summary.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        rows.append({
            "run": k,
            "verdict": traj.verdict,
            "error": summary.get("error_to_known_optimum"),
            "wall_time_s": wall,
        })
        if not multi:
            at = f" at tau={traj.final.tau:.6g}" if traj.samples else ""
            print(f"{problem.name}: {traj.verdict}{at} ({traj.step_count} steps, {wall:.3f}s)")
            if "error_to_known_optimum" in summary:
                print(f"  error vs known optimum: {summary['error_to_known_optimum']:.3e}")

    if multi:
        errors = [r["error"] for r in rows if r["error"] is not None]
        aggregate = {
            "schema_version": SUMMARY_SCHEMA,
            "problem": problem.name,
            "count": len(rows),
            "runs": rows,
            "seed": args.seed,
            "error": _stats(errors) if errors else None,
            "wall_time_s": _stats([r["wall_time_s"] for r in rows]),
        }
        (out_dir / "multistart.json").write_text(
            json.dumps(aggregate, indent=2) + "\n", encoding="utf-8")

        print(f"{'run':>4} {'verdict':>16} {'error':>12} {'time (s)':>9}")
        for r in rows:
            err = "-" if r["error"] is None else f"{r['error']:.4e}"
            print(f"{r['run']:>4} {r['verdict']:>16} {err:>12} {r['wall_time_s']:>9.3f}")
        if errors:
            e = aggregate["error"]
            print(f"error  avg {e['average']:.4e}  min {e['minimum']:.4e}  "
                  f"max {e['maximum']:.4e}")
    return 1 if any(r["verdict"].startswith("error") for r in rows) else 0


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
    for gain in ("theta", "h", "g"):   # a scalar gain or its file, not both
        pair = p.add_mutually_exclusive_group()
        pair.add_argument(f"--k-{gain}", type=float, default=0.1)
        pair.add_argument(f"--k-{gain}-file", default=None)
    defaults = IntegratorConfig()
    p.add_argument("--method", choices=("rk45", "stiff"), default=defaults.method)
    p.add_argument("--rel-tol", type=float, default=defaults.rel_tol)
    p.add_argument("--abs-tol", type=float, default=defaults.abs_tol)
    p.add_argument("--t-end", type=float, default=defaults.t_end)
    p.add_argument("--fixed-horizon", action="store_true")
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
    run.set_defaults(func=cmd_solve)

    multi = sub.add_parser("multistart", help="batch of seeded solves")
    _add_run_options(multi)
    multi.add_argument("--count", type=int, default=10)
    multi.set_defaults(func=cmd_solve)

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
