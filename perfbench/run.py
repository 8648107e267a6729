"""Benchmark: time until nlpflow returns a verified KKT point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Each workload runs in a fresh process
(worker.py) that imports nlpflow from the checkout's src/, with the BLAS and
OpenMP pools at one thread.  Before it, one untimed process writes the
bytecode caches and SETUP_PROBES fresh processes time the set-up alone; the
reported setup_s is the median of the probes and the workload process.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ex1-multistart", "chain-stiff", "chain-text-cli")
SETUP_PROBES = 2
DEADLINE_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up probe, for selftest.py")
    return parser.parse_args(argv)


def worker(args, env, work_dir, deadline, setup_only=False):
    """Run worker.py to completion and return its last output line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the workload finished")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nlpflow" / "__init__.py").is_file():
        print(f"error: no nlpflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work_dir = HERE / "_work" / str(os.getpid())
    try:
        worker(args, env, work_dir, deadline, setup_only=True)   # primes bytecode
        setups = [worker(args, env, work_dir, deadline, setup_only=True)["setup"]
                  for _ in range(1 if args.smoke else SETUP_PROBES)]
        result = worker(args, env, work_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setups.append(result["setup"])
    import_s = statistics.median(s["import_s"] for s in setups)
    problem_s = statistics.median(s["problem_s"] for s in setups)
    setup_s = statistics.median(s["import_s"] + s["problem_s"] for s in setups)
    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.problem_s"] = {"value": problem_s, "unit": "s"}
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    for name in result["absent"]:
        print(f"absent: {name} no longer exists; its spans are missing")
    for failure in result["unexpected"]:
        print(f"failed: {failure}")
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = metrics
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(line, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
