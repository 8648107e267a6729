"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --work-dir DIR [--smoke] [--setup-only]

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread pools at one thread.  Prints one JSON object as its last line.
"""

import argparse
import contextlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    return parser.parse_args(argv)


class Record:
    """One attempted operation of a timed phase."""

    def __init__(self, op, round_index, output, error, seconds, evals):
        self.op, self.round = op, round_index
        self.output, self.error = output, error
        self.seconds, self.evals = seconds, evals
        self.ok = None


class Bench:
    """Runs and times operations, counting derivative-oracle calls."""

    def __init__(self, args, nlpflow):
        self.args = args
        self.tracer = None
        self.evals = 0
        # `nlpflow run` builds its problem inside the CLI: instrument the one
        # parse_problem returns there, the same way as a builtin's.
        cli = nlpflow.cli
        parse = cli.parse_problem
        cli.parse_problem = lambda *a, **k: self.instrument(parse(*a, **k))

    def instrument(self, problem):
        """The problem with its derivative oracle counted and, while tracing,
        each of its callables recorded as an 'oracle' span."""
        import dataclasses

        def counted(fn):
            def derivatives(theta):
                self.evals += 1
                return fn(theta)
            return derivatives

        fields = {"derivatives": counted(problem.derivatives)}
        if self.tracer is not None:
            for name in ("objective", "inequalities", "equalities", "derivatives"):
                fields[name] = self.tracer.wrap("oracle", fields.get(name)
                                                or getattr(problem, name))
        return dataclasses.replace(problem, **fields)

    def run_op(self, op, round_index, out_dir):
        evals = self.evals
        start = time.perf_counter()
        try:
            output, error = op.run(out_dir), None
        except Exception as exc:     # a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return Record(op, round_index, output, error, seconds, self.evals - evals)

    def phase(self, variants, order):
        """Whole rounds until the round boundary nearest to --seconds of
        timed work, at least one.  A round runs the ops of every variant, a
        (name, ops, tracer or None) triple, in ``order``; a trace run
        alternates an untraced and a traced round so that both see the same
        machine.  Each round's outputs are checked after it, outside the
        timed part, and then released.  Returns per variant the records, the
        wall time and the bytes the ops wrote, and the unexpected failures."""
        records = {name: [] for name, _, _ in variants}
        walls = dict.fromkeys(records, 0.0)
        written = dict.fromkeys(records, 0)
        unexpected = []
        done = 0
        while True:
            for name, ops, tracer in variants:
                round_dir = self.args.work_dir / name / f"r{done}"
                begin = time.perf_counter()
                with tracer.installed() if tracer else contextlib.nullcontext():
                    self.tracer = tracer
                    batch = [self.run_op(ops[i], done, round_dir / ops[i].label)
                             for i in order]
                    self.tracer = None
                walls[name] += time.perf_counter() - begin
                unexpected += check(batch)
                written[name] += output_bytes(batch)
                shutil.rmtree(round_dir, ignore_errors=True)
                for rec in batch:
                    rec.output = None
                records[name] += batch
            done += 1
            if sum(walls.values()) * (1 + 0.5 / done) >= self.args.seconds:
                return records, walls, written, unexpected


def check(batch):
    """Run the output check of every operation of one round.  Returns the
    failures of operations not marked as a known fault."""
    outputs = {rec.op.label: rec.output for rec in batch}
    unexpected = []
    for rec in batch:
        if rec.error is not None:
            errors = [rec.error]
        else:
            try:
                errors = rec.op.check(rec.output, outputs)
            except Exception as exc:  # unreadable output fails the operation
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        rec.ok = not errors
        if errors and not rec.op.known_fault:
            unexpected.append(f"{rec.op.label} (round {rec.round}): {'; '.join(errors)}")
    return unexpected


def repeats_exactly(records, warmup):
    """Every round, and the warm-up, must make the same number of derivative
    oracle calls for the same operation."""
    seen = {warmup.op.label: warmup.evals}
    for rec in records:
        if seen.setdefault(rec.op.label, rec.evals) != rec.evals:
            return False
    return True


def output_bytes(records):
    total = 0
    for rec in records:
        if isinstance(rec.output, tuple):
            total += sum(f.stat().st_size for f in rec.output[1].iterdir())
    return total


def main(argv):
    args = parse_args(argv)
    start = time.perf_counter()
    import nlpflow
    import nlpflow.cli
    import_s = time.perf_counter() - start
    if Path(nlpflow.__file__).resolve().parent != ROOT / "src" / "nlpflow":
        print(f"error: imported nlpflow from {nlpflow.__file__}, not from src/",
              file=sys.stderr)
        return 2

    import resource
    import statistics

    import numpy as np

    import spans
    import workloads

    args.work_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    workload = workloads.make(args.workload, args.smoke, args.work_dir)
    start = time.perf_counter()
    if tracer is None:
        workload.build()
    else:
        with tracer.installed():
            workload.build()
    problem_s = time.perf_counter() - start
    setup = {"import_s": import_s, "problem_s": problem_s}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    bench = Bench(args, nlpflow)
    ops = workload.ops(bench.instrument)
    order = np.random.default_rng(args.seed).permutation(len(ops))
    warmup = bench.run_op(ops[0], -1, args.work_dir / "warmup")
    warmup_errors = check([warmup])

    variants = [("timed", ops, None)]
    if tracer is not None:
        bench.tracer = tracer
        variants.append(("traced", workload.ops(bench.instrument), tracer))
        bench.tracer = None
        self_before, root_before = tracer.self_time_total(), tracer.root_s
    records, walls, written, unexpected = bench.phase(variants, order)
    result = {"setup": setup, "absent": []}
    if tracer is not None:
        traced = records["traced"]
        self_s = tracer.self_time_total() - self_before
        root_s = tracer.root_s - root_before
        if not self_s <= root_s * (1 + 1e-9) <= walls["traced"] * (1 + 1e-9):
            unexpected.append(f"span self times {self_s:.6f}s exceed the traced "
                              f"solve time {root_s:.6f}s")
        layers = spans.layer_metrics(tracer, len(traced), written["traced"])
        layers["trace.overhead"] = (walls["traced"] / walls["timed"], "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["absent"] = tracer.absent
        results_dir = ROOT / "perfbench" / "results"
        results_dir.mkdir(exist_ok=True)
        tracer.write(results_dir / f"trace-{args.workload}-seed{args.seed}.csv.gz")
    else:
        timed = records["timed"]
        ok_times = [rec.seconds for rec in timed if rec.ok]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "solve_s.p50": {"value": statistics.median(ok_times) if ok_times else 0.0,
                            "unit": "s"},
            "solves_per_s": {"value": len(ok_times) / walls["timed"], "unit": "1/s"},
            "evals_per_solve": {"value": sum(r.evals for r in timed) / len(timed),
                                "unit": "count"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    records = [rec for variant in records.values() for rec in variant]
    unexpected += warmup_errors
    if not repeats_exactly(records, warmup):
        unexpected.append("derivative oracle calls differ between rounds")
    shutil.rmtree(args.work_dir, ignore_errors=True)
    result.update({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(not rec.ok for rec in records),
        "metrics": metrics,
        "unexpected": unexpected,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
