"""Span tracing from outside the program.

The tracer replaces public functions of nlpflow's modules with wrappers
that record one span per call: (id, name, start, end, parent id).  Self
time, a span's duration minus the time its child spans cover, is kept on a
call stack as calls return.  Spans stay in memory and are written once,
when the run ends.
"""

import contextlib
import functools
import gzip
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  The solver calls each of these through
# its module's namespace, so replacing the attribute intercepts every call.
WRAPPED = [
    ("nlpflow.integrate", "solve", "solve"),
    ("nlpflow.integrate", "evaluate", "evaluate"),
    ("nlpflow.integrate", "step_rk45", "step_rk45"),
    ("nlpflow.integrate", "step_stiff", "step_stiff"),
    ("nlpflow.integrate", "fd_jacobian", "fd_jacobian"),
    ("nlpflow.integrate", "lu_factor", "lu_factor"),
    ("nlpflow.dynamics", "classify", "classify"),
    ("nlpflow.dynamics", "resolve_working_set", "resolve_working_set"),
    ("nlpflow.dynamics", "rhs_general", "rhs_general"),
    ("nlpflow.dynamics", "pinv_gram", "pinv_gram"),
    ("nlpflow.dynamics", "feasibility_lp", "feasibility_lp"),
    ("nlpflow.dynamics", "pts_update", "pts_update"),
    ("nlpflow.monitor", "kkt_report", "kkt_report"),
    ("nlpflow.cli", "main", "cli_main"),
    ("nlpflow.cli", "parse_problem", "parse_problem"),
    ("nlpflow.cli", "solve", "solve"),
    ("nlpflow.problems", "check_derivatives", "check_derivatives"),
    ("nlpflow.problemfile", "check_derivatives", "check_derivatives"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.names = {}
        self._stack = []
        self._next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.root_s = 0.0
        # facts taken from arguments and results at the layer boundaries
        self.accepted_steps = 0
        self.gram_dims = []
        self.gram_rank_deficient = 0
        self.pts_enablements = 0
        self.absent = []

    def wrap(self, name, fn):
        """A function that records a span around each call of ``fn``."""
        name_id = self.names.setdefault(name, len(self.names))
        observe = _OBSERVERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]     # id, time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                self.spans.append((span_id, name_id, start, end, parent))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every WRAPPED attribute that exists; restore on exit.  A
        name that no longer exists is recorded in ``absent``."""
        saved = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                label = f"{module_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time_total(self):
        return sum(self.self_s.values())

    def write(self, path):
        """Spans as gzip CSV: id, name, start, end, parent (-1 for a root)."""
        by_id = {v: k for k, v in self.names.items()}
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,name,start,end,parent\n")
            for span_id, name_id, start, end, parent in self.spans:
                out.write(f"{span_id},{by_id[name_id]},{start!r},{end!r},{parent}\n")


def _observe_solve(tracer, args, traj):
    tracer.accepted_steps += traj.step_count


def _observe_pinv_gram(tracer, args, result):
    dim = args[0].shape[0]
    tracer.gram_dims.append(dim)
    if result[1] < dim:
        tracer.gram_rank_deficient += 1


def _observe_pts_update(tracer, args, result):
    if result is not args[0]:
        tracer.pts_enablements += 1


_OBSERVERS = {
    "solve": _observe_solve,
    "pinv_gram": _observe_pinv_gram,
    "pts_update": _observe_pts_update,
}


def layer_metrics(tracer, ops, output_bytes):
    """Per-layer metrics, per solve unless named otherwise.  ``ops`` is the
    number of traced operations, each of which calls solve once; the
    derivative check is timed per problem build."""
    c, s = tracer.calls, tracer.self_s
    per = 1.0 / ops
    steps = c["step_rk45"] + c["step_stiff"]
    accepted = tracer.accepted_steps
    dims = tracer.gram_dims

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "integrate.accepted_steps": (accepted * per, "count"),
        "integrate.rejected_steps": ((steps - accepted) * per, "count"),
        "integrate.accept_ratio": (ratio(accepted, steps), "ratio"),
        "integrate.evals_per_accepted_step": (ratio(c["evaluate"], accepted), "count"),
        "integrate.step_rk45.self_s": (s["step_rk45"] * per, "s"),
        "integrate.step_stiff.self_s": (s["step_stiff"] * per, "s"),
        "integrate.fd_jacobian.calls": (c["fd_jacobian"] * per, "count"),
        "integrate.fd_jacobian.self_s": (s["fd_jacobian"] * per, "s"),
        "integrate.lu_factor.calls": (c["lu_factor"] * per, "count"),
        "integrate.solve.self_s": (s["solve"] * per, "s"),
        "dynamics.resolve_working_set.calls": (c["resolve_working_set"] * per, "count"),
        "dynamics.resolve_working_set.self_s": (s["resolve_working_set"] * per, "s"),
        "dynamics.active_set_iters_per_resolve":
            (ratio(c["rhs_general"], c["resolve_working_set"]), "count"),
        "dynamics.rhs_general.self_s": (s["rhs_general"] * per, "s"),
        "dynamics.classify.self_s": (s["classify"] * per, "s"),
        "dynamics.feasibility_lp.calls": (c["feasibility_lp"] * per, "count"),
        "dynamics.feasibility_lp.self_s": (s["feasibility_lp"] * per, "s"),
        "dynamics.pts_enablements": (tracer.pts_enablements * per, "count"),
        "linalg.pinv_gram.calls": (c["pinv_gram"] * per, "count"),
        "linalg.pinv_gram.self_s": (s["pinv_gram"] * per, "s"),
        "linalg.pinv_gram.us_per_call": (1e6 * ratio(s["pinv_gram"], c["pinv_gram"]), "us"),
        "linalg.pinv_gram.mean_dim": (ratio(sum(dims), len(dims)), "rows"),
        "linalg.pinv_gram.rank_deficient_share":
            (ratio(tracer.gram_rank_deficient, len(dims)), "ratio"),
        "problems.evaluate.calls": (c["evaluate"] * per, "count"),
        "problems.evaluate.self_s": (s["evaluate"] * per, "s"),
        "problems.oracle.self_s": (s["oracle"] * per, "s"),
        "problems.check_derivatives.s":
            (ratio(tracer.total_s["check_derivatives"], c["check_derivatives"]), "s"),
        "problemfile.parse_problem.self_s": (s["parse_problem"] * per, "s"),
        "monitor.kkt_report.self_s": (s["kkt_report"] * per, "s"),
        "cli.main.self_s": (s["cli_main"] * per, "s"),
        "cli.output_bytes": (output_bytes * per, "B"),
    }
