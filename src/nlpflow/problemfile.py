"""Text format for problem definitions, with dual-number derivatives.

One declaration per line:

    # comment
    var 3                 # theta in R^3, variables named x1..x3
    min x1^2 + sin(x2)    # objective
    ineq x1 + x3 - 2      # meaning  x1 + x3 - 2 <= 0
    eq x1 - x2            # meaning  x1 - x2 = 0

An expression is read by Python's own parser, with ``^`` for the power.  It
may use the variables, decimal numbers (``2``, ``.5``, ``1.``, ``1E+3``),
parentheses, ``+ - * /``, unary ``-`` and ``+``, ``^`` with an exponent free
of variables, and the functions sin, cos, exp, log, sqrt of one argument.
Anything else is a ProblemParseError at its line and column: ``**``, other
operators (``%``, ``//``, ``@``, comparisons), other literals (``0x1F``,
``1_0``, ``01``, ``1j``, ``True``, strings), other names, attributes,
subscripts, keyword or extra arguments, lambdas, conditionals, tuples, and
characters outside printable ASCII.
"""

from __future__ import annotations

import ast
import re

import numpy as np

from . import autodiff
from .errors import ProblemParseError
from .problems import NlpProblem, check_derivatives

_FUNCTIONS = {
    "sin": autodiff.sin,
    "cos": autodiff.cos,
    "exp": autodiff.exp,
    "log": autodiff.log,
    "sqrt": autodiff.sqrt,
}
# what compiled expressions see: the lifts, the two checked operators, no builtins
_NAMESPACE = {"__builtins__": {}, **_FUNCTIONS,
              "_div": autodiff.div, "_power": autodiff.power}

_NUMBER_RE = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)")
_BAD_CHAR_RE = re.compile(r"[^\t -~]")
_CLOSING_RE = re.compile(r"[\s)]*")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


class _Checker(ast.NodeTransformer):
    """Admit the grammar and rewrite it to run on floats and Duals.

    ``xK`` becomes ``x[K-1]``, a number a float, ``a / b`` and ``a ^ b``
    calls of autodiff.div and autodiff.power, and unary ``+`` is dropped
    (Dual has no ``__pos__``).  Every other node is a ProblemParseError.
    """

    def __init__(self, source, line, n_vars, start):
        self.source = source          # with "^" written as "**"
        self.line = line
        self.n_vars = n_vars
        self.start = start            # where the expression begins in its line

    def fail(self, message, offset):
        # columns count in the line as written, where each "**" was one "^"
        column = self.start + offset - self.source[:offset].count("**") + 1
        return ProblemParseError(message, self.line, column)

    def text(self, node):
        return self.source[node.col_offset:node.end_col_offset].replace("**", "^")

    def generic_visit(self, node):
        raise self.fail(f"unsupported expression {self.text(node)!r}", node.col_offset)

    def visit_BinOp(self, node):
        op_offset = _CLOSING_RE.match(self.source, node.left.end_col_offset).end()
        if not isinstance(node.op, _OPERATORS):
            raise self.fail(f"unsupported operator {type(node.op).__name__}", op_offset)
        node.left, node.right = self.visit(node.left), self.visit(node.right)
        if isinstance(node.op, ast.Pow):
            if any(isinstance(n, ast.Subscript) for n in ast.walk(node.right)):
                raise self.fail("exponent must be a constant expression", op_offset)
            return _call("_power", node)
        return _call("_div", node) if isinstance(node.op, ast.Div) else node

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            return self.generic_visit(node)
        node.operand = self.visit(node.operand)
        return node if isinstance(node.op, ast.USub) else node.operand

    def visit_Call(self, node):
        name = self.source[node.col_offset:node.func.end_col_offset]
        if name not in _FUNCTIONS:
            raise self.fail(f"unknown function {name!r}", node.col_offset)
        if node.keywords:
            raise self.fail(f"{name} takes no keyword arguments", node.keywords[0].col_offset)
        if len(node.args) != 1:
            where = node.args[1] if node.args else node
            raise self.fail(f"{name} takes exactly one argument", where.col_offset)
        node.args = [self.visit(node.args[0])]
        return node

    def visit_Name(self, node):
        m = _VAR_RE.fullmatch(node.id)
        if m is None:
            raise self.fail(f"unknown identifier {node.id!r}", node.col_offset)
        index = int(m.group(1))
        if not 1 <= index <= self.n_vars:
            raise self.fail(f"variable {node.id} out of range; declared var {self.n_vars}",
                            node.col_offset)
        return ast.copy_location(
            ast.Subscript(ast.Name("x", ast.Load()), ast.Constant(index - 1), ast.Load()), node)

    def visit_Constant(self, node):
        text = self.text(node)
        if not _NUMBER_RE.fullmatch(text):
            raise self.fail(f"unsupported literal {text!r}", node.col_offset)
        return ast.copy_location(ast.Constant(float(text)), node)


def _call(name, node):
    return ast.copy_location(
        ast.Call(ast.Name(name, ast.Load()), [node.left, node.right], []), node)


def _expression(text, line, n_vars, start):
    """The checked tree of one expression, ready to compile.  ``start`` is the
    expression's offset in its line, so that error columns count from the
    start of the line."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ProblemParseError(f"unexpected character {bad.group()!r}", line,
                                start + bad.start() + 1)
    if "**" in text:
        raise ProblemParseError("write powers with ^", line, start + text.index("**") + 1)
    source = text.replace("^", "**")
    checker = _Checker(source, line, n_vars, start)
    # ast.parse and the checker recurse per nesting level; compile runs out of
    # stack only at about twice the depth the checker does, so not on a checked tree
    try:
        return checker.visit(ast.parse(source, mode="eval").body)
    except SyntaxError as exc:
        offset = max(min(exc.offset - 1 if exc.offset else len(source), len(source) - 1), 0)
        raise checker.fail(f"syntax error: {exc.msg}", offset) from None
    except RecursionError:
        raise ProblemParseError("expression too long or too deeply nested",
                                line, start + 1) from None


def _function(trees):
    """Compile expression trees into one ``x -> [value, ...]``."""
    code = ast.parse("lambda x: []", mode="eval")
    code.body.body.elts = trees
    return eval(compile(ast.fix_missing_locations(code), "<problem>", "eval"), _NAMESPACE)


def _jacobian(values, n):
    """The gradients of dual ``values`` as rows; a value free of x has a zero row."""
    return np.array([v.grad if isinstance(v, autodiff.Dual) else np.zeros(n)
                     for v in values]).reshape(len(values), n)


def _hessians(values, n):
    """The Hessians of Dual2 ``values`` stacked; a value free of x has a zero one."""
    out = np.zeros((len(values), n, n))
    for row, v in zip(out, values):
        if isinstance(v, autodiff.Dual2):
            row[...] = v.hess
    return out


def parse_problem(text, name="problem", validate=True):
    """Parse problem-file text into an NlpProblem whose derivative and
    curvature oracles propagate first- and second-order dual numbers."""
    n = None
    sources = {"min": [], "ineq": [], "eq": []}
    trees = {"min": [], "ineq": [], "eq": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        # columns count from the start of the raw line, indentation included
        column = raw.index(keyword) + 1
        start = raw.index(rest, column - 1 + len(keyword))
        if keyword == "var":
            if n is not None:
                raise ProblemParseError("duplicate var declaration", lineno, column)
            if not rest.isdigit() or int(rest) < 1:
                raise ProblemParseError(f"var takes a positive integer, got {rest!r}",
                                        lineno, start + 1)
            n = int(rest)
            continue
        if keyword not in sources:
            raise ProblemParseError(f"unknown declaration {keyword!r}", lineno, column)
        if n is None:
            raise ProblemParseError("var must be declared before expressions",
                                    lineno, column)
        if keyword == "min" and sources["min"]:
            raise ProblemParseError("duplicate min declaration", lineno, column)
        trees[keyword].append(_expression(rest, lineno, n, start))
        sources[keyword].append(rest)

    if n is None:
        raise ProblemParseError("missing var declaration", 1, 1)
    if not sources["min"]:
        raise ProblemParseError("missing min declaration", 1, 1)

    f_fn, g_fn, h_fn = (_function(trees[k]) for k in sources)

    def objective(theta):
        return float(f_fn(theta)[0])

    def inequalities(theta):
        return np.array(g_fn(theta), dtype=float)

    def equalities(theta):
        return np.array(h_fn(theta), dtype=float)

    def derivatives(theta):
        duals = autodiff.seed(theta)
        return (_jacobian(f_fn(duals), n)[0], _jacobian(g_fn(duals), n),
                _jacobian(h_fn(duals), n))

    def curvature(theta, pi_e, pi_i, v):
        duals = autodiff.seed2(theta)
        h_f, h_g, h_h = (_hessians(fn(duals), n) for fn in (f_fn, g_fn, h_fn))
        w = h_f[0] + np.tensordot(pi_i, h_g, 1) + np.tensordot(pi_e, h_h, 1)
        return w, h_g @ v, h_h @ v

    problem = NlpProblem(name=name, n=n, r=len(trees["ineq"]), s=len(trees["eq"]),
                         objective=objective, inequalities=inequalities,
                         equalities=equalities, derivatives=derivatives,
                         curvature=curvature)
    # keep the text as written so serialize_problem can round-trip
    object.__setattr__(problem, "_sources", sources)
    if validate:
        check_derivatives(problem)
    return problem


def serialize_problem(problem):
    """Render a parsed problem back to problem-file text, expressions as written."""
    try:
        sources = problem._sources
    except AttributeError:
        raise ProblemParseError(
            "only problems built by parse_problem can be serialized")
    lines = [f"var {problem.n}"]
    lines += [f"{keyword} {text}" for keyword, texts in sources.items() for text in texts]
    return "\n".join(lines) + "\n"
