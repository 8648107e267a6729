"""Text format for problem definitions, with dual-number derivatives.

One declaration per line:

    # comment
    var 3                 # theta in R^3, variables named x1..x3
    min x1^2 + sin(x2)    # objective
    ineq x1 + x3 - 2      # meaning  x1 + x3 - 2 <= 0
    eq x1 - x2            # meaning  x1 - x2 = 0

Supported functions: sin, cos, exp, log, sqrt.  The power operator ``^``
requires a constant exponent.  Numeric literals may use scientific notation.
"""

from __future__ import annotations

import re

import numpy as np

from . import autodiff
from .errors import ProblemParseError
from .problems import NlpProblem, check_derivatives

__all__ = ["parse_problem", "serialize_problem"]

_FUNCTIONS = {
    "sin": autodiff.sin,
    "cos": autodiff.cos,
    "exp": autodiff.exp,
    "log": autodiff.log,
    "sqrt": autodiff.sqrt,
}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


# --- expression AST --------------------------------------------------------

class _Node:
    def __call__(self, env):
        raise NotImplementedError

    def to_text(self):
        raise NotImplementedError


class _Num(_Node):
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, env):
        return self.value

    def to_text(self):
        return repr(self.value)


class _Var(_Node):
    def __init__(self, index):
        self.index = index   # zero-based

    def __call__(self, env):
        return env[self.index]

    def to_text(self):
        return f"x{self.index + 1}"


class _Bin(_Node):
    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": autodiff.div,
    }

    def __init__(self, op, left, right):
        self.op = op
        self.fn = self._OPS[op]
        self.left = left
        self.right = right

    def __call__(self, env):
        return self.fn(self.left(env), self.right(env))

    def to_text(self):
        return f"({self.left.to_text()} {self.op} {self.right.to_text()})"


class _Neg(_Node):
    def __init__(self, operand):
        self.operand = operand

    def __call__(self, env):
        return -self.operand(env)

    def to_text(self):
        return f"(-{self.operand.to_text()})"


class _Pow(_Node):
    def __init__(self, base, exponent):
        self.base = base
        self.exponent = float(exponent)

    def __call__(self, env):
        return self.base(env) ** self.exponent

    def to_text(self):
        return f"({self.base.to_text()} ^ {repr(self.exponent)})"


class _Call(_Node):
    def __init__(self, name, argument):
        self.name = name
        self.fn = _FUNCTIONS[name]
        self.argument = argument

    def __call__(self, env):
        return self.fn(self.argument(env))

    def to_text(self):
        return f"{self.name}({self.argument.to_text()})"


def _contains_var(node):
    if isinstance(node, _Var):
        return True
    children = []
    if isinstance(node, _Bin):
        children = [node.left, node.right]
    elif isinstance(node, (_Neg,)):
        children = [node.operand]
    elif isinstance(node, _Pow):
        children = [node.base]
    elif isinstance(node, _Call):
        children = [node.argument]
    return any(_contains_var(c) for c in children)


def _const_value(node, line, column):
    if _contains_var(node):
        raise ProblemParseError("exponent must be a constant expression",
                                line, column)
    return node(())


# --- tokenizer / parser ----------------------------------------------------

class _Tokenizer:
    def __init__(self, text, line):
        self.line = line
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ProblemParseError(f"unexpected character {text[pos]!r}",
                                        line, pos + 1)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos + 1))
            pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.tokens) and self.tokens[-1][2] or 1)

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect_op(self, op):
        kind, value, col = self.next()
        if kind != "op" or value != op:
            raise ProblemParseError(f"expected {op!r}, got {value or 'end of line'!r}",
                                    self.line, col)


class _Parser:
    """Recursive descent over + - * / ^ with standard precedence."""

    def __init__(self, tokens, n_vars):
        self.t = tokens
        self.n_vars = n_vars

    def parse(self):
        node = self.expr()
        kind, value, col = self.t.peek()
        if kind != "eof":
            raise ProblemParseError(f"unexpected trailing {value!r}",
                                    self.t.line, col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.t.peek()
            if kind == "op" and value in "+-":
                self.t.next()
                node = _Bin(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.t.peek()
            if kind == "op" and value in "*/":
                self.t.next()
                node = _Bin(value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.t.peek()
        if kind == "op" and value == "-":
            self.t.next()
            return _Neg(self.unary())
        if kind == "op" and value == "+":
            self.t.next()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, col = self.t.peek()
        if kind == "op" and value == "^":
            self.t.next()
            exponent = self.unary()   # right associative
            node = _Pow(node, _const_value(exponent, self.t.line, col))
        return node

    def atom(self):
        kind, value, col = self.t.next()
        if kind == "num":
            return _Num(value)
        if kind == "name":
            if value in _FUNCTIONS:
                self.t.expect_op("(")
                arg = self.expr()
                self.t.expect_op(")")
                return _Call(value, arg)
            m = re.fullmatch(r"x(\d+)", value)
            if m is None:
                raise ProblemParseError(f"unknown identifier {value!r}",
                                        self.t.line, col)
            index = int(m.group(1))
            if not 1 <= index <= self.n_vars:
                raise ProblemParseError(
                    f"variable {value} out of range; declared var {self.n_vars}",
                    self.t.line, col)
            return _Var(index - 1)
        if kind == "op" and value == "(":
            node = self.expr()
            self.t.expect_op(")")
            return node
        raise ProblemParseError(
            f"expected a value, got {value or 'end of line'!r}",
            self.t.line, col)


# --- file level ------------------------------------------------------------

def parse_problem(text, name="problem", validate=True):
    """Parse problem-file text into an NlpProblem with dual-number derivatives."""
    n_vars = None
    objective = None
    ineqs = []
    eqs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "var":
            if n_vars is not None:
                raise ProblemParseError("duplicate var declaration", lineno, 1)
            if not rest.isdigit() or int(rest) < 1:
                raise ProblemParseError(f"var takes a positive integer, got {rest!r}",
                                        lineno, 5)
            n_vars = int(rest)
            continue
        if keyword not in ("min", "ineq", "eq"):
            raise ProblemParseError(f"unknown declaration {keyword!r}", lineno, 1)
        if n_vars is None:
            raise ProblemParseError("var must be declared before expressions",
                                    lineno, 1)
        node = _Parser(_Tokenizer(rest, lineno), n_vars).parse()
        if keyword == "min":
            if objective is not None:
                raise ProblemParseError("duplicate min declaration", lineno, 1)
            objective = node
        elif keyword == "ineq":
            ineqs.append(node)
        else:
            eqs.append(node)

    if n_vars is None:
        raise ProblemParseError("missing var declaration", 1, 1)
    if objective is None:
        raise ProblemParseError("missing min declaration", 1, 1)

    problem = _compile(name, n_vars, objective, ineqs, eqs)
    if validate:
        check_derivatives(problem)
    return problem


def _compile(name, n, objective_ast, ineq_asts, eq_asts):
    r, s = len(ineq_asts), len(eq_asts)

    def objective(theta):
        return float(objective_ast(theta))

    def inequalities(theta):
        return np.array([node(theta) for node in ineq_asts], dtype=float)

    def equalities(theta):
        return np.array([node(theta) for node in eq_asts], dtype=float)

    def derivatives(theta):
        duals = autodiff.seed(theta)
        f = objective_ast(duals)
        f_grad = f.grad if isinstance(f, autodiff.Dual) else np.zeros(n)
        g_jac = np.zeros((r, n))
        for i, node in enumerate(ineq_asts):
            v = node(duals)
            if isinstance(v, autodiff.Dual):
                g_jac[i] = v.grad
        h_jac = np.zeros((s, n))
        for i, node in enumerate(eq_asts):
            v = node(duals)
            if isinstance(v, autodiff.Dual):
                h_jac[i] = v.grad
        return f_grad, g_jac, h_jac

    problem = NlpProblem(name=name, n=n, r=r, s=s,
                         objective=objective, inequalities=inequalities,
                         equalities=equalities, derivatives=derivatives)
    # keep the ASTs around so serialize_problem can round-trip
    object.__setattr__(problem, "_asts", (objective_ast, ineq_asts, eq_asts))
    return problem


def serialize_problem(problem):
    """Render a parsed problem back to problem-file text."""
    try:
        objective_ast, ineq_asts, eq_asts = problem._asts
    except AttributeError:
        raise ProblemParseError(
            "only problems built by parse_problem can be serialized")
    lines = [f"var {problem.n}", f"min {objective_ast.to_text()}"]
    lines += [f"ineq {node.to_text()}" for node in ineq_asts]
    lines += [f"eq {node.to_text()}" for node in eq_asts]
    return "\n".join(lines) + "\n"
