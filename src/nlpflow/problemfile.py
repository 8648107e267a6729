"""Text format for problem definitions, with compiled derivative kernels.

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

Values come from the expressions compiled as written.  For derivatives,
each expression's top-level sum is split into signed terms (partial
separability), and each term shape gets two straight-line float kernels at
parse time, its local partials and its local Hessian; the oracles call them
per term and scatter the results with ``numpy.bincount``.  A bare variable
gets none: its partial is 1 and its Hessian empty.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from itertools import chain, combinations_with_replacement as pairs

import numpy as np

from .errors import EvaluationError, ProblemParseError
from .problems import NlpProblem


def _checked(fn):
    """``fn`` on floats, with a domain error, an overflow or a division by
    zero an EvaluationError."""
    def wrapped(*args):
        try:
            return fn(*args)
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"{fn.__name__}({', '.join(map(repr, args))}): {exc}") from exc

    return wrapped


def _power(a, p):
    """``a ** p``, p constant; a ``0 ** -1``, an overflow or a complex result
    (negative base, fractional p) is an EvaluationError."""
    try:
        result = a ** p
    except ArithmeticError as exc:
        raise EvaluationError(f"{a!r} ** {p!r}: {exc}") from exc
    if type(result) is complex:
        raise EvaluationError(f"{a!r} ** {p!r} is not real")
    return result


_FUNCTIONS = {name: _checked(getattr(math, name))
              for name in ("sin", "cos", "exp", "log", "sqrt")}
# what compiled code sees: the checked functions and operators, no builtins
_NAMESPACE = {"__builtins__": {}, **_FUNCTIONS, "_div": _checked(operator.truediv),
              "_power": _power}

_NUMBER_RE = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)")
_BAD_CHAR_RE = re.compile(r"[^\t -~]")
_CLOSING_RE = re.compile(r"[\s)]*")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


class _Checker(ast.NodeTransformer):
    """Admit the grammar and rewrite it to run on floats.

    ``xK`` becomes ``x[K-1]``, a number a float, ``a / b`` and ``a ^ b``
    calls of ``_div`` and ``_power``, and unary ``+`` is dropped, so that
    _Kernel meets unary ``-`` only.  Every other node is a ProblemParseError.
    """

    def __init__(self, source, line, n_vars, start):
        self.source = source          # with "^" written as "**"
        self.line = line
        self.n_vars = n_vars
        self.start = start            # where the expression begins in its line
        self.variables = 0            # variable references checked so far

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
        node.left = self.visit(node.left)
        seen = self.variables
        node.right = self.visit(node.right)
        if isinstance(node.op, ast.Pow):
            if self.variables != seen:
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
        self.variables += 1
        return _located(ast.Subscript(_located(ast.Name("x", ast.Load()), node),
                                      _located(ast.Constant(index - 1), node), ast.Load()), node)

    def visit_Constant(self, node):
        text = self.text(node)
        if not _NUMBER_RE.fullmatch(text):
            raise self.fail(f"unsupported literal {text!r}", node.col_offset)
        return _located(ast.Constant(float(text)), node)


def _located(new, node):
    """``new`` at ``node``'s position: compile needs one on every node."""
    new.lineno, new.col_offset = node.lineno, node.col_offset
    new.end_lineno, new.end_col_offset = node.end_lineno, node.end_col_offset
    return new


def _call(name, node):
    return _located(ast.Call(_located(ast.Name(name, ast.Load()), node),
                             [node.left, node.right], []), node)


def _expression(text, line, n_vars, start, shapes, row):
    """The checked tree of one expression, ready to compile; its terms join
    ``shapes`` in ``row``.  ``start`` is the expression's offset in its line,
    so that error columns count from the start of the line."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ProblemParseError(f"unexpected character {bad.group()!r}", line,
                                start + bad.start() + 1)
    if "**" in text:
        raise ProblemParseError("write powers with ^", line, start + text.index("**") + 1)
    source = text.replace("^", "**")
    checker = _Checker(source, line, n_vars, start)
    # ast.parse, the checker, _split and _Kernel recurse per nesting level;
    # compile runs out of stack only at about twice the checker's depth
    try:
        tree = checker.visit(ast.parse(source, mode="eval").body)
        for sign, node in _split(tree):
            if not isinstance(node, ast.Constant):   # a bare number has no kernel
                _term(sign, node, source, shapes, row)
        return tree
    except SyntaxError as exc:
        offset = max(min(exc.offset - 1 if exc.offset else len(source), len(source) - 1), 0)
        raise checker.fail(f"syntax error: {exc.msg}", offset) from None
    except RecursionError:
        raise ProblemParseError("expression too long or too deeply nested",
                                line, start + 1) from None


def _split(node, sign=1.0):
    """The signed terms of a checked tree's top-level ``+``/``-`` chain."""
    if isinstance(node, ast.UnaryOp):
        return _split(node.operand, -sign)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _split(node.left, sign) + _split(
            node.right, -sign if isinstance(node.op, ast.Sub) else sign)
    return [(sign, node)]


def _term(sign, node, source, shapes, row):
    """Add a term to ``shapes``: shape -> [kernel source, Hessian keys, terms as
    (row, sign, variables)].  A shape is the term's text without variable
    numbers and the slot of each variable, numbered by first appearance."""
    text = source[node.col_offset:node.end_col_offset]
    found = [int(k) - 1 for k in _VAR_RE.findall(text)]
    variables = list(dict.fromkeys(found))
    shape = (_VAR_RE.sub("x", text), *map(variables.index, found))
    if shape not in shapes:
        slot = {var: j for j, var in enumerate(variables)}
        kernel = _Kernel(slot).source(node, len(shapes)) if shape != ("x", 0) else ("", [])
        shapes[shape] = [*kernel, []]
    shapes[shape][2].append((row, sign, variables))


_TOKEN_RE = re.compile(r"-?[\w.]+")
# phi(u), phi'(u) and phi''(u) over u, v = phi(u) and the exponent p; "_div"
# is 1 / u.  The guards keep u ^ 0 and u ^ 1 from taking u ^ (p - 1) or
# u ^ (p - 2), which fail at u = 0; the compiler folds them for a number p.
_RULES = {
    "sin": ("sin({u})", "cos({u})", "-{v}"),
    "cos": ("cos({u})", "-sin({u})", "-{v}"),
    "exp": ("exp({u})", "{v}", "{v}"),
    "log": ("log({u})", "_div(1.0, {u})", "_div(-1.0, {u} * {u})"),
    "sqrt": ("sqrt({u})", "_div(0.5, {v})", "_div(-0.25, {u} * {v})"),
    "_power": ("_power({u}, {p})", "({p} * _power({u}, {p} - 1.0) if {p} else 0.0)",
               "({p} * ({p} - 1.0) * _power({u}, {p} - 2.0) if {p} * ({p} - 1.0) else 0.0)"),
    "_div": ("_div(1.0, {u})", "-{v} * {v}", "2.0 * {v} * {v} * {v}"),
}


def _negated(node):
    v, d, h = node
    return (_mul("-1.0", v), {k: _mul("-1.0", e) for k, e in d.items()},
            {k: _mul("-1.0", e) for k, e in h.items()})


def _mul(*factors):
    """The product of tokens without unit factors; None (zero) if one is None."""
    if None in factors:
        return None
    negative = sum(f.startswith("-") for f in factors) % 2
    text = " * ".join(f.lstrip("-") for f in factors if f.lstrip("-") != "1.0") or "1.0"
    return "-" + text if negative else text


def _sum(*parts):
    """The sum of the parts that are not None, or None."""
    return " + ".join(p for p in parts if p is not None) or None


class _Kernel:
    """Straight-line float code for one term shape, in sparse forward mode
    over its slots a0, a1, ...: ``k1_<i>`` gives the local partials, ``k2_<i>``
    the local upper-triangle Hessian.  Each computes every value and rule with
    the checked functions, so it fails wherever the term does: sqrt' at 0
    divides by zero, and a variable-free term still evaluates."""

    def __init__(self, slot):
        self.slot, self.lines = slot, []      # (for the Hessian only, code)

    def source(self, node, i):
        """The source of both functions, and the Hessian's (j, l) keys."""
        _, d, h = self.visit(node)
        slots = range(len(self.slot))
        unpack = [f" {''.join(f'a{j}, ' for j in slots)}= a"] if slots else []
        code = []
        for order, out in ((1, [d[j] for j in slots]), (2, [h[k] for k in sorted(h)])):
            code += [f"def k{order}_{i}(a):", *unpack,
                     *(line for second, line in self.lines if order == 2 or not second),
                     f" return ({''.join(e + ', ' for e in out)})"]
        return "\n".join(code), sorted(h)

    def emit(self, expr, second=False):
        """expr itself when it is a token, else a new temporary holding it."""
        if _TOKEN_RE.fullmatch(expr):
            return expr
        self.lines.append((second, f" t{len(self.lines)} = {expr}"))
        return f"t{len(self.lines) - 1}"

    def visit(self, node):
        """(value, {slot: partial}, {(j, l): second partial, j <= l}) as tokens."""
        if isinstance(node, ast.Subscript):
            j = self.slot[node.slice.value]
            return f"a{j}", {j: "1.0"}, {}
        if isinstance(node, ast.Constant):
            return self.emit(repr(node.value).replace("inf", "1e999")), {}, {}
        if isinstance(node, ast.UnaryOp):      # unary -: the checker drops unary +
            return _negated(self.visit(node.operand))
        if isinstance(node, ast.BinOp):
            a, b = self.visit(node.left), self.visit(node.right)
            if isinstance(node.op, ast.Mult):
                return self.product(a, b)
            if isinstance(node.op, ast.Sub):
                b = _negated(b)
            return (self.emit(f"{a[0]} + {b[0]}"), self.merge(a[1], b[1], False),
                    self.merge(a[2], b[2], True))
        name = node.func.id
        args = [self.visit(arg) for arg in node.args]
        if name == "_div":                    # a / b as a * (1 / b)
            return self.product(args[0], self.chain(args[1], name))
        return self.chain(args[0], name, args[1][0] if name == "_power" else None)

    def merge(self, x, y, second):
        out = dict(x)
        for k, e in y.items():
            out[k] = self.emit(f"{out[k]} + {e}", second) if k in out else e
        return out

    def product(self, a, b):
        (va, da, ha), (vb, db, hb) = a, b
        keys = sorted(da.keys() | db.keys())
        d = {k: self.emit(_sum(_mul(vb, da.get(k)), _mul(va, db.get(k)))) for k in keys}
        h = {(j, l): _sum(_mul(va, hb.get((j, l))), _mul(vb, ha.get((j, l))),
                          _mul(da.get(j), db.get(l)), _mul(da.get(l), db.get(j)))
             for j, l in pairs(keys, 2)}
        return self.emit(f"{va} * {vb}"), d, {k: self.emit(e, True) for k, e in h.items() if e}

    def chain(self, u, name, p=None):
        """phi(u) for the rule ``name``; its partials only when u has any."""
        (vu, du, hu), (f0, f1, f2) = u, _RULES[name]
        v = self.emit(f0.format(u=vu, p=p))
        if not du:
            return v, {}, {}
        g1 = self.emit(f1.format(u=vu, v=v, p=p))
        g2 = self.emit(f2.format(u=vu, v=v, p=p), True)
        d = {k: self.emit(_mul(g1, e)) for k, e in du.items()}
        h = {(j, l): _sum(_mul(g1, hu.get((j, l))), _mul(g2, du[j], du[l]))
             for j, l in pairs(sorted(du), 2)}
        return v, d, {key: self.emit(e, True) for key, e in h.items()}


def _function(trees):
    """Compile expression trees into one ``x -> [value, ...]``, x a list of
    floats as the kernels take: on numpy scalars a complex power is nan."""
    code = ast.parse("lambda x: []", mode="eval")
    code.body.body.elts = trees
    return eval(compile(code, "<problem>", "eval"), _NAMESPACE)


def _scatter(index, weights, rows, n):
    """The weights summed at flat ``index`` into (rows, n): floats, even for none."""
    return np.bincount(index, weights, rows * n).astype(float, copy=False).reshape(rows, n)


def _oracles(shapes, n, r, s):
    """The derivative and curvature oracles over the terms in ``shapes``, in
    rows objective (0), inequalities (1..r) and equalities."""
    namespace = dict(_NAMESPACE)
    exec(compile("\n".join(src for src, _, _ in shapes.values()),
                 "<problem kernels>", "exec"), namespace)
    offset = {"min": 0, "ineq": 1, "eq": 1 + r}
    slots = []                      # the slot variables of each term, per shape
    # for each entry the kernels return, flat: (row * n + variable, sign) and
    # (1, row, p, q, sign); an off-diagonal Hessian entry also (0, row, q, p, sign)
    d_entries, h_entries = [], []
    for _, keys, terms in shapes.values():
        slots.append(np.array([variables for _, _, variables in terms], dtype=np.intp))
        for (keyword, index), sign, variables in terms:
            row = offset[keyword] + index
            for var in variables:
                d_entries += (row * n + var, sign)
            for j, l in keys:
                p, q = variables[j], variables[l]
                h_entries += (1, row, p, q, sign) + (0, row, q, p, sign) * (p != q)
    d = np.array(d_entries, dtype=float).reshape(-1, 2)
    d_index, d_sign = d[:, 0].astype(np.intp), d[:, 1]
    h = np.array(h_entries, dtype=float).reshape(-1, 5)
    (primary, h_row, h_p, h_q), h_sign = h[:, :4].T.astype(np.intp), h[:, 4]
    h_src = np.cumsum(primary) - 1  # the returned entry each one scatters
    h_pq, h_rp = h_p * n + h_q, h_row * n + h_p

    def run(order, theta):
        x = np.asarray(theta, dtype=float)
        return np.fromiter(chain.from_iterable(
            chain.from_iterable(map(namespace[f"k{order}_{i}"], x[idx].tolist()))
            if shape != ("x", 0) else [1.0] * len(idx) * (order == 1)   # partial 1, no Hessian
            for i, (shape, idx) in enumerate(zip(shapes, slots))), float)

    def derivatives(theta):
        jac = _scatter(d_index, run(1, theta) * d_sign, 1 + r + s, n)
        return jac[0], jac[1:1 + r], jac[1 + r:]

    def curvature(theta, pi_e, pi_i, v):
        entries = run(2, theta)[h_src] * h_sign
        weights = np.concatenate(([1.0], pi_i, pi_e))
        w = _scatter(h_pq, entries * weights[h_row], n, n)
        hv = _scatter(h_rp, entries * np.asarray(v, dtype=float)[h_q], 1 + r + s, n)
        return w, hv[1:1 + r], hv[1 + r:]

    return derivatives, curvature


def parse_problem(text, name="problem"):
    """Parse problem-file text into an NlpProblem whose derivative and
    curvature oracles run the kernels generated for its term shapes.  No
    point is evaluated here: a domain error shows where the solver meets it."""
    n = None
    sources = {"min": [], "ineq": [], "eq": []}
    trees = {"min": [], "ineq": [], "eq": []}
    shapes = {}
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
        trees[keyword].append(_expression(rest, lineno, n, start, shapes,
                                          (keyword, len(trees[keyword]))))
        sources[keyword].append(rest)

    if n is None:
        raise ProblemParseError("missing var declaration", 1, 1)
    if not sources["min"]:
        raise ProblemParseError("missing min declaration", 1, 1)

    f_fn, g_fn, h_fn = (_function(trees[k]) for k in sources)

    def objective(theta):
        return f_fn(theta.tolist())[0]

    def inequalities(theta):
        return np.array(g_fn(theta.tolist()), dtype=float)

    def equalities(theta):
        return np.array(h_fn(theta.tolist()), dtype=float)

    derivatives, curvature = _oracles(shapes, n, len(trees["ineq"]), len(trees["eq"]))
    # the declarations as written, comments dropped, for serialize_problem
    declared = "".join(f"{key} {rest}\n" for key, texts in sources.items() for rest in texts)
    return NlpProblem(name=name, n=n, r=len(trees["ineq"]), s=len(trees["eq"]),
                      objective=objective, inequalities=inequalities,
                      equalities=equalities, derivatives=derivatives,
                      curvature=curvature, text=f"var {n}\n{declared}")


def serialize_problem(problem):
    """Render a parsed problem back to problem-file text, expressions as written."""
    if problem.text is None:
        raise ProblemParseError("only problems built by parse_problem can be serialized")
    return problem.text
