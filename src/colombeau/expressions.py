"""Tiny arithmetic expression grammar for config files.

Grammar: decimal numbers, variables, ``+ - * / ^`` (or ``**``), parentheses,
unary signs and ``sin``, ``cos``, ``exp``, ``pow``.  Text is parsed by
``ast`` and checked node by node; nothing is executed as code.  Compiled
expressions evaluate on scalars or numpy arrays.
"""

import ast
import operator
import re

import numpy as np

from .errors import ConfigError

_DECIMAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "pow": np.power,
}

_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: np.power,
}


def _segment(node, line):
    """The source text of a node of the one-line source, given as UTF-8 bytes."""
    return line[node.col_offset:node.end_col_offset].decode()


def _compile(node, line, names, exponent=False):
    """env -> value for a node of the grammar.  Its variables go to names,
    each mapped to whether it appears in an exponent."""
    if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(_segment(node, line)):
        value = float(node.value)
        return lambda env: value
    if isinstance(node, ast.Name):
        names[node.id] = names.get(node.id, False) or exponent
        return lambda env: _variable(env, node.id)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left = _compile(node.left, line, names, exponent)
        right = _compile(node.right, line, names, exponent or op is np.power)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _compile(node.operand, line, names, exponent)
        return (lambda env: -operand(env)) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS:
        want = 2 if node.func.id == "pow" else 1
        if node.keywords or len(node.args) != want:
            raise ConfigError(f"{node.func.id} takes {want} argument(s)")
        fn = _FUNCTIONS[node.func.id]
        args = [_compile(a, line, names, exponent or i == 1) for i, a in enumerate(node.args)]
        return lambda env: fn(*[a(env) for a in args])
    raise ConfigError(f"not allowed in an expression: {_segment(node, line)!r}")


def _variable(env, name):
    try:
        return env[name]
    except KeyError:
        raise ConfigError(f"unknown variable {name!r}") from None


class Expression:
    """A compiled expression; call with keyword variables or an env dict."""

    def __init__(self, text):
        self.text = text
        source = " ".join(text.split()).replace("^", "**")
        try:
            tree = ast.parse(source, mode="eval").body
        except (SyntaxError, ValueError) as exc:
            raise ConfigError(f"cannot parse expression {text!r}: {exc}") from None
        names = {}
        self._fn = _compile(tree, source.encode(), names)
        self.variables = set(names)
        # eps among these keeps a config net on its per-eps path (see cli)
        self.exponent_variables = {name for name, power in names.items() if power}

    def __call__(self, env=None, **vars):
        return self._fn(vars if env is None else env)

    def __repr__(self):
        return f"Expression({self.text!r})"


def compile_expression(text: str) -> Expression:
    return Expression(text)
