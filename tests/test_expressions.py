"""The config expression grammar, pinned by a generated corpus.

Each generated tree is rendered with the fewest parentheses its
precedence needs (plus some redundant ones), compiled, and compared
bitwise with a direct numpy evaluation of the same tree.
"""

import random

import numpy as np
import pytest

from colombeau.errors import ConfigError
from colombeau.expressions import compile_expression

NAMES = ("x", "eps", "y", "t_1")
LITERALS = ("3", "0.5", "2.25", "1e-3", "1.5E2", ".75", "4.", "10", "0.125e1")
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pow": np.power}
ENV = {
    "x": np.linspace(-2.0, 2.0, 9),
    "eps": 0.25,
    "y": np.linspace(0.1, 1.7, 9),
    "t_1": np.array(1.5),
}
# binding strength of a rendered node: sum < product < unary < power < atom
SUM, TERM, UNARY, POWER, ATOM = range(1, 6)


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ("num", rng.choice(LITERALS))
        return ("var", rng.choice(NAMES))
    pick = rng.random()
    if pick < 0.5:
        op = rng.choice(("+", "-", "*", "/", "^", "**"))
        return ("bin", op, _tree(rng, depth - 1), _tree(rng, depth - 1))
    if pick < 0.65:
        return ("unary", rng.choice("+-"), _tree(rng, depth - 1))
    if pick < 0.75:
        return ("paren", _tree(rng, depth - 1))
    name = rng.choice(tuple(FUNCTIONS))
    args = [_tree(rng, depth - 1) for _ in range(2 if name == "pow" else 1)]
    return ("call", name, args)


def _render(node):
    """(text, binding strength) with parentheses only where needed."""
    head = node[0]
    if head in ("num", "var"):
        return node[1], ATOM
    if head == "paren":
        return f"({_render(node[1])[0]})", ATOM
    if head == "call":
        return f"{node[1]}({', '.join(_render(a)[0] for a in node[2])})", ATOM
    if head == "unary":
        return node[1] + _wrap(node[2], UNARY), UNARY
    op, a, b = node[1:]
    if op in ("^", "**"):
        return f"{_wrap(a, ATOM)} {op} {_wrap(b, UNARY)}", POWER
    level = SUM if op in "+-" else TERM
    return f"{_wrap(a, level)} {op} {_wrap(b, level + 1)}", level


def _wrap(node, need):
    text, strength = _render(node)
    return text if strength >= need else f"({text})"


def _direct(node):
    head = node[0]
    if head == "num":
        return float(node[1])
    if head == "var":
        return ENV[node[1]]
    if head == "paren":
        return _direct(node[1])
    if head == "call":
        return FUNCTIONS[node[1]](*[_direct(a) for a in node[2]])
    if head == "unary":
        v = _direct(node[2])
        return -v if node[1] == "-" else v
    op, a, b = node[1], _direct(node[2]), _direct(node[3])
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return np.power(a, b)


def _names(node):
    head = node[0]
    if head == "var":
        return {node[1]}
    if head == "num":
        return set()
    children = node[2] if head == "call" else [c for c in node[1:] if isinstance(c, tuple)]
    return set().union(*(_names(c) for c in children))


def _exponent_names(node):
    """Variables right of ``^`` or ``**``, or in pow's second argument."""
    head = node[0]
    if head in ("num", "var"):
        return set()
    children = node[2] if head == "call" else [c for c in node[1:] if isinstance(c, tuple)]
    out = set().union(*(_exponent_names(c) for c in children))
    if head == "bin" and node[1] in ("^", "**"):
        out |= _names(node[3])
    if head == "call" and node[1] == "pow":
        out |= _names(node[2][1])
    return out


def _outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return fn(), None
        except ArithmeticError as exc:
            return None, type(exc)


def test_generated_corpus_matches_direct_numpy_evaluation():
    rng = random.Random(20260)
    for _ in range(3000):
        tree = _tree(rng, rng.randint(1, 5))
        text = _render(tree)[0]
        ex = compile_expression(text)
        assert ex.variables == _names(tree), text
        assert ex.exponent_variables == _exponent_names(tree), text
        got, got_exc = _outcome(lambda: ex(ENV))
        want, want_exc = _outcome(lambda: _direct(tree))
        assert got_exc == want_exc, text
        if want_exc is None:
            assert np.array_equal(got, want, equal_nan=True), text


def test_keyword_variables_and_env_agree():
    ex = compile_expression("x ^ 2 - eps")
    assert np.array_equal(ex(x=ENV["x"], eps=0.25), ex(ENV))


def test_missing_variable_is_a_config_error():
    with pytest.raises(ConfigError):
        compile_expression("x + y")(x=1.0)


@pytest.mark.parametrize("text", [
    "x +", "(x", "x)", "2 3", "foo(x)", "sin(x, 1)", "pow(x)", "sin(x=1)",
    "__import__(x)", "x.real", "x[0]", "x < 1", "x // 2", "x % 2", "1j",
    "'a'", "0x10", "1_0", "lambda: 1", "",
])
def test_outside_the_grammar_is_a_config_error(text):
    with pytest.raises(ConfigError):
        compile_expression(text)


@pytest.mark.parametrize("text, message", [
    ("foo(x)", "not allowed in an expression: 'foo(x)'"),
    ("sin(x, 1)", "sin takes 1 argument(s)"),
    ("x\n+ 0x1f", "not allowed in an expression: '0x1f'"),
    ("  cos(x)  ^ 1_000", "not allowed in an expression: '1_000'"),
    # the offsets of the ast count UTF-8 bytes
    ("\u00e9 * '\u00fc' + x", "not allowed in an expression: \"'\u00fc'\""),
    ("exp(x) ** {'\u00e9': 2}", "not allowed in an expression: \"{'\u00e9': 2}\""),
])
def test_a_config_error_quotes_the_offending_source(text, message):
    with pytest.raises(ConfigError) as info:
        compile_expression(text)
    assert str(info.value) == message
