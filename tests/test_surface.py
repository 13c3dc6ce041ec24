"""The public surface is what has a caller.

Every top-level definition in ``src/colombeau``, and every method in a
class body, must be reachable by name from the CLI, the acceptance runner,
the demos or the benchmark.  The CLI and acceptance modules are reached
whole; any other root file reaches every name it mentions, identifier-like
strings included (the benchmark's traced mode looks functions up with
``getattr``); a reached definition reaches every name its body mentions.
A method is reached only when its name is mentioned, except dunder
methods, which are reached with their class.  Imports are not references.
Names match across modules, so a dead definition that shares its name
with a live one goes unnoticed, never the reverse.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "colombeau"
ROOT_MODULES = ("cli", "acceptance")


def _methods(node):
    """The methods of a class body that are reached by name, not with it."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        sub for sub in node.body
        if isinstance(sub, ast.FunctionDef)
        and not (sub.name.startswith("__") and sub.name.endswith("__"))
    ]


def _mentioned(node):
    out = set()
    skip = set(map(id, _methods(node)))
    stack = [node]
    while stack:
        sub = stack.pop()
        if id(sub) in skip:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out.add(sub.value)
    return out


def unreachable():
    """(module.name, lines) of every top-level definition and every method
    no root reaches."""
    defs = {}  # name -> [(module or module.Class, node)]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((path.stem, node))
            for method in _methods(node):
                defs.setdefault(method.name, []).append(
                    (f"{path.stem}.{node.name}", method)
                )
    roots = [SRC / f"{m}.py" for m in ROOT_MODULES]
    roots += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    frontier = set().union(*(_mentioned(ast.parse(p.read_text())) for p in roots))
    frontier |= {
        n for n, entries in defs.items()
        if entries[0][0].split(".")[0] in ROOT_MODULES
    }
    reached = set()
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                frontier |= _mentioned(node)
    return sorted(
        (f"{module}.{name}", node.end_lineno - node.lineno + 1)
        for name, entries in defs.items()
        if name not in reached
        for module, node in entries
    )


def test_every_src_definition_has_a_caller():
    dead = unreachable()
    assert dead == [], (
        f"{len(dead)} definitions or methods ({sum(n for _, n in dead)} lines) have no caller "
        "in the CLI, the acceptance runner, the demos or perfbench: "
        + ", ".join(name for name, _ in dead)
    )
