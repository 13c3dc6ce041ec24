#!/usr/bin/env python3
"""Which lines of the library does real traffic never enter?

    python3 tools/line_trace.py

In one process, under a ``sys.settrace`` line tracer, this runs every
caller the library has outside its tests:

- the eight CLI commands (``classify``, ``equiv``, ``vb-equiv``,
  ``hybrid-equiv``, ``pointvals``, ``associate``, ``ppwave``, ``suite``) on
  the built-in config;
- the five demos under ``demos/``;
- one seed-0 pass of each perfbench workload (``maps``, ``bundles``,
  ``weak-limits``), its defect probe included, built from
  ``perfbench/workloads.py`` as imported.

It then prints every line of ``src/colombeau`` that holds code and was never
entered, as ``file:line: source``, grouped by the function it sits in.  Such
a line guards no verdict of any caller: delete it, give it a caller, or say
why it stays.  Last it prints the functions of which no line was entered,
one ``module.qualname`` a line; ``tests/test_line_trace.py`` holds that set
to an allow-list.  All output files go to a temporary directory.  A run took
about 6 s on a shared 2-CPU x86_64 host.
"""

import contextlib
import io
import os
import runpy
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "colombeau"
CLI_COMMANDS = ("classify", "equiv", "vb-equiv", "hybrid-equiv", "pointvals",
                "associate", "ppwave", "suite")
WORKLOADS = ("maps", "bundles", "weak-limits")


def _tracer(entered):
    """A settrace function recording (file, line) for the package's frames."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            entered[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        entered[name].add(frame.f_lineno)
        return local

    return global_


def _run_traffic(workdir):
    """Every caller outside the tests, with stdout swallowed."""
    from colombeau.cli import main
    from colombeau.errors import ColombeauError

    for cmd in CLI_COMMANDS:
        main([cmd, "--out", str(workdir / "cli" / cmd)])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS as catalog

    for name in WORKLOADS:
        w = catalog[name]
        spec = w.generate(0)
        out = workdir / "perfbench" / name
        out.mkdir(parents=True)
        objs = w.build(spec, out)
        for v in w.verdicts(spec):
            try:
                v.run(objs)
            except ColombeauError:
                pass


def _code_lines(code):
    """{line: name of the innermost function} for every line that holds
    bytecode of ``code`` or of a code object nested in it.  A function's
    own first line (its ``def``, or its first decorator) is left to the
    enclosing code, which runs it when it defines the function."""
    lines = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines.update(_code_lines(const))
    own_def = None if code.co_name == "<module>" else code.co_firstlineno
    for _, _, line in code.co_lines():
        if line is not None and line != own_def:
            lines.setdefault(line, code.co_qualname)
    return lines


def never_entered(entered):
    """([(file, line, function, source)] of the package's code lines that
    ``entered`` does not hold, [module.function] of the functions of which
    it holds no line)."""
    rows, functions = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = _code_lines(compile(text, str(path), "exec"))
        source = text.splitlines()
        seen = entered.get(str(path), set())
        rows += [(path.relative_to(ROOT), line, where, source[line - 1].strip())
                 for line, where in sorted(lines.items()) if line not in seen]
        reached = {where for line, where in lines.items() if line in seen}
        functions += [f"{path.stem}.{where}"
                      for where in sorted(set(lines.values()) - reached)]
    return rows, functions


def main():
    sys.path.insert(0, str(SRC))
    if any(m == "colombeau" or m.startswith("colombeau.") for m in sys.modules):
        raise SystemExit("line_trace: colombeau was imported before tracing")
    entered = defaultdict(set)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cwd = os.getcwd()
        os.chdir(workdir)  # demo 05 writes its CSV into the working directory
        sys.settrace(_tracer(entered))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _run_traffic(workdir)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    rows, functions = never_entered(entered)
    last = None
    for path, line, where, text in rows:
        if (path, where) != last:
            print(f"{path} {where}:")
            last = (path, where)
        print(f"  {path}:{line}: {text}")
    print(f"{len(rows)} code lines of {PACKAGE.relative_to(ROOT)} never entered")
    print(f"{len(functions)} functions of {PACKAGE.relative_to(ROOT)} never entered:")
    for name in functions:
        print(f"  {name}")


if __name__ == "__main__":
    main()
