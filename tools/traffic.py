"""The src/ functions that real traffic does not reach.

Usage, from the repository root:

    python3 tools/traffic.py

Runs, in one process under a ``sys.settrace`` line trace, the CLI commands
``catalog``, ``catalog --corrections``, ``verify --all --seed 0 --trials 1``,
``rep``, ``inverse``, ``table`` and ``classify``, then two checked rounds of
each benchmark workload: perfbench's own workload classes, warmed by their
own warmers and run by ``run.py``'s ``Loop`` over the library that
``run.py``'s ``import_library`` loads.  It then prints each function of
src/cliffrep of which no line ran, as ``path:line name``.  A function's
lines are its body's, less the bodies of the functions nested in it.

Standard library only; it writes no files (bytecode writing is off), and it
exits 1 when a command fails or a workload's check fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliffrep"
COMMANDS = (
    ["catalog"],
    ["catalog", "--corrections"],
    ["verify", "--all", "--seed", "0", "--trials", "1"],
    ["rep", "--sig", "3,1", "1 + 2*e1*e2 - 3/2*eps1"],
    ["inverse", "--sig", "2,1", "2 + e1 - e2*eps1"],
    ["table"],
    ["classify", "--sig", "9,0"],
)
ROUNDS = 2


def _body_lines(fn: ast.FunctionDef) -> set[int]:
    """The lines of a function's statements, its docstring left out."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return {line for stmt in body for line in range(stmt.lineno, stmt.end_lineno + 1)}


def unreached(source: str, hits: set[int]) -> list[tuple[int, str]]:
    """(line, qualified name) of each function in ``source`` none of whose
    own lines is in ``hits``, in source order."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                own = _body_lines(child)
                for inner in ast.walk(child):
                    if inner is not child and isinstance(inner, ast.FunctionDef):
                        own -= _body_lines(inner)
                if not own & hits:
                    found.append((child.lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def traced_lines(work) -> dict[str, set[int]]:
    """The lines of each src/cliffrep file that ran while ``work()`` ran."""
    hits: dict[str, set[int]] = {}
    prefix = str(SRC)

    def on_line(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
    return hits


def traffic() -> None:
    """The CLI commands, then ROUNDS checked rounds of every workload."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(SRC.parent)]
    from run import Loop, import_library
    from workloads import WORKLOADS

    from cliffrep.cli import main

    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"error: cliffrep {' '.join(argv)} exited {code}")
    lib = import_library()
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(lib)
        for _, warm in workload.warmers():
            warm()
        loop = Loop(workload, seed=0)
        loop.run(rounds=ROUNDS)
        if loop.failures:
            raise SystemExit(f"error: {name}: {loop.failures[0]}")


def main() -> int:
    sys.dont_write_bytecode = True
    hits = traced_lines(traffic)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        total += len(unreached(source, set()))
        for line, name in unreached(source, hits.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line} {name}")
    print(f"{missed} of {total} functions in {SRC.relative_to(ROOT)} had no line run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
