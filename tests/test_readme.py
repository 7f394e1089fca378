"""The README's examples run as written: the library block, every command
line but the whole-catalog verify, and the outputs the README states."""

import re
import shlex
import time
from pathlib import Path

import cliffrep
from cliffrep.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# outputs the README states in a command line's comment
_STATED = {
    ("classify", "--sig", "3,1"): "(3,1) -> R(4)",
    ("inverse", "--sig", "0,2", "1+eps1"): "1/2 - 1/2*eps1",
}


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def _command_lines() -> list[tuple[tuple[str, ...], str]]:
    """Each ``cliffrep`` line as (argv without redirections, comment)."""
    lines = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("cliffrep "):
                command, _, comment = line.partition("#")
                argv = shlex.split(command.partition(">")[0])[1:]
                lines.append((tuple(argv), comment.strip()))
    return lines


def test_readme_examples_run(capsys):
    start = time.perf_counter()
    (library,) = _blocks("python")
    exec(compile(library, "README.md", "exec"), {})
    capsys.readouterr()
    ran = []
    for argv, comment in _command_lines():
        if argv[:2] == ("verify", "--all"):
            continue
        assert main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        if argv in _STATED:
            assert comment == _STATED[argv] and out == _STATED[argv] + "\n", argv
        ran.append(argv)
    assert set(_STATED) <= set(ran)
    assert len(ran) >= 7
    assert [name for name in cliffrep.__all__ if not hasattr(cliffrep, name)] == []
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nREADME examples: {len(ran)} command lines and the library block in {elapsed:.2f} s")
