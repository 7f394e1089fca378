"""The report of tools/traffic.py on a fixed source and hit set, with no trace run."""

from pathlib import Path

import pytest

TRAFFIC = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"

SOURCE = '''\
def used(x):
    """A docstring line is no line of the body."""
    return x


def unused():
    return 1


class Box:
    def get(self):
        return 1

    @property
    def size(self):
        def inner():
            return 2
        return inner()


def outer():
    def helper():
        return 3
    return helper
'''


@pytest.fixture(scope="module")
def unreached():
    # exec the source rather than import it, so nothing is written beside it
    namespace = {"__name__": "traffic", "__file__": str(TRAFFIC)}
    exec(compile(TRAFFIC.read_text(), str(TRAFFIC), "exec"), namespace)
    return namespace["unreached"]


def test_every_function_is_unreached_with_no_hits(unreached):
    assert unreached(SOURCE, set()) == [
        (1, "used"), (6, "unused"), (11, "Box.get"), (15, "Box.size"),
        (16, "Box.size.inner"), (21, "outer"), (22, "outer.helper"),
    ]


def test_a_hit_reaches_only_the_innermost_function_that_owns_its_line(unreached):
    # line 17 is inner's alone; line 22, the nested def itself, is outer's
    assert unreached(SOURCE, {3, 17, 22}) == [
        (6, "unused"), (11, "Box.get"), (15, "Box.size"), (22, "outer.helper"),
    ]


def test_decorator_def_and_docstring_lines_reach_nothing(unreached):
    # these lines run when the module or class body runs, not the function
    assert unreached(SOURCE, {1, 2, 11, 14, 15}) == unreached(SOURCE, set())
