"""The benchmark tracer looks library functions up by name; every one resolves."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    # exec the source rather than import it, so nothing is written beside it
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert len(targets) == 28
    for stem, (module_name, path) in targets.items():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{stem}: {module_name}.{path} stops at {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), stem
