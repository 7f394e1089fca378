"""Layer tracing from outside the library.

The tracer wraps the public functions of each cliffrep layer.  Class methods
are replaced on the class; module functions are replaced in every cliffrep
namespace that holds them, because ``from .x import y`` binds the function
into the importing module.  Each call records a span (name, start, end,
parent span, operation id) in memory; the spans are aggregated into
per-layer self times and counters when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric stem -> (module, attribute path); the stem's first part is the layer
TARGETS = {
    "algebra.Multivector.mul": ("cliffrep.algebra", "Multivector.__mul__"),
    "algebra.SplitBasis.decompose": ("cliffrep.algebra", "SplitBasis.decompose"),
    "algebra.LinearSolver.solve": ("cliffrep.algebra", "LinearSolver.solve"),
    "catalog.get_spec": ("cliffrep.catalog", "get_spec"),
    "catalog.MvMatrix.mul": ("cliffrep.catalog", "MvMatrix.__mul__"),
    "catalog.TransformPair.identity_defect": ("cliffrep.catalog", "TransformPair.identity_defect"),
    "represent.represent": ("cliffrep.represent", "represent"),
    "represent.represent_with": ("cliffrep.represent", "represent_with"),
    "represent.reconstruct": ("cliffrep.represent", "reconstruct"),
    "represent.basis_table": ("cliffrep.represent", "basis_table"),
    "represent.element_inverse": ("cliffrep.represent", "element_inverse"),
    "represent.element_det": ("cliffrep.represent", "element_det"),
    "represent.element_charpoly": ("cliffrep.represent", "element_charpoly"),
    # BlockPair products delegate to RingMatrix.__mul__ blockwise
    "rings.RingMatrix.mul": ("cliffrep.rings", "RingMatrix.__mul__"),
    "rings.mat_inverse": ("cliffrep.rings", "mat_inverse"),
    "rings.mat_det": ("cliffrep.rings", "mat_det"),
    "rings.char_poly": ("cliffrep.rings", "char_poly"),
    "rings.format_matrix": ("cliffrep.rings", "format_matrix"),
    "text.parse_multivector": ("cliffrep.text", "parse_multivector"),
    "verify.oracle_represent": ("cliffrep.verify", "oracle_represent"),
    "verify.check_transform_pair": ("cliffrep.verify", "check_transform_pair"),
    "verify.check_similarity": ("cliffrep.verify", "check_similarity"),
    "verify.check_homomorphism": ("cliffrep.verify", "check_homomorphism"),
    "verify.check_unit": ("cliffrep.verify", "check_unit"),
    "verify.check_faithfulness": ("cliffrep.verify", "check_faithfulness"),
    "verify.check_round_trip": ("cliffrep.verify", "check_round_trip"),
    "verify.check_inverse_pullback": ("cliffrep.verify", "check_inverse_pullback"),
    "verify.check_cayley_hamilton": ("cliffrep.verify", "check_cayley_hamilton"),
}

# memo lookups: a call returning an object never returned before is a miss
CACHED = ("catalog.get_spec", "represent.basis_table")

LAYERS = ("algebra", "catalog", "represent", "rings", "text", "verify")

SETUP_OP = -1


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for stem in TARGETS:
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.self_s"] = "s"
        if stem in CACHED:
            units[f"{stem}.build_s"] = "s"
            units[f"{stem}.hit_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, miss flag]
        self.spans: list[list] = []
        self.op = SETUP_OP
        self.paused = False  # set while the benchmark checks an output
        self._stack: list[int] = []
        self._seen: dict[str, dict[int, object]] = {name: {} for name in CACHED}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        seen = self._seen.get(name)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if seen is not None and id(result) not in seen:
                seen[id(result)] = result
                span[5] = True
            return result

        return traced

    def install(self, namespaces=()) -> None:
        """Wrap every target; ``namespaces`` are extra lookup tables to patch."""
        modules = [m for key, m in sys.modules.items() if key.startswith("cliffrep") and m]
        modules += list(namespaces)
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, wall_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics over the timed operations (op id >= 0).

        Hit ratios and build times also count the set-up phase, where the
        memo tables are filled.  Self time is a span's duration minus its
        children's; the unattributed remainder is the traced wall time not
        covered by any top-level span, so the layer self times and the
        remainder add up to the traced wall time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op, miss in spans:
            if parent >= 0:
                child[parent] += end - start
        values = {name: 0.0 for name in metric_units()}
        hits = {name: [0, 0] for name in CACHED}  # [hits, calls]
        top_level = 0.0
        for index, (name, start, end, parent, op, miss) in enumerate(spans):
            if name in hits:
                hits[name][1] += 1
                if not miss:
                    hits[name][0] += 1
                elif not self._inside(index, name):
                    values[f"{name}.build_s"] += end - start
            if op == SETUP_OP:
                continue
            values[f"{name}.calls"] += 1
            own = end - start - child[index]
            values[f"{name}.self_s"] += own
            values[f"{name.split('.')[0]}.self_s"] += own
            if parent < 0:
                top_level += end - start
        for name, (count, calls) in hits.items():
            values[f"{name}.hit_ratio"] = count / calls if calls else 0.0
        values["trace.wall_s"] = wall_s
        values["trace.unattributed_s"] = wall_s - top_level
        values["trace.overhead_s"] = wall_s - untraced_s
        return values

    def _inside(self, index: int, name: str) -> bool:
        """True when an enclosing span has the same name (nested build)."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
