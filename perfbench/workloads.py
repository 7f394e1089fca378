"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations come in rounds of fixed
composition; a round's inputs are generated from the seed and the round
number before the round is timed, with the benchmark's own generator.
Every output is checked outside the timed region.

Library modules are imported lazily by the caller (run.py) so that set-up
time covers the import.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Callable, NamedTuple


class Op(NamedTuple):
    label: str  # e.g. "(3,3) dense"; used for the per-label breakdown
    run: Callable[[], object]
    check: Callable[[object], bool]


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))


def dense_terms(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Every blade for n <= 6, else 64 random blades."""
    masks = range(1 << n) if n <= 6 else {rng.randrange(1 << n) for _ in range(64)}
    return {m: random_coeff(rng) for m in masks}


def sparse_terms(rng: random.Random, n: int) -> dict[int, Fraction]:
    return {rng.randrange(1 << n): random_coeff(rng) for _ in range(rng.randint(2, 5))}


def single_terms(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Alternately a unit generator and a random blade with a coefficient."""
    if rng.random() < 0.5:
        return {1 << rng.randrange(n): Fraction(1)}
    return {rng.randrange(1, 1 << n): random_coeff(rng)}


def expression(p: int, q: int, terms: dict[int, Fraction]) -> str:
    """Render terms in the CLI's expression grammar (``3/2*e12*eps1``)."""
    chunks = []
    for mask, coeff in sorted(terms.items()):
        pos = [i + 1 for i in range(p) if mask >> i & 1]
        neg = [i + 1 for i in range(q) if mask >> (p + i) & 1]
        names = [f"e{i}" for i in pos] + [f"eps{i}" for i in neg]
        body = "*".join([f"{abs(coeff)}"] + names)
        chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks).removeprefix("+ ")


def warm_sign_table(lib, sig) -> None:
    g = lib.Multivector.generator(sig, 1)
    _ = g * g


# ---------------------------------------------------------------------------
# real forms for the benchmark's own determinant check


def real_rows(value) -> list[list[Fraction]]:
    """Real matrix of a ring matrix; doubled rings as a block diagonal."""
    if hasattr(value, "plus"):
        plus, minus = real_rows(value.plus), real_rows(value.minus)
        n, m = len(plus), len(minus)
        return [row + [Fraction(0)] * m for row in plus] + [[Fraction(0)] * n + row for row in minus]
    rows = []
    for row in value.rows:
        blocks = [_real_block(value.ring, s) for s in row]
        for sub in range(len(blocks[0])):
            rows.append([v for block in blocks for v in block[sub]])
    return rows


def _real_block(ring: str, s) -> tuple[tuple[Fraction, ...], ...]:
    r, i, j, k = s.r, s.i, s.j, s.k
    if ring == "R":
        return ((r,),)
    if ring == "C":
        return ((r, -i), (i, r))
    return ((r, -i, -j, -k), (i, r, -k, j), (j, k, r, -i), (k, -j, i, r))


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    work = [list(r) for r in rows]
    n = len(work)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        head = work[col][col]
        result *= head
        for r in range(col + 1, n):
            factor = work[r][col] / head
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return result


# ---------------------------------------------------------------------------
# rep-stream: parse -> represent -> format_matrix, as `cliffrep rep` does


class RepStream:
    """`cliffrep rep` traffic served in-process, one element per operation."""

    name = "rep-stream"
    # the ROADMAP layer set without (17,0); (0,2) uses its real4 route
    SIGNATURES = ((2, 1, None), (0, 2, "real4"), (3, 3, None), (0, 6, None),
                  (7, 0, None), (8, 0, None), (5, 5, None), (9, 0, None), (8, 1, None))
    # The four widest signatures take two elements of each density a round.
    # With one, the median latency sat on the gap between (7,0) sparse and
    # (7,0) dense and moved with every shift in machine speed; with two it
    # falls inside the (8,0)/(8,1) band.
    ELEMENTS = {(8, 0): 2, (5, 5): 2, (9, 0): 2, (8, 1): 2}
    DENSITIES = (("single", single_terms), ("sparse", sparse_terms), ("dense", dense_terms))

    def __init__(self, lib):
        self.lib = lib
        self.sigs = {(p, q): lib.Signature(p, q) for p, q, _ in self.SIGNATURES}

    def warmers(self) -> list[tuple[str, Callable[[], None]]]:
        return [(f"({p},{q})", lambda p=p, q=q, route=route: self._warm(p, q, route))
                for p, q, route in self.SIGNATURES]

    def _warm(self, p, q, route):
        sig = self.sigs[p, q]
        self.lib.get_spec(sig, route)
        warm_sign_table(self.lib, sig)

    def round(self, seed: int, index: int) -> list[Op]:
        rng = round_rng(self.name, seed, index)
        ops = []
        for p, q, route in self.SIGNATURES:
            for _ in range(self.ELEMENTS.get((p, q), 1)):
                single = None
                for density, make in self.DENSITIES:
                    terms = make(rng, p + q)
                    single = single or terms
                    # wide images are checked on a fixed sample: round 0
                    sample = single if index == 0 else None
                    ops.append(self._op(p, q, route, density, terms, sample))
        rng.shuffle(ops)
        return ops

    def _op(self, p, q, route, density, terms, sample) -> Op:
        lib, sig = self.lib, self.sigs[p, q]
        source = expression(p, q, terms)

        def run():
            a = lib.parse_multivector(sig, source)
            image = lib.represent(a, route)
            return image, lib.format_matrix(image.value)

        def check(out) -> bool:
            image, text = out
            if text.split("\n", 1)[0] != str(lib.get_spec(sig, route).target):
                return False
            if sig.n <= 6:
                return dict(lib.reconstruct(image).terms()) == terms
            if sample is None:
                return True
            # rho(b) rho(a) == rho(b a) with b the round's single element
            a, b = lib.Multivector(sig, terms), lib.Multivector(sig, sample)
            left = lib.represent(b, route).value * image.value
            return left == lib.represent(b * a, route).value

        return Op(f"({p},{q}) {density}", run, check)

    @staticmethod
    def corrupt(out):
        image, text = out
        return dataclasses.replace(image, value=image.value * 2), text


# ---------------------------------------------------------------------------
# pullback: matrix-to-algebra calls on dense elements


class Pullback:
    """Inverse, determinant, characteristic polynomial and reconstruction."""

    name = "pullback"
    # every target ring with n <= 6: 2R, C, R(4) twice, H, R(8) twice.  The
    # signatures with n <= 4 take five elements a round, the R(8) ones two.
    # With one element each, the median latency sat on the gap between the
    # R(4) determinants (7 ms) and the R(4) inverses (16 ms); with five and
    # two, the median falls among the small-ring calls and the p90 among the
    # R(8) inverses, both dense bands.
    SIGNATURES = ((2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3), (0, 6))

    def __init__(self, lib):
        self.lib = lib
        self.sigs = {pq: lib.Signature(*pq) for pq in self.SIGNATURES}

    def warmers(self) -> list[tuple[str, Callable[[], None]]]:
        return [(f"({p},{q})", lambda p=p, q=q: self._warm(p, q)) for p, q in self.SIGNATURES]

    def _warm(self, p, q):
        sig = self.sigs[p, q]
        self.lib.get_spec(sig)
        self.lib.basis_table(sig)
        warm_sign_table(self.lib, sig)

    def round(self, seed: int, index: int) -> list[Op]:
        rng = round_rng(self.name, seed, index)
        ops = []
        for pq in self.SIGNATURES:
            for _ in range(5 if sum(pq) <= 4 else 2):
                a = self.lib.Multivector(self.sigs[pq], dense_terms(rng, sum(pq)))
                ops += self._ops(pq, a)
        rng.shuffle(ops)
        return ops

    def _ops(self, pq, a) -> list[Op]:
        """The calls the target ring supports, on one dense element."""
        lib = self.lib
        ring = lib.get_spec(a.sig).target.ring
        label = f"({pq[0]},{pq[1]})"
        ops = [Op(f"{label} inverse", lambda: lib.element_inverse(a),
                  lambda out: self._check_inverse(a, out))]
        if ring in ("R", "C", "2R"):
            ops.append(Op(f"{label} det", lambda: lib.element_det(a),
                          lambda out: self._check_det(a, out)))
        if ring in ("R", "2R"):
            ops.append(Op(f"{label} charpoly", lambda: lib.element_charpoly(a),
                          lambda out: self._check_charpoly(a, out)))
        ops.append(Op(f"{label} reconstruct", lambda: lib.reconstruct(lib.represent(a)),
                      lambda out: out == a))
        return ops

    def _real_det(self, a) -> Fraction:
        return det(real_rows(self.lib.represent(a).value))

    def _check_inverse(self, a, inv) -> bool:
        if inv is None:
            return self._real_det(a) == 0
        one = self.lib.Multivector.scalar(a.sig, 1)
        return a * inv == one and inv * a == one

    def _check_det(self, a, value) -> bool:
        if value.j or value.k:
            return False
        if self.lib.get_spec(a.sig).target.ring == "C":
            # the real form of a complex matrix has determinant |det|^2
            return value.r ** 2 + value.i ** 2 == self._real_det(a)
        return value.i == 0 and value.r == self._real_det(a)

    def _check_charpoly(self, a, coeffs) -> bool:
        size = len(real_rows(self.lib.represent(a).value))
        return (len(coeffs) == size + 1 and coeffs[0] == 1
                and self.lib.charpoly_evaluate(coeffs, a).is_zero)

    @staticmethod
    def corrupt(out):
        if isinstance(out, list):
            return [c * 2 for c in out]
        return out * 2


# ---------------------------------------------------------------------------
# verify-sweep: the maintainer's `cliffrep verify`, one CheckReport per op


class VerifySweep:
    """check_suite's checks over a fixed list of signature/route pairs."""

    name = "verify-sweep"
    # (p, q, route, reports a round): small signatures with every route and
    # the full suite, four reports of each check a round; mid, wide explicit
    # and wide periodic signatures with one.  Every check runs one trial, so
    # a round holds many short reports and the median latency rests on a
    # dense band of them instead of a few scattered ones.
    PAIRS = ((2, 1, None, 4), (2, 2, None, 4), (0, 2, "real4", 4), (0, 2, "quaternion", 4),
             (0, 2, "complex2", 4), (1, 3, None, 4), (3, 3, None, 1), (0, 6, None, 1),
             (7, 0, None, 1), (9, 0, None, 1), (8, 1, None, 1))

    def __init__(self, lib):
        self.lib = lib
        self.sigs = {(p, q): lib.Signature(p, q) for p, q, _, _ in self.PAIRS}

    def warmers(self) -> list[tuple[str, Callable[[], None]]]:
        return [(f"({p},{q}) {route or 'default'}",
                 lambda p=p, q=q, route=route: self._warm(p, q, route))
                for p, q, route, _ in self.PAIRS]

    def _warm(self, p, q, route):
        sig = self.sigs[p, q]
        spec = self.lib.get_spec(sig, route)
        if sig.n <= 6:
            self.lib.basis_table(sig, spec.route)
        warm_sign_table(self.lib, sig)

    @staticmethod
    def checks(sig, ring: str) -> list[str]:
        """The checks check_suite runs for one signature and target ring."""
        out = ["transform", "similarity", "homomorphism", "unit"]
        if sig.n <= 6:
            out += ["faithfulness", "round_trip"]
            if sig.n <= 4:
                out.append("inverse_pullback")
            if ring in ("R", "2R"):
                out.append("cayley_hamilton")
        return out

    def round(self, seed: int, index: int) -> list[Op]:
        rng = round_rng(self.name, seed, index)
        lib = self.lib
        ops = []
        for p, q, route, reports in self.PAIRS:
            sig = self.sigs[p, q]
            spec = lib.get_spec(sig, route)
            for check in self.checks(sig, spec.target.ring) * reports:
                ops.append(Op(f"({p},{q}) {spec.route} {check}",
                              self._runner(check, sig, spec.route, rng.randrange(1 << 30)),
                              lambda report, check=check: report.passed and report.name == check))
        rng.shuffle(ops)
        return ops

    def _runner(self, check, sig, route, seed):
        lib = self.lib
        if check == "transform":
            return lambda: lib.check_transform_pair(lib.get_spec(sig, route))
        fn = getattr(lib, f"check_{check}")
        if check in ("unit", "faithfulness"):
            return lambda: fn(sig, route)
        return lambda: fn(sig, route, trials=1, seed=seed)

    @staticmethod
    def corrupt(report):
        return dataclasses.replace(report, passed=False)


WORKLOADS = {w.name: w for w in (RepStream, Pullback, VerifySweep)}
