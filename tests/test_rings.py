"""Exact matrix arithmetic over R, C, H and the doubled rings."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import MvMatrix
from cliffrep.represent import represent
from cliffrep.rings import (
    COMPLEX,
    DOUBLE_QUATERNION,
    DOUBLE_REAL,
    QUATERNION,
    REAL,
    BlockPair,
    InexactDivisionError,
    NumberTooLongError,
    RingMatrix,
    RingMismatchError,
    RingScalar,
    UnsupportedRingError,
    char_poly,
    format_matrix,
    format_scalar,
    from_numerators,
    mat_det,
    mat_inverse,
    poly_eval_matrix,
    ring_embed_real,
    to_numerators,
)
from cliffrep.rings import _divide_exact, _gauss_divide_exact, _product


def _rand_frac(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3)))


def _rand_matrix(ring, size, rng, ncols=None, frac=_rand_frac):
    rank = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[ring]
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size if ncols is None else ncols):
            comps = [frac(rng) for _ in range(rank)]
            if rank == 1:
                row.append(RingScalar.real(comps[0]))
            elif rank == 2:
                row.append(RingScalar.complex_parts(*comps))
            else:
                row.append(RingScalar.quaternion_parts(*comps))
        rows.append(row)
    return RingMatrix(ring, rows)


# -- scalars


def test_quaternion_unit_relations():
    i = RingScalar.quaternion_parts(0, 1, 0, 0)
    j = RingScalar.quaternion_parts(0, 0, 1, 0)
    k = RingScalar.quaternion_parts(0, 0, 0, 1)
    minus_one = RingScalar.quaternion_parts(-1, 0, 0, 0)
    assert i * i == j * j == k * k == minus_one
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j


def test_complex_square():
    i = RingScalar.complex_parts(0, 1)
    assert i * i == RingScalar.complex_parts(-1, 0)


def test_scalar_component_guards():
    with pytest.raises(RingMismatchError):
        RingScalar(REAL, 1, 2)
    with pytest.raises(RingMismatchError):
        RingScalar(COMPLEX, 1, 2, 3)
    with pytest.raises(RingMismatchError):
        RingScalar.real(1) + RingScalar.complex_parts(1, 0)


def test_scalar_inverse():
    q = RingScalar.quaternion_parts(1, 1, 1, 1)
    assert q.inverse() * q == RingScalar.one(QUATERNION)
    assert RingScalar.zero(COMPLEX).inverse() is None


# -- matrix products


def test_identity_product():
    rng = random.Random(0)
    a = _rand_matrix(QUATERNION, 3, rng)
    eye = RingMatrix.identity(QUATERNION, 3)
    assert eye * a == a and a * eye == a


def test_noncommutative_matrix_entries():
    i = RingScalar.quaternion_parts(0, 1, 0, 0)
    j = RingScalar.quaternion_parts(0, 0, 1, 0)
    one, zero = RingScalar.one(QUATERNION), RingScalar.zero(QUATERNION)
    a = RingMatrix(QUATERNION, [[i, zero], [zero, one]])
    b = RingMatrix(QUATERNION, [[j, zero], [zero, one]])
    k = RingScalar.quaternion_parts(0, 0, 0, 1)
    assert (a * b).entry(0, 0) == k
    assert (b * a).entry(0, 0) == -k


def _embed_complex_oracle(m):
    """Test-local 2x2 real-block expansion, kept independent of the library."""
    rows = []
    for row in m.rows:
        top, bottom = [], []
        for s in row:
            top.extend([s.r, -s.i])
            bottom.extend([s.i, s.r])
        rows.append(top)
        rows.append(bottom)
    return rows


def _real_matmul_oracle(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def test_complex_product_against_real_block_oracle():
    rng = random.Random(9)
    for _ in range(20):
        a = _rand_matrix(COMPLEX, 2, rng)
        b = _rand_matrix(COMPLEX, 2, rng)
        got = _embed_complex_oracle(a * b)
        want = _real_matmul_oracle(_embed_complex_oracle(a), _embed_complex_oracle(b))
        assert got == want


def _mixed_frac(rng):
    """Mostly zero, else over a denominator from a wide mixed set."""
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 5, 7, 12, 35)))


def _product_oracle(a, b):
    """RingScalar triple loop, kept independent of the integer kernel."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = RingScalar.zero(a.ring)
            for t in range(a.ncols):
                acc = acc + a.entry(i, t) * b.entry(t, j)
            row.append(acc)
        rows.append(row)
    return RingMatrix(a.ring, rows)


@pytest.mark.parametrize("ring", [REAL, COMPLEX, QUATERNION])
def test_product_matches_scalar_triple_loop(ring):
    rng = random.Random(f"product:{ring}")
    for _ in range(40):
        n, m, p = (rng.randint(1, 4) for _ in range(3))
        a = _rand_matrix(ring, n, rng, m, _mixed_frac)
        b = _rand_matrix(ring, m, rng, p, _mixed_frac)
        assert a * b == _product_oracle(a, b)
    one_by_one = _rand_matrix(ring, 1, rng, frac=_mixed_frac)
    assert one_by_one * one_by_one == _product_oracle(one_by_one, one_by_one)
    a = _rand_matrix(ring, 3, rng, 2, _mixed_frac)
    assert a * RingMatrix.zeros(ring, 2, 4) == RingMatrix.zeros(ring, 3, 4)
    assert RingMatrix.zeros(ring, 1, 3) * a == RingMatrix.zeros(ring, 1, 2)


def test_product_with_zero_component_planes():
    # a complex matrix with real entries only, times one with imaginary
    # entries only: every product of a zero plane must vanish
    rng = random.Random(5)
    parts = [[_mixed_frac(rng) for _ in range(3)] for _ in range(6)]
    re = RingMatrix.from_components(COMPLEX, [[(x, 0) for x in row] for row in parts[:3]])
    im = RingMatrix.from_components(COMPLEX, [[(0, x) for x in row] for row in parts[3:]])
    assert re * im == _product_oracle(re, im) and im * im == _product_oracle(im, im)
    j = RingMatrix.from_components(QUATERNION, [[(0, 0, 1, 0)]])
    k = RingMatrix.from_components(QUATERNION, [[(0, 0, 0, 1)]])
    assert j * k == RingMatrix.from_components(QUATERNION, [[(0, 1, 0, 0)]])


def test_product_mismatches_raise():
    rng = random.Random(6)
    a = _rand_matrix(REAL, 2, rng, 3)
    with pytest.raises(RingMismatchError, match="shape"):
        a * a
    with pytest.raises(RingMismatchError, match="ring"):
        a * _rand_matrix(COMPLEX, 3, rng)
    with pytest.raises(RingMismatchError, match="ring"):
        _rand_matrix(QUATERNION, 2, rng) * _rand_matrix(COMPLEX, 2, rng)


@pytest.mark.parametrize("ring", [REAL, COMPLEX, QUATERNION])
def test_numerator_round_trip(ring):
    rng = random.Random(f"numerators:{ring}")
    a = _rand_matrix(ring, 3, rng, 2, _mixed_frac)
    nums, den = to_numerators(a)
    rank = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[ring]
    assert len(nums) == 6 * rank and all(isinstance(x, int) for x in nums)
    assert all((x * den).denominator == 1 for row in a.rows for s in row for x in s.components())
    assert from_numerators(ring, 2, nums, den) == a
    one = [1] + [0] * (rank - 1)
    zero = [0] * rank
    assert to_numerators(RingMatrix.identity(ring, 2)) == (one + zero + zero + one, 1)


# -- inversion


def test_inverse_examples():
    r = RingMatrix.from_components(REAL, [[0, -1], [1, 0]])
    assert mat_inverse(r) == RingMatrix.from_components(REAL, [[0, 1], [-1, 0]])
    d = RingMatrix.from_components(
        QUATERNION, [[(0, 1, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, 1, 0)]]
    )
    assert mat_inverse(d) == RingMatrix.from_components(
        QUATERNION, [[(0, -1, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, -1, 0)]]
    )


def _det_cofactor_oracle(rows, zero=Fraction(0)):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = zero
    for c in range(n):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        term = rows[0][c] * _det_cofactor_oracle(minor, zero)
        total += term if c % 2 == 0 else -term
    return total


def test_random_inverse_with_adjugate_cross_check():
    rng = random.Random(21)
    for _ in range(10):
        m = _rand_matrix(REAL, 4, rng)
        inv = mat_inverse(m)
        raw = [[s.r for s in row] for row in m.rows]
        det = _det_cofactor_oracle(raw)
        if det == 0:
            assert inv is None
            continue
        eye = RingMatrix.identity(REAL, 4)
        assert m * inv == eye and inv * m == eye
        assert mat_det(m).r == det
        # adjugate cross-check: inv[i][j] * det = cofactor(j, i)
        for i in range(4):
            for j in range(4):
                minor = [r[:i] + r[i + 1 :] for ri, r in enumerate(raw) if ri != j]
                cof = _det_cofactor_oracle(minor) * (-1) ** (i + j)
                assert inv.rows[i][j].r * det == cof


def test_singular_is_a_value_not_an_error():
    m = RingMatrix.from_components(REAL, [[1, 2], [2, 4]])
    assert mat_inverse(m) is None


def test_quaternion_inverse_random():
    rng = random.Random(4)
    for _ in range(10):
        m = _rand_matrix(QUATERNION, 3, rng)
        inv = mat_inverse(m)
        if inv is None:
            continue
        eye = RingMatrix.identity(QUATERNION, 3)
        assert m * inv == eye and inv * m == eye


def test_block_pair_ops():
    a = RingMatrix.from_components(REAL, [[1, 2], [3, 4]])
    b = RingMatrix.from_components(REAL, [[0, 1], [1, 0]])
    pair = BlockPair(DOUBLE_REAL, a, b)
    other = BlockPair(DOUBLE_REAL, b, a)
    assert (pair * other).plus == a * b
    assert (pair + other).minus == b + a
    inv = mat_inverse(pair)
    assert inv is not None and pair * inv == BlockPair.identity(DOUBLE_REAL, 2)
    singular = BlockPair(DOUBLE_REAL, a, RingMatrix.from_components(REAL, [[1, 1], [1, 1]]))
    assert mat_inverse(singular) is None
    with pytest.raises(RingMismatchError):
        BlockPair(DOUBLE_QUATERNION, a, b)


# -- determinant / characteristic polynomial


def test_det_identity_and_multiplicativity():
    assert mat_det(RingMatrix.identity(REAL, 3)) == RingScalar.one(REAL)
    rng = random.Random(8)
    for ring in (REAL, COMPLEX):
        for _ in range(10):
            a = _rand_matrix(ring, 3, rng)
            b = _rand_matrix(ring, 3, rng)
            assert mat_det(a * b) == mat_det(a) * mat_det(b)


def _scalar_rows(m):
    return [list(row) for row in m.rows]


@pytest.mark.parametrize("ring", [REAL, COMPLEX])
def test_det_matches_cofactor_oracle(ring):
    rng = random.Random(f"det:{ring}")
    zero = RingScalar.zero(ring)
    for _ in range(30):
        m = _rand_matrix(ring, rng.randint(1, 5), rng, frac=_mixed_frac)
        assert mat_det(m) == _det_cofactor_oracle(_scalar_rows(m), zero)


@pytest.mark.parametrize("ring", [REAL, COMPLEX])
def test_det_singular_and_row_swap_cases(ring):
    rng = random.Random(f"det-cases:{ring}")
    zero = RingScalar.zero(ring)
    lift = (lambda x: (x, 0)) if ring == COMPLEX else (lambda x: x)
    cases = [
        [[0, 1], [1, 0]],  # swap at the first column
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # zero pivot after one step
        [[1, 2], [2, 4]],  # singular
        [[1, 2, 3], [0, 0, 0], [4, 5, 6]],  # zero row
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero column: no pivot at all
        [[1, 1, 1], [1, 1, 2], [1, 1, 3]],  # no pivot in the second column
    ]
    for rows in cases:
        m = RingMatrix.from_components(ring, [[lift(x) for x in row] for row in rows])
        assert mat_det(m) == _det_cofactor_oracle(_scalar_rows(m), zero)
    # a dependent row, scaled by a random factor
    for _ in range(10):
        m = _rand_matrix(ring, 4, rng, frac=_mixed_frac)
        factor = RingScalar(ring, *(_rand_frac(rng) for _ in range(2 if ring == COMPLEX else 1)))
        rows = _scalar_rows(m)
        rows[2] = [factor * x for x in rows[0]]
        assert mat_det(RingMatrix(ring, rows)).is_zero
    if ring == COMPLEX:
        # 1 + i is no unit in the Gaussian integers: each step divides by it
        g = RingMatrix.from_components(
            COMPLEX, [[(1, 1), (2, 0), (0, 3)], [(0, 1), (1, 1), (1, 0)], [(3, 0), (0, 2), (1, 1)]]
        )
        assert mat_det(g) == _det_cofactor_oracle(_scalar_rows(g), zero)


def test_charpoly_matches_det_at_integer_points():
    rng = random.Random(23)
    for size in (1, 2, 3, 4, 5):
        for _ in range(4):
            m = _rand_matrix(REAL, size, rng, frac=_mixed_frac)
            coeffs = char_poly(m)
            raw = [[s.r for s in row] for row in m.rows]
            for x in range(size + 1):
                shifted = [[(x if r == c else 0) - v for c, v in enumerate(row)]
                           for r, row in enumerate(raw)]
                value = sum(c * x ** (size - k) for k, c in enumerate(coeffs))
                assert value == _det_cofactor_oracle(shifted)


def test_kernel_division_checks_exactness():
    assert _divide_exact(-12, 4) == -3
    with pytest.raises(InexactDivisionError):
        _divide_exact(7, 2)
    assert _gauss_divide_exact((0, 2), (1, 1)) == (1, 1)
    with pytest.raises(InexactDivisionError):
        _gauss_divide_exact((1, 0), (1, 1))


def test_det_unsupported_over_quaternions():
    rng = random.Random(1)
    with pytest.raises(UnsupportedRingError):
        mat_det(_rand_matrix(QUATERNION, 2, rng))


def test_charpoly_cayley_hamilton():
    rng = random.Random(17)
    for size in (2, 4):
        for _ in range(10):
            m = _rand_matrix(REAL, size, rng)
            coeffs = char_poly(m)
            assert coeffs[0] == 1 and len(coeffs) == size + 1
            assert poly_eval_matrix(coeffs, m) == RingMatrix.zeros(REAL, size)


def _faddeev_reference(a):
    """Faddeev-LeVerrier with a full product N M_(k-1) at every step, the last
    one too, through the plane-sliced kernel product."""
    n = a.size
    nums, den = to_numerators(a)
    coeffs = [Fraction(1)]
    m = [1 if i % (n + 1) == 0 else 0 for i in range(n * n)]
    for k in range(1, n + 1):
        m = _product(REAL, nums, m, n, n, n)
        c = _divide_exact(-sum(m[:: n + 1]), k)
        coeffs.append(Fraction(c, den**k))
        m[:: n + 1] = [x + c for x in m[:: n + 1]]
    return coeffs


def test_char_poly_matches_the_full_product_reference():
    rng = random.Random(29)
    cases = []
    for size in range(1, 17):
        nums = [1] + [rng.randint(-9, 9) for _ in range(size * size - 1)]  # keeps den in lowest terms
        cases.append(from_numerators(REAL, size, nums, rng.choice((2, 3, 6, 35))))
    # a dependent row makes a singular matrix; strictly upper triangular ones are nilpotent
    singular = [rng.randint(-9, 9) for _ in range(25)]
    singular[15:20] = [3 * x for x in singular[0:5]]
    cases.append(from_numerators(REAL, 5, singular, 7))
    nilpotent = [from_numerators(REAL, n, [rng.randint(1, 9) * (c > r) for r in range(n) for c in range(n)], 4)
                 for n in (1, 2, 6)]
    cases += nilpotent + [RingMatrix.zeros(REAL, 1), RingMatrix.zeros(REAL, 7)]
    assert all(to_numerators(m)[1] > 1 for m in cases[:17])
    for m in cases:
        assert char_poly(m) == _faddeev_reference(m), m.size
    assert char_poly(cases[16])[-1] == 0
    for m in nilpotent + cases[-2:]:
        assert char_poly(m) == [1] + [0] * m.size


# -- real embedding


def test_embed_examples():
    i = RingMatrix.from_components(COMPLEX, [[(0, 1)]])
    assert ring_embed_real(i) == RingMatrix.from_components(REAL, [[0, -1], [1, 0]])
    q = RingMatrix.from_components(QUATERNION, [[(1, 2, 3, 4)]])
    assert ring_embed_real(q) == RingMatrix.from_components(
        REAL,
        [
            [1, -2, -3, -4],
            [2, 1, -4, 3],
            [3, 4, 1, -2],
            [4, -3, 2, 1],
        ],
    )
    one = RingMatrix.identity(QUATERNION, 2)
    assert ring_embed_real(one) == RingMatrix.identity(REAL, 8)


def test_embed_multiplicative():
    rng = random.Random(33)
    for ring in (COMPLEX, QUATERNION):
        for _ in range(100):
            a = _rand_matrix(ring, 2, rng)
            b = _rand_matrix(ring, 2, rng)
            assert ring_embed_real(a * b) == ring_embed_real(a) * ring_embed_real(b)


# -- printing


def test_scalar_grammar():
    assert format_scalar(RingScalar.real(Fraction(3, 2))) == "3/2"
    assert format_scalar(RingScalar.complex_parts(1, -2)) == "1-2i"
    assert format_scalar(RingScalar.quaternion_parts(1, 2, -3, 4)) == "1+2i-3j+4k"
    assert format_scalar(RingScalar.zero(COMPLEX)) == "0"
    assert format_scalar(RingScalar.complex_parts(0, 1)) == "1i"


def test_matrix_printer_headers():
    m = RingMatrix.identity(REAL, 2)
    assert format_matrix(m).startswith("R(2)\n")
    pair = BlockPair.identity(DOUBLE_REAL, 2)
    text = format_matrix(pair)
    assert text.startswith("2R(2)\n") and "plus:" in text and "minus:" in text


def test_numbers_past_the_digit_limit_raise_typed_error():
    from cliffrep.algebra import Multivector, Signature
    from cliffrep.text import format_multivector

    huge = Fraction(10**4300)  # 4,301 digits
    with pytest.raises(NumberTooLongError, match="4300-digit"):
        format_scalar(RingScalar.real(huge))
    with pytest.raises(NumberTooLongError):
        format_scalar(RingScalar.complex_parts(1, Fraction(1, 10**4300)))
    with pytest.raises(NumberTooLongError):
        format_matrix(RingMatrix.from_components(REAL, [[1, huge]]))
    with pytest.raises(NumberTooLongError):
        format_multivector(Multivector.blade(Signature(1, 0), 1, huge))
    assert format_scalar(RingScalar.real(Fraction(10**4299))) == "1" + "0" * 4299


_HUGE = 10**4300  # 4,301 digits


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_numerators(REAL, 2, [1, _HUGE], 3),
        lambda: from_numerators(COMPLEX, 1, [1, _HUGE], 1),
        lambda: from_numerators(QUATERNION, 1, [0, 0, _HUGE, 1], 1),
        lambda: BlockPair(
            DOUBLE_REAL, RingMatrix.identity(REAL, 1), from_numerators(REAL, 1, [_HUGE], 1)
        ),
    ],
    ids=["real-over-den", "complex-entry", "quaternion-entry", "double-real-minus-block"],
)
def test_format_matrix_digit_limit_on_every_branch(build):
    with pytest.raises(NumberTooLongError, match="4300-digit"):
        format_matrix(build())


# -- numerator storage and the formatter that reads it


def _scalar_text_rows(a: RingMatrix) -> list[list[str]]:
    return [[format_scalar(s) for s in row] for row in a.rows]


def _reference_format(a) -> str:
    """format_matrix's layout built from format_scalar on every entry."""
    if isinstance(a, BlockPair):
        blocks = [_reference_format(b).split("\n", 1)[1] for b in (a.plus, a.minus)]
        return "\n".join([f"{a.ring}({a.plus.nrows})", "plus:", blocks[0], "minus:", blocks[1]])
    cells = _scalar_text_rows(a)
    widths = [max(len(row[c]) for row in cells) for c in range(a.ncols)]
    lines = ["[ " + "  ".join(x.rjust(w) for x, w in zip(row, widths)) + " ]" for row in cells]
    shape = f"{a.nrows}" if a.nrows == a.ncols else f"{a.nrows}x{a.ncols}"
    return f"{a.ring}({shape})\n" + "\n".join(lines)


@pytest.mark.parametrize("ring", [REAL, COMPLEX, QUATERNION, DOUBLE_REAL, DOUBLE_QUATERNION])
def test_numerator_formatter_matches_format_scalar(ring):
    rng = random.Random(f"formatter:{ring}")
    inner = {DOUBLE_REAL: REAL, DOUBLE_QUATERNION: QUATERNION}.get(ring, ring)
    for trial in range(12):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        if ring != inner:
            ncols = nrows
        blocks = [_rand_matrix(inner, nrows, rng, ncols, _mixed_frac) for _ in range(2)]
        value = BlockPair(ring, *blocks) if ring != inner else blocks[0]
        text = format_matrix(value)
        assert text == _reference_format(value)
        # cell by cell: the formatter's cells are format_scalar's texts
        for block in blocks[: 2 if ring != inner else 1]:
            lines = format_matrix(block).split("\n")[1:]
            assert [line[2:-2].split() for line in lines] == _scalar_text_rows(block)
    # negative i/j/k parts, zero cells and mixed denominators in one matrix
    if ring in (COMPLEX, QUATERNION):
        rank = 2 if ring == COMPLEX else 4
        cells = [(Fraction(-1, 2), Fraction(-3, 7), Fraction(5), Fraction(-1))[:rank],
                 (0, 0, 0, 0)[:rank], (0, Fraction(-2, 3), 0, Fraction(1, 12))[:rank]]
        m = RingMatrix.from_components(ring, [cells, cells[::-1]])
        assert format_matrix(m) == _reference_format(m)


def test_formatter_reduces_non_reduced_numerators():
    m = from_numerators(REAL, 2, [2, 4, 0, 6], 4)
    assert format_matrix(m) == "R(2)\n[ 1/2    1 ]\n[   0  3/2 ]"
    assert format_matrix(m) == _reference_format(m)
    c = from_numerators(COMPLEX, 1, [6, -4, 0, 0, -9, 3], 6)
    assert format_matrix(c) == "C(3x1)\n[    1-2/3i ]\n[         0 ]\n[ -3/2+1/2i ]"
    assert format_matrix(c) == _reference_format(c)


# the signatures and routes a `cliffrep rep` stream serves: targets R, C, 2R
# and the real4 embedding of (0,2)
REP_SIGNATURES = [(2, 1, None), (0, 2, "real4"), (3, 3, None), (0, 6, None), (7, 0, None),
                  (8, 0, None), (5, 5, None), (9, 0, None), (8, 1, None)]


def _rep_terms(rng, n: int, density: str) -> dict[int, Fraction]:
    """A single blade, 2 to 5 blades, or every blade (64 random ones past n = 6),
    with fractional and negative coefficients."""
    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))
    if density == "single":
        return {rng.randrange(1 << n): coeff()}
    if density == "sparse":
        return {rng.randrange(1 << n): coeff() for _ in range(rng.randint(2, 5))}
    masks = range(1 << n) if n <= 6 else {rng.randrange(1 << n) for _ in range(64)}
    return {m: coeff() for m in masks}


@pytest.mark.parametrize("p,q,route", REP_SIGNATURES)
def test_formatter_matches_format_scalar_on_rep_images(p, q, route):
    sig = Signature(p, q)
    rng = random.Random(f"formatter:rep:{p},{q}")
    for density in ("single", "sparse", "dense"):
        for _ in range(2):
            image = represent(Multivector(sig, _rep_terms(rng, sig.n, density)), route).value
            assert format_matrix(image) == _reference_format(image)


@pytest.mark.parametrize("ring", [REAL, COMPLEX, QUATERNION])
def test_one_stored_form_per_value(ring):
    rng = random.Random(f"canonical:{ring}")
    direct = _rand_matrix(ring, 3, rng, 2, _mixed_frac)
    nums, den = to_numerators(direct)
    forms = [
        direct,
        from_numerators(ring, 2, [6 * x for x in nums], 6 * den),
        RingMatrix.identity(ring, 3).scale(Fraction(2, 3)) * direct.scale(Fraction(3, 2)),
        direct.scale(5).scale(Fraction(1, 5)),
    ]
    for form in forms:
        assert form == direct and hash(form) == hash(direct)
        assert to_numerators(form) == (nums, den)
    zero = RingMatrix.zeros(ring, 3, 2)
    for d in (1, 2, 12, 10**30):
        nought = from_numerators(ring, 2, [0] * len(nums), d)
        assert nought == zero and hash(nought) == hash(zero)
    assert direct - direct == zero


def test_numerators_handed_out_do_not_alias_storage():
    rng = random.Random("aliasing")
    m = _rand_matrix(COMPLEX, 2, rng, 3, _mixed_frac)
    before = (to_numerators(m), format_matrix(m), m.rows)
    nums, den = to_numerators(m)
    nums[0] += 1
    nums.reverse()
    assert (to_numerators(m), format_matrix(m), m.rows) == before
    given = [1, 2, 3, 4]
    built = from_numerators(REAL, 2, given, 3)
    given[0] = 99
    assert to_numerators(built) == ([1, 2, 3, 4], 3)


def _scalar_built(ring, rows):
    """from_components' input through one RingScalar per cell."""
    lift = (lambda cell: RingScalar(ring, cell)) if ring == REAL else (lambda cell: RingScalar(ring, *cell))
    return RingMatrix(ring, [[lift(cell) for cell in row] for row in rows])


@pytest.mark.parametrize("ring", [REAL, COMPLEX, QUATERNION])
def test_from_components_equals_the_scalar_built_matrix(ring):
    rng = random.Random(f"from-components:{ring}")
    rank = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[ring]
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        cells = [[tuple(_mixed_frac(rng) for _ in range(rank)) for _ in range(ncols)]
                 for _ in range(nrows)]
        rows = [[c[0] for c in row] for row in cells] if rank == 1 else cells
        built = RingMatrix.from_components(ring, rows)
        assert built == _scalar_built(ring, rows)
        assert (built.nrows, built.ncols) == (nrows, ncols) and built.ring == ring
    # ints and Fractions mix; short tuples fill with zeros; zero j/k parts pass on C
    assert RingMatrix.from_components(REAL, [[1, Fraction(1, 2)], [True, -3]]) == _scalar_built(
        REAL, [[1, Fraction(1, 2)], [1, -3]])
    if ring != REAL:
        short = [[(1,), ()], [(0, Fraction(2, 3)), (5, 1, 0, 0)]]
        assert RingMatrix.from_components(ring, short) == _scalar_built(ring, short)
        assert RingMatrix.from_components(ring, short).entry(0, 1).is_zero


def test_from_components_refuses_what_the_scalars_refuse():
    with pytest.raises(KeyError):
        RingMatrix.from_components("Z", [[1]])
    for doubled, cell in ((DOUBLE_REAL, 1), (DOUBLE_QUATERNION, (1, 0, 0, 0))):
        with pytest.raises(UnsupportedRingError):
            RingMatrix.from_components(doubled, [[cell]])
    with pytest.raises(TypeError):
        RingMatrix.from_components(REAL, [[1, 0.5]])
    with pytest.raises(TypeError):
        RingMatrix.from_components(COMPLEX, [[(0.5, 0)]])
    with pytest.raises(TypeError):
        RingMatrix.from_components(REAL, [[(1, 0)]])
    with pytest.raises(TypeError):
        RingMatrix.from_components(COMPLEX, [[1]])  # a bare rational where a pair belongs
    with pytest.raises(TypeError):
        RingMatrix.from_components(QUATERNION, [[(1, 2, 3, 4, 5)]])
    for part in ((0, 0, 1), (0, 0, 0, 1)):
        with pytest.raises(RingMismatchError, match="j/k"):
            RingMatrix.from_components(COMPLEX, [[(1, 0)], [part]])
    for ring in (REAL, COMPLEX, QUATERNION):
        for empty in ([], [[]]):
            with pytest.raises(RingMismatchError, match="empty"):
                RingMatrix.from_components(ring, empty)
    with pytest.raises(RingMismatchError, match="ragged"):
        RingMatrix.from_components(REAL, [[1, 2], [3, 4, 5, 6]])
    with pytest.raises(RingMismatchError, match="ragged"):
        RingMatrix.from_components(COMPLEX, [[(1, 0)], [(1, 0), (0, 1)]])


def test_from_numerators_refuses_bad_layouts():
    with pytest.raises(RingMismatchError, match="empty"):
        from_numerators(REAL, 1, [], 1)
    with pytest.raises(RingMismatchError, match="ragged"):
        from_numerators(COMPLEX, 2, [1, 2, 3], 1)
    with pytest.raises(RingMismatchError, match="denominator"):
        from_numerators(REAL, 1, [1], 0)
    with pytest.raises(UnsupportedRingError):
        from_numerators(DOUBLE_REAL, 1, [1], 1)
    with pytest.raises(RingMismatchError, match="empty"):
        RingMatrix.identity(REAL, 0)


def test_rows_is_a_cached_view_of_the_numerators():
    m = from_numerators(QUATERNION, 2, [1, -2, 0, 3, 0, 0, 0, 0, 4, 0, 0, -1, 2, 2, 2, 2], 4)
    assert m.rows is m.rows
    quarters = [Fraction(x, 4) for x in (1, -2, 0, 3)]
    assert m.entry(0, 0) == RingScalar.quaternion_parts(*quarters)
    assert m.entry(0, 1).is_zero
    assert m.entry(1, 1) == RingScalar.quaternion_parts(*[Fraction(1, 2)] * 4)
    assert RingMatrix(QUATERNION, m.rows) == m


_S11 = Signature(1, 1)
_QUAT = from_numerators(QUATERNION, 2, [1, -2, 0, 3, 0, 0, 0, 0, 4, 0, 0, -1, 2, 2, 2, 2], 4)
_COPYABLE = {
    "Multivector": Multivector(_S11, {0: Fraction(1, 2), 0b11: -3}),
    "MvMatrix": MvMatrix(_S11, [[Multivector.scalar(_S11, 2), Multivector.blade(_S11, 0b10)]]),
    "RingMatrix": _QUAT,
    "RingScalar": RingScalar.quaternion_parts(Fraction(1, 3), 0, -2, 5),
    "BlockPair": BlockPair(DOUBLE_REAL, RingMatrix.identity(REAL, 2), RingMatrix.from_components(REAL, [[1, 2], [0, 3]])),
}


@pytest.mark.parametrize("name", sorted(_COPYABLE))
def test_copy_deepcopy_and_pickle_rebuild_the_value(name):
    value = _COPYABLE[name]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        assert hash(twin) == hash(value)


def test_deep_copy_after_the_lazy_rows_were_read():
    rows = _QUAT.rows
    twin = copy.deepcopy(_QUAT)
    assert twin == _QUAT and hash(twin) == hash(_QUAT)
    assert twin.rows == rows
