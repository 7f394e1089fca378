"""Core multivector arithmetic: products, splits, reindexing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffrep.algebra import (
    BladeWidthError,
    DecompositionError,
    DegenerateSignatureError,
    GeneratorList,
    Multivector,
    Signature,
    SignatureMismatchError,
    SplitBasis,
    StructureError,
    _mirror_mask,
    _pair_sign,
    blade_product,
    pseudoscalar_square,
    reindex,
)

S10 = Signature(1, 0)
S20 = Signature(2, 0)
S11 = Signature(1, 1)
S30 = Signature(3, 0)
S03 = Signature(0, 3)


def mv(sig, terms):
    return Multivector(sig, terms)


def random_mv(sig, rng, lo=-9, hi=9):
    return Multivector(
        sig, {m: Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3))) for m in range(sig.dim)}
    )


# -- blade products


def test_blade_product_examples():
    assert blade_product(S20, 0b01, 0b10) == (1, 0b11)
    assert blade_product(S20, 0b10, 0b01) == (-1, 0b11)
    # the negative generator annihilates with a minus sign
    assert blade_product(S11, 0b10, 0b10) == (-1, 0)


def _transposition_sign(sig, a, b):
    """Sign of the blade product a*b from its definition: interleave the
    generator lists of a and b into ascending order, one transposition per
    inverted pair, then contract each shared generator by its square."""
    gens = [i for i in range(sig.n) if a >> i & 1] + [i for i in range(sig.n) if b >> i & 1]
    inversions = sum(1 for x in range(len(gens)) for y in range(x + 1, len(gens)) if gens[x] > gens[y])
    shared_negative = sum(1 for i in range(sig.p, sig.n) if a >> i & 1 and b >> i & 1)
    return -1 if (inversions + shared_negative) % 2 else 1


def _check_blade_sign(sig, a, b):
    sign = _transposition_sign(sig, a, b)
    assert blade_product(sig, a, b) == (sign, a ^ b), (sig, a, b)
    product = Multivector.blade(sig, a) * Multivector.blade(sig, b)
    assert product == Multivector.blade(sig, a ^ b, sign), (sig, a, b)


def _sign_test_pairs():
    """Every pair of blades of every signature with at most 6 generators,
    then seeded pairs on wider signatures up to the 32-generator bound."""
    for n in range(7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(sig.dim):
                for b in range(sig.dim):
                    yield sig, a, b
    rng = random.Random(2020)
    for n in range(7, 33):
        for p in sorted({0, n, rng.randint(1, n - 1)}):
            sig = Signature(p, n - p)
            full = sig.full_mask
            for a, b in [(full, full), (full, 1), (1 << (n - 1), full)]:
                yield sig, a, b
            for _ in range(20):
                yield sig, rng.getrandbits(n), rng.getrandbits(n)


def test_blade_signs_match_transposition_count():
    for sig, a, b in _sign_test_pairs():
        _check_blade_sign(sig, a, b)


def test_mirror_mask_matches_transposition_count():
    # the right blade's mask gives the same sign against every left blade
    for sig, a, b in _sign_test_pairs():
        sign = -1 if (a & _mirror_mask(b, sig.neg_mask)).bit_count() & 1 else 1
        assert sign == _transposition_sign(sig, a, b), (sig, a, b)


@pytest.mark.parametrize("n, left, right", [(8, 8, 2), (8, 2, 8), (8, 64, 1), (8, 1, 64), (6, 64, 64)])
def test_products_with_either_side_shorter_match_pair_signs(n, left, right):
    # the kernel loops over the operand with fewer blades; either way round
    # each term is the sum of coefficient products signed by _pair_sign
    rng = random.Random(n * 1000 + left * 10 + right)
    for p in (0, n // 2, n):
        sig = Signature(p, n - p)
        xa = {m: rng.choice((-3, -1, 1, 2)) for m in rng.sample(range(sig.dim), left)}
        xb = {m: rng.choice((-2, -1, 1, 5)) for m in rng.sample(range(sig.dim), right)}
        expected: dict[int, int] = {}
        for ma, ca in xa.items():
            for mb, cb in xb.items():
                term = _pair_sign(ma, mb, sig.neg_mask) * ca * cb
                expected[ma ^ mb] = expected.get(ma ^ mb, 0) + term
        product = Multivector(sig, xa) * Multivector(sig, xb)
        for mask in range(sig.dim):
            assert product.coefficient(mask) == expected.get(mask, 0), (sig, mask)


def test_blade_product_width_error():
    with pytest.raises(BladeWidthError):
        blade_product(S20, 0b100, 0b1)


def test_generator_squares():
    sig = Signature(2, 3)
    for i in range(1, 6):
        g = Multivector.generator(sig, i)
        assert g * g == sig.square_of(i)


def test_anticommutation_all_pairs():
    sig = Signature(3, 2)
    for i in range(1, 6):
        for j in range(1, 6):
            if i == j:
                continue
            gi, gj = Multivector.generator(sig, i), Multivector.generator(sig, j)
            assert gi * gj + gj * gi == Multivector.zero(sig)


# -- multivector arithmetic


def test_idempotent_pair():
    one = Multivector.scalar(S10, 1)
    e1 = Multivector.generator(S10, 1)
    s = one + e1
    assert s * s == 2 * s
    assert s * (one - e1) == Multivector.zero(S10)
    assert (one - e1) * s == Multivector.zero(S10)


def test_identity_element():
    rng = random.Random(11)
    for sig in (S20, S11, S03):
        one = Multivector.scalar(sig, 1)
        a = random_mv(sig, rng)
        assert one * a == a
        assert a * one == a


def test_add_scalar_mul():
    e1 = Multivector.generator(S20, 1)
    assert e1 + (-1) * e1 == Multivector.zero(S20)
    a = mv(S20, {0: 3, 0b11: 1})
    assert 2 * a == mv(S20, {0: 6, 0b11: 2})
    assert a + Multivector.zero(S20) == a
    assert a / 2 == mv(S20, {0: Fraction(3, 2), 0b11: Fraction(1, 2)})
    s = Multivector.scalar(S10, 1) + Multivector.generator(S10, 1)
    assert s**3 == 4 * s and s**0 == Multivector.scalar(S10, 1)


def test_product_peak_memory_under_one_mib():
    import tracemalloc

    sig = Signature(6, 6)
    rng = random.Random(66)
    a, b = (
        Multivector(sig, {m: rng.randint(1, 9) for m in rng.sample(range(sig.dim), 64)})
        for _ in range(2)
    )
    tracemalloc.start()
    try:
        a * b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wide_signature_beyond_sign_table():
    # 14 generators: products and associativity well past the small algebras
    sig = Signature(7, 7)
    rng = random.Random(3)
    gens = [Multivector.generator(sig, i) for i in range(1, 15)]
    for i, gi in enumerate(gens, start=1):
        assert gi * gi == sig.square_of(i)
    for _ in range(30):
        i, j = rng.sample(range(14), 2)
        assert gens[i] * gens[j] == -(gens[j] * gens[i])
    a = gens[0] * gens[5] * gens[13] + 2
    b = gens[2] * gens[13] - gens[5]
    c = gens[0] + gens[2] * gens[5]
    assert (a * b) * c == a * (b * c)
    with pytest.raises(BladeWidthError):
        Signature(17, 16)


def test_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        Multivector.generator(S20, 1) * Multivector.generator(S11, 1)
    with pytest.raises(SignatureMismatchError):
        Multivector.generator(S20, 1) + Multivector.generator(S11, 1)


def test_no_zero_terms_stored():
    a = mv(S20, {0: 1, 1: 0})
    assert a.blades() == [0]
    assert (a - a).terms() == []


def test_associativity_seeded():
    for sig in (S20, S11, Signature(0, 3), Signature(2, 2)):
        rng = random.Random(101 + sig.p + 10 * sig.q)
        for _ in range(200):
            a, b, c = (random_mv(sig, rng, -4, 4) for _ in range(3))
            assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(0, 3), st.fractions(-5, 5), max_size=4),
    st.dictionaries(st.integers(0, 3), st.fractions(-5, 5), max_size=4),
)
def test_mul_distributes_over_add(ta, tb):
    a, b = mv(S11, ta), mv(S11, tb)
    c = mv(S11, {0: 2, 0b11: Fraction(1, 2)})
    assert (a + b) * c == a * c + b * c
    assert c * (a + b) == c * a + c * b


# -- pseudoscalar


def test_pseudoscalar_square_values():
    assert pseudoscalar_square(S30) == -1
    assert pseudoscalar_square(S03) == 1
    assert pseudoscalar_square(Signature(0, 1)) == -1
    with pytest.raises(DegenerateSignatureError):
        pseudoscalar_square(Signature(0, 0))


def test_pseudoscalar_central_odd_n():
    rng = random.Random(5)
    for sig in (S30, Signature(2, 1), Signature(1, 2), S03, Signature(3, 2)):
        pss = Multivector.pseudoscalar(sig)
        for _ in range(20):
            a = random_mv(sig, rng, -5, 5)
            assert a * pss == pss * a


# -- split / conjugate


def _dense_solve(columns, target):
    """Test-local Gaussian elimination oracle over exact rationals."""
    nrows, ncols = len(target), len(columns)
    aug = [[columns[c][r] for c in range(ncols)] + [target[r]] for r in range(nrows)]
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = aug[r][ncols]
    for r in range(row, nrows):
        assert not aug[r][ncols], "inconsistent system"
    return x


def test_split_brute_force_oracle():
    # independent oracle: solve the 8-dimensional change of basis directly
    sig = S30
    u = Multivector.pseudoscalar(sig)
    sub = GeneratorList(sig, [Multivector.generator(sig, 1), Multivector.generator(sig, 2)])
    basis_elems = []
    for amask in range(2):
        for smask in range(4):
            prod = sub.product(smask) * (u if amask else Multivector.scalar(sig, 1))
            vec = [Fraction(0)] * sig.dim
            for m, c in prod.terms():
                vec[m] = c
            basis_elems.append(vec)
    a = Multivector.scalar(sig, 1) + Multivector.generator(sig, 3)
    target = [Fraction(0)] * sig.dim
    for m, c in a.terms():
        target[m] = c
    coords = _dense_solve(basis_elems, target)
    abstract = sub.abstract_signature
    oracle_a0 = Multivector(abstract, {s: coords[s] for s in range(4)})
    oracle_a1 = Multivector(abstract, {s: coords[4 + s] for s in range(4)})
    comps = SplitBasis(sub, GeneratorList(sig, [u])).decompose(a)
    assert comps[0] == oracle_a0 == Multivector.scalar(abstract, 1)
    # frozen expected value, fixed by uniqueness of the decomposition
    assert comps[1] == oracle_a1 == mv(abstract, {0b11: -1})
    assert reindex(comps[1], sub) == mv(sig, {0b11: -1})
    assert reindex(comps[0], sub) + reindex(comps[1], sub) * u == a


def test_split_trivial_and_one_generator():
    sig = S30
    u = Multivector.pseudoscalar(sig)
    sub = GeneratorList(sig, [Multivector.generator(sig, 1), Multivector.generator(sig, 2)])
    a0 = mv(sig, {0: 2, 0b11: Fraction(1, 3)})
    comps = SplitBasis(sub, GeneratorList(sig, [u])).decompose(a0)
    assert comps == {0: mv(sub.abstract_signature, {0: 2, 0b11: Fraction(1, 3)})}
    assert reindex(comps[0], sub) == a0

    one_gen = Signature(1, 0)
    a = mv(one_gen, {0: 5, 1: 7})
    e1 = Multivector.generator(one_gen, 1)
    split = SplitBasis(GeneratorList(one_gen, []), GeneratorList(one_gen, [e1]))
    none = Signature(0, 0)
    assert split.decompose(a) == {0: Multivector.scalar(none, 5), 1: Multivector.scalar(none, 7)}


def test_split_round_trip_random():
    rng = random.Random(31)
    sig = Signature(2, 1)
    u = Multivector.pseudoscalar(sig)
    sub = GeneratorList(sig, [Multivector.generator(sig, 1), Multivector.generator(sig, 3)])
    split = SplitBasis(sub, GeneratorList(sig, [u]))
    zero = Multivector.zero(sub.abstract_signature)
    for _ in range(30):
        a = random_mv(sig, rng)
        comps = split.decompose(a)
        a0, a1 = (reindex(comps.get(k, zero), sub) for k in (0, 1))
        assert a0 + a1 * u == a


def test_split_unreachable_blade():
    sig = S30
    u = Multivector.blade(sig, 0b101)  # commutes with e2, squares -1
    sub = GeneratorList(sig, [Multivector.generator(sig, 2)])
    with pytest.raises(DecompositionError):
        SplitBasis(sub, GeneratorList(sig, [u])).decompose(Multivector.generator(sig, 3))


def test_split_noncommuting_structure_error():
    sig = S20
    u = Multivector.generator(sig, 1)
    sub = GeneratorList(sig, [Multivector.generator(sig, 2)])
    with pytest.raises(StructureError):
        SplitBasis(sub, GeneratorList(sig, [u])).decompose(Multivector.generator(sig, 2))


# -- reindex


def test_reindex_single_generator():
    host = S03
    gens = GeneratorList(host, [Multivector.pseudoscalar(host)])
    assert gens.abstract_signature == Signature(1, 0)
    img = reindex(Multivector.generator(Signature(1, 0), 1), gens)
    assert img == Multivector.pseudoscalar(host)
    assert img * img == 1
    assert reindex(Multivector.scalar(Signature(1, 0), 7), gens) == Multivector.scalar(host, 7)


def test_reindex_is_multiplicative():
    host = Signature(2, 2)
    g1 = Multivector.blade(host, 0b0111)  # squares +1
    g2 = Multivector.blade(host, 0b1101)  # squares -1
    gens = GeneratorList(host, [g1, g2])
    abstract = gens.abstract_signature
    rng = random.Random(13)
    for _ in range(40):
        x = Multivector(abstract, {m: Fraction(rng.randint(-5, 5)) for m in range(4)})
        y = Multivector(abstract, {m: Fraction(rng.randint(-5, 5)) for m in range(4)})
        assert reindex(x * y, gens) == reindex(x, gens) * reindex(y, gens)
    # the two-generator blade goes to the host product, computed in the host
    assert reindex(Multivector.blade(abstract, 0b11), gens) == g1 * g2


def test_generator_list_validation():
    with pytest.raises(StructureError):
        GeneratorList(S20, [Multivector.generator(S20, 1) + 1])  # squares to 2+2e1
    with pytest.raises(StructureError):
        # disjoint odd-even blades commute, so the pair is rejected
        GeneratorList(S30, [Multivector.generator(S30, 1), Multivector.blade(S30, 0b110)])
    with pytest.raises(StructureError):
        # squares must come sorted: -1 before +1 is rejected
        GeneratorList(S11, [Multivector.generator(S11, 2), Multivector.generator(S11, 1)])


def test_reindex_signature_check():
    gens = GeneratorList(S20, [Multivector.generator(S20, 1)])
    with pytest.raises(StructureError):
        reindex(Multivector.generator(Signature(0, 1), 1), gens)


def test_dense_split_basis_fallback():
    # a generator that is not a single blade forces the dense exact solve
    sig = S30
    h = mv(sig, {0b001: Fraction(3, 5), 0b010: Fraction(4, 5)})
    assert h * h == 1
    u = Multivector.pseudoscalar(sig)  # central, squares -1
    basis = SplitBasis(GeneratorList(sig, [h]), GeneratorList(sig, [u]))
    assert basis._lookup is None  # dense path engaged
    rng = random.Random(3)
    span = [Multivector.scalar(sig, 1), h, u, h * u]
    for _ in range(10):
        a = Multivector.zero(sig)
        for elem in span:
            a = a + elem * Fraction(rng.randint(-5, 5))
        comps = basis.decompose(a)
        rebuilt = Multivector.zero(sig)
        for amask, comp in comps.items():
            rebuilt = rebuilt + reindex(comp, basis.sub) * basis.outer.product(amask)
        assert rebuilt == a
    with pytest.raises(DecompositionError):
        basis.decompose(Multivector.generator(sig, 1))


def test_blade_lookup_matches_generator_products():
    # the lookup is built by blade arithmetic; the generator-list products
    # are the reference
    from cliffrep.catalog import get_spec

    for p, q in [(1, 0), (0, 2), (3, 1), (1, 3), (0, 5), (0, 6), (7, 0), (9, 0), (8, 1)]:
        basis = get_spec(Signature(p, q)).node.basis
        assert len(basis._lookup) == Signature(p, q).dim
        for mask, (amask, smask, sign) in basis._lookup.items():
            prod = basis.sub.product(smask) * basis.outer.product(amask)
            assert prod == Multivector.blade(basis.sig, mask, sign), (p, q, mask)
    # a signed-blade generator carries its sign into every product
    sig = S30
    basis = SplitBasis(
        GeneratorList(sig, [-Multivector.generator(sig, 1)]),
        GeneratorList(sig, [Multivector.blade(sig, 0b110, -1)]),
    )
    assert basis._lookup is not None and len(basis._lookup) == 4
    for mask, (amask, smask, sign) in basis._lookup.items():
        prod = basis.sub.product(smask) * basis.outer.product(amask)
        assert prod == Multivector.blade(sig, mask, sign)


def test_immutability():
    a = Multivector.scalar(S20, 1)
    with pytest.raises(AttributeError):
        a.sig = S11
