"""Frozen block patterns of the printed image formulas.

For each doubling construction the images of the decomposition basis
elements {1, u, v, u*v} take a fixed block shape: diag(I, -I) for u,
an off-diagonal pair for v (top-right sign following the square of v)
and the twisted off-diagonal pair for u*v.  These tests pin the catalog
to those printed layouts, and pin the product identities the printed
factorizations state for the third basis element.
"""

import pytest

from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import get_spec
from cliffrep.represent import represent_with
from cliffrep.rings import BlockPair, RingMatrix, RingScalar


def _blade(sig, idxs):
    mask = 0
    for i in idxs:
        mask |= 1 << (i - 1)
    return Multivector.blade(sig, mask)


def _block(value, r0, c0, size):
    rows = [[value.entry(r0 + r, c0 + c) for c in range(size)] for r in range(size)]
    return RingMatrix(value.ring, rows)


QUAD_CASES = [
    # signature, u indices, v indices, sign of v^2
    ((2, 0), [1], [2], +1),
    ((1, 1), [1], [2], -1),
    ((3, 1), [1, 2, 4], [1, 2, 3], -1),
    ((2, 2), [1, 2, 3], [1, 3, 4], -1),
    ((1, 3), [2, 3, 4], [1, 2, 3], -1),
    ((0, 4), [1, 2, 3], [1, 2, 4], +1),
    ((6, 0), [1, 2, 3, 4, 5], [1, 2, 3, 4, 6], +1),
    ((5, 1), [1, 2, 3, 4, 5], [1, 2, 3, 4, 6], -1),
    ((4, 2), [1, 2, 3, 5, 6], [1, 2, 3, 4, 5], -1),
    ((3, 3), [1, 2, 3, 4, 5], [1, 2, 4, 5, 6], -1),
    ((2, 4), [1, 3, 4, 5, 6], [1, 2, 3, 4, 5], -1),
    ((1, 5), [1, 2, 3, 4, 5], [2, 3, 4, 5, 6], -1),
    ((0, 6), [1, 2, 3, 6], [1, 2, 3, 5], +1),
    ((8, 0), [4, 5, 6, 7], [4, 5, 6, 8], +1),
    ((0, 8), [1, 2, 3, 4, 5, 6, 8], [1, 2, 3, 4, 5, 6, 7], +1),
]


@pytest.mark.parametrize("pair,u_idx,v_idx,vsq", QUAD_CASES)
def test_quad_basis_block_patterns(pair, u_idx, v_idx, vsq):
    sig = Signature(*pair)
    spec = get_spec(sig)
    u, v = _blade(sig, u_idx), _blade(sig, v_idx)
    assert u * u == 1
    assert v * v == vsq
    s = spec.target.size // 2
    eye = _block(represent_with(spec, Multivector.scalar(sig, 1)), 0, 0, s)
    zero = eye - eye
    img_u = represent_with(spec, u)
    assert _block(img_u, 0, 0, s) == eye and _block(img_u, s, s, s) == -eye
    assert _block(img_u, 0, s, s) == zero and _block(img_u, s, 0, s) == zero
    img_v = represent_with(spec, v)
    top_sign = 1 if vsq > 0 else -1
    assert _block(img_v, 0, s, s) == (eye if top_sign > 0 else -eye)
    assert _block(img_v, s, 0, s) == eye
    assert _block(img_v, 0, 0, s) == zero and _block(img_v, s, s, s) == zero
    img_w = represent_with(spec, u * v)
    assert _block(img_w, 0, s, s) == (eye if top_sign > 0 else -eye)
    assert _block(img_w, s, 0, s) == -eye


SPLIT_CASES = [
    ((1, 0), [1]),
    ((2, 1), [1, 2, 3]),
    ((0, 3), [1, 2, 3]),
    ((5, 0), [1, 2, 3, 4, 5]),
    ((3, 2), [1, 2, 3, 4, 5]),
    ((1, 4), [1, 2, 3, 4, 5]),
    ((0, 7), [1, 2, 3, 4, 5, 6, 7]),
]


@pytest.mark.parametrize("pair,u_idx", SPLIT_CASES)
def test_split_basis_block_patterns(pair, u_idx):
    sig = Signature(*pair)
    spec = get_spec(sig)
    u = _blade(sig, u_idx)
    assert u * u == 1
    img = represent_with(spec, u)
    assert isinstance(img, BlockPair)
    eye = RingMatrix.identity(img.plus.ring, img.plus.nrows)
    assert img.plus == eye and img.minus == -eye


def test_extension_units_map_to_ring_units():
    cases = [
        ((3, 0), [[1, 2, 3]], "C"),
        ((1, 2), [[1, 2, 3]], "C"),
        ((4, 0), [[1, 2, 3], [1, 2, 4]], "H"),
        ((4, 1), [[1, 2, 3, 4, 5]], "C"),
        ((0, 5), [[1, 2, 3, 4, 5]], "C"),
        ((7, 0), [[1, 2, 3, 4, 5, 6, 7]], "C"),
    ]
    for pair, unit_sets, ring in cases:
        sig = Signature(*pair)
        spec = get_spec(sig)
        units = [RingScalar.complex_parts(0, 1)] if ring == "C" else [
            RingScalar.quaternion_parts(0, 1, 0, 0),
            RingScalar.quaternion_parts(0, 0, 1, 0),
        ]
        for idxs, unit in zip(unit_sets, units):
            img = represent_with(spec, _blade(sig, idxs))
            want = RingMatrix.identity(spec.target.ring, spec.target.size).scale(1)
            want = want.map_entries(lambda s_: s_ * unit if not s_.is_zero else s_)
            assert img == want


# -- product identities the printed factorizations state


def test_third_element_identities_as_printed():
    # identities that verify literally: third element equals u*v
    cases = [
        ((3, 1), [1, 2, 4], [1, 2, 3], [3, 4]),
        ((1, 3), [2, 3, 4], [1, 2, 3], [1, 4]),
        ((6, 0), [1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [5, 6]),
        ((5, 1), [1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [5, 6]),
        ((3, 3), [1, 2, 3, 4, 5], [1, 2, 4, 5, 6], [3, 6]),
        ((1, 5), [1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [1, 6]),
        ((0, 6), [1, 2, 3, 6], [1, 2, 3, 5], [5, 6]),
        ((8, 0), [4, 5, 6, 7], [4, 5, 6, 8], [7, 8]),
        ((0, 8), [1, 2, 3, 4, 5, 6, 8], [1, 2, 3, 4, 5, 6, 7], [7, 8]),
    ]
    for pair, u_idx, v_idx, w_idx in cases:
        sig = Signature(*pair)
        assert _blade(sig, u_idx) * _blade(sig, v_idx) == _blade(sig, w_idx), pair


def test_third_element_reversed_order_cases():
    # the (4,2) and (2,4) products land on the reversed factor order
    s42 = Signature(4, 2)
    u, v = _blade(s42, [1, 2, 3, 5, 6]), _blade(s42, [1, 2, 3, 4, 5])
    assert u * v == -_blade(s42, [4, 6])
    s24 = Signature(2, 4)
    u, v = _blade(s24, [1, 3, 4, 5, 6]), _blade(s24, [1, 2, 3, 4, 5])
    assert u * v == -_blade(s24, [2, 6])


def test_pair_product_signs_of_diagonal_families():
    # zero-step family: (-1)^(n-1) e_n eps_n
    for n in range(1, 5):
        sig = Signature(n, n)
        u = _blade(sig, list(range(1, n + 1)) + [n + i for i in range(1, n)])
        v = _blade(sig, list(range(1, n)) + [n + i for i in range(1, n + 1)])
        assert u * v == _blade(sig, [n, 2 * n]) * ((-1) ** (n - 1))
    # two-step family: corrected exponent n+1
    for n in range(1, 4):
        sig = Signature(n + 2, n)
        u = _blade(sig, list(range(1, n + 2)) + [sig.p + i for i in range(1, n + 1)])
        v = _blade(sig, list(range(1, n + 3)) + [sig.p + i for i in range(1, n)])
        assert u * v == _blade(sig, [n + 2, sig.p + n]) * ((-1) ** (n + 1))
    # four-step family: (-1)^(n+3)
    for n in range(1, 3):
        sig = Signature(n + 4, n)
        u = _blade(sig, list(range(1, n + 5)) + [sig.p + i for i in range(1, n)])
        v = _blade(sig, list(range(1, n + 4)) + [sig.p + i for i in range(1, n + 1)])
        assert u * v == _blade(sig, [n + 4, sig.p + n]) * ((-1) ** (n + 3))
    # six-step family: (-1)^(n+5)
    for n in range(1, 3):
        sig = Signature(n + 6, n)
        u = _blade(sig, list(range(1, n + 6)) + [sig.p + i for i in range(1, n + 1)])
        v = _blade(sig, list(range(1, n + 7)) + [sig.p + i for i in range(1, n)])
        assert u * v == _blade(sig, [n + 6, sig.p + n]) * ((-1) ** (n + 5))
