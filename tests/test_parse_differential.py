"""The parser against a reference: the token-loop parser it replaced.

``reference_parse`` below is the earlier ``text.parse_multivector``, kept
verbatim with its helpers: one regex match per token, a ``*`` and the name
after it read as one token.  Every input here must give the same
``(terms, den)`` from both parsers, or a ``ParseError`` with the same
message and position, or the same other exception.
"""

import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffrep.algebra import Multivector, Signature, _pair_sign
from cliffrep.text import ParseError, parse_multivector

SIGNATURES = [(0, 0), (2, 1), (0, 3), (5, 5), (12, 0), (3, 11)]
# the grammar's alphabet, with whitespace and digits that the grammar refuses
ALPHABET = list("0123456789") + [
    "e", "p", "s", "eps", "*", "/", "+", "-", " ", "\x1c", "\u2003", "\u200b", "\u0663", "\xb2",
]
SPACES = ["", "", " ", "  ", "\t", "\u2003", "\x1c", " \n "]


# -- the reference: the token-loop parser, verbatim

# One token after whitespace (group 1): a generator name (family 2, digits 3),
# a rational (numerator 4, the denominator digits 5 after a "/"), a "*" and
# the name after it (family 6, digits 7) or an operator (8), which is a "*"
# only when no name follows it.  The token is optional, so every match
# succeeds and ``m.end(1)`` is where the token, or the text that is none,
# starts.
_TOKEN = re.compile(
    r"(\s*)(?:(eps|e)([0-9]+)|([0-9]+)(?:/([0-9]*))?|\*\s*(eps|e)([0-9]+)|([-+*]))?"
)


def _to_int(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on int() digits
        raise ParseError(f"number of {len(digits)} digits is too long", position) from None


def _name_error(source: str, at: int) -> ParseError:
    """The error where a generator name must start but none matched."""
    if source.startswith("eps", at):
        return ParseError("expected generator indices", at + 3)
    if source.startswith("e", at):
        return ParseError("expected generator indices", at + 1)
    return ParseError("expected a generator name", at)


def _blade_mask(sig: Signature, family: str, digits: str, start: int) -> int:
    """Mask of one matched generator-family name such as ``e12`` or ``eps3``."""
    size, offset = (sig.q, sig.p) if family == "eps" else (sig.p, 0)
    value = _to_int(digits, start)
    if len(digits) == 1 or 1 <= value <= size:
        indices = [value]
    else:
        indices = [int(d) for d in digits]
        if any(nxt <= prev for prev, nxt in zip(indices, indices[1:])):
            raise ParseError("generator indices must be strictly ascending", start)
    mask = 0
    for idx in indices:
        if not 1 <= idx <= size:
            raise ParseError(f"generator index {idx} outside the signature", start)
        mask |= 1 << (offset + idx - 1)
    return mask


def reference_parse(sig: Signature, source: str) -> Multivector:
    """Parse the multivector grammar; raises ParseError with a position."""
    match = _TOKEN.match
    masks: dict[tuple[str, str], int] = {}  # the mask of each (family, digits) read so far
    m = match(source)
    if m.end(1) == len(source):
        raise ParseError("empty expression", len(source))
    nums: dict[int, int] = {}
    den = 1
    sign = -1 if m[8] == "-" else 1
    if m[8] in ("+", "-"):
        m = match(source, m.end())
    while True:
        # one term: a rational or a first generator name (groups 2, 3), then
        # "*" and a name (groups 6, 7) as often as written; its value is
        # sign * num / d on the blade mask
        num = d = 1
        mask = 0
        name = 2
        if m[4] is not None:
            num = _to_int(m[4], m.start(4))
            if m[5] is not None:
                d = _to_int(m[5], m.start(5)) if m[5] else 0
                if not d:
                    raise ParseError("expected a non-zero denominator", m.start(5))
            m = match(source, m.end())
            name = 6
        elif m[2] is None:
            raise _name_error(source, m.end(1))
        while m[name] is not None:
            key = m.group(name, name + 1)
            factor = masks.get(key)
            if factor is None:  # a name's first appearance; a bad name raises here
                factor = masks[key] = _blade_mask(sig, *key, m.start(name))
            if factor & mask:
                raise ParseError("repeated generator in a term", m.start(name))
            # a factor below a generator already read is reordered past it; the
            # term is the product in the order written
            if mask > factor & -factor:
                num *= _pair_sign(mask, factor, sig.neg_mask)
            mask |= factor
            m = match(source, m.end())
            name = 6
        if m[8] == "*":  # no name follows it
            raise _name_error(source, match(source, m.end()).end(1))
        if d != den:
            if den % d:
                scale = lcm(den, d) // den
                nums = {b: c * scale for b, c in nums.items()}
                den *= scale
            num *= den // d
        nums[mask] = nums.get(mask, 0) + sign * num
        if m[8] is None:
            at = m.end(1)
            if at == len(source):
                return Multivector._raw(sig, nums, den)
            raise ParseError(f"unexpected character {source[at]!r}", at)
        sign = -1 if m[8] == "-" else 1
        m = match(source, m.end())


# -- the comparison


def _outcome(parse, sig: Signature, source: str):
    """What a parser makes of ``source``: its terms in order and denominator,
    or the error's type, message and position."""
    try:
        mv = parse(sig, source)
    except ParseError as err:
        return ("ParseError", str(err), err.position)
    except Exception as err:  # noqa: BLE001 - compared, not hidden
        return (type(err).__name__, str(err))
    return (list(mv._num.items()), mv._den)


def _mismatches(sources) -> list[tuple]:
    wrong = []
    for (p, q), source in sources:
        sig = Signature(p, q)
        new, old = _outcome(parse_multivector, sig, source), _outcome(reference_parse, sig, source)
        if new != old:
            wrong.append(((p, q), source[:80], new, old))
    return wrong


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24)))


def _names(p: int, q: int) -> list[str]:
    return [f"e{i}" for i in range(1, p + 1)] + [f"eps{i}" for i in range(1, q + 1)]


def _benchmark_form(rng: random.Random, p: int, q: int) -> str:
    """A sum of terms like ``3/2*e1*e3*eps2``, with whitespace around every
    operator, as the benchmark and ``cliffrep rep`` users write them."""
    names = _names(p, q)
    chunks = []
    for index in range(rng.randint(1, 6)):
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(0, 9), rng.choice((1, 2, 3)))
        factors = rng.sample(names, rng.randint(0, min(4, len(names))))
        if rng.random() < 0.3:
            factors.sort(key=names.index)
        if factors and rng.random() < 0.1:  # a repeated generator
            factors.insert(rng.randrange(len(factors) + 1), rng.choice(factors))
        if p > 1 and rng.random() < 0.1:  # a run of digits such as e12 or e21
            factors.append("e" + "".join(map(str, rng.sample(range(1, min(p, 9) + 1), 2))))
        star = f"{rng.choice(SPACES)}*{rng.choice(SPACES)}"
        if factors and rng.random() < 0.3:
            body = star.join(factors)  # no coefficient
        else:
            body = star.join([str(abs(coeff))] + factors)
        op = "-" if coeff < 0 else "+"
        if index or coeff < 0 or rng.random() < 0.2:
            body = f"{rng.choice(SPACES)}{op}{rng.choice(SPACES)}{body}"
        chunks.append(body)
    return rng.choice(SPACES) + "".join(chunks) + rng.choice(SPACES)


def _mutated(rng: random.Random, source: str) -> str:
    """``source`` with one character replaced, inserted or deleted."""
    at = rng.randrange(len(source) + 1)
    kind = rng.choice(("replace", "insert", "delete"))
    if kind == "insert" or at == len(source):
        return source[:at] + rng.choice(ALPHABET) + source[at:]
    if kind == "replace":
        return source[:at] + rng.choice(ALPHABET) + source[at + 1 :]
    return source[:at] + source[at + 1 :]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SIGNATURES), st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_random_alphabet_strings_match_the_reference(pq, source):
    assert not _mismatches([(pq, source)])


def test_seeded_strings_match_the_reference():
    rng = random.Random("parse-differential")
    sources = []
    for pq in SIGNATURES:
        sources += [(pq, _random_string(rng)) for _ in range(300)]
        for _ in range(150):
            source = _benchmark_form(rng, *pq)
            sources += [(pq, source), (pq, _mutated(rng, source))]
    assert not _mismatches(sources)


@pytest.mark.parametrize("pq", SIGNATURES)
def test_pinned_forms_match_the_reference(pq):
    names = _names(*pq) or ["e1"]
    first, last = names[0], names[-1]
    sources = [
        "", " ", "+", "-", "*", "0", "1/", "1/0", "007/010", "e", "eps", "e0", "e1",
        "eps1", f"{first}*{last}", f"{last}*{first}", f"{first} * {first}", f"2*{first}*",
        f"2 {first}", f"{first}{first}", f"1 + * {first}", f"1 ++ {first}", "1 - -1",
        f"3/2 *\u2003{first} -\x1c{last}", f"{first} *\u200b", "e123456789", "eps0123",
        "e21", "e1/2", "2e1", "\u0663", "e\u0663", "2\xb2", "1" * 5000, f"e{'1' * 5000}",
        f"1/{'2' * 5000}", f"{'9' * 5000}*e99", f"1/0*{'e' * 3}1",
    ]
    assert not _mismatches([(pq, s) for s in sources])


def test_long_inputs_match_the_reference():
    rng = random.Random("parse-differential:long")
    names = _names(5, 5)
    terms = []
    for _ in range(20_000):
        factors = "*".join(sorted(rng.sample(names, rng.randint(0, 5)), key=names.index))
        coeff = f"{rng.randint(1, 9)}/{rng.choice((1, 2, 3))}"
        terms.append(f"{coeff}*{factors}" if factors else coeff)
    long_sum = " - ".join(terms)
    run = " " * 100_000
    sources = [long_sum, long_sum + " *", long_sum + " x", run, f"e1{run}", f"{run}e1",
               f"1{run}+{run}e2", f"e1{run}*{run}e2", f"e1{run}*{run}", f"2{run}x",
               f"1 + e1 *{run}eps"]
    assert not _mismatches([((5, 5), s) for s in sources])
