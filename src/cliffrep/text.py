"""Round-trippable text grammar for multivectors.

Terms look like ``3/2*e1``, ``-1*e12``, ``e1*eps2`` or a bare rational,
joined by ``+`` and ``-``.  Generator names are ``e1..e<p>`` for the +1
generators and ``eps1..eps<q>`` for the -1 generators.  A digit run after a
family letter first tries to name a single generator of that family; when it
is not one (e.g. ``e12`` with p = 2) it is read as a product of single-digit
generators in ascending order.  A term is the Clifford product of its
factors in the order written, so ``e2*e1`` reads as ``-e12``; a generator may
appear once per term.  Numbers and indices are runs of the ASCII
digits 0-9 only.  Whitespace, meaning whatever ``str.isspace`` accepts, may
stand between tokens but not inside a name or a rational.

The parser reads one term per match of one pattern: its sign, its rational
or first name, and the run of ``*`` and a name after it.  One ``findall``
splits the run into names, each distinct name is resolved to its blade mask
once per call, and the terms are summed as integer numerators over one
running denominator.  No positions are kept on the way: the checks run in
the order the term is written, and the first to fail raises its message and
leaves the index of its step (the numerator, the denominator or the i-th
name of the run).  That index is turned into a position once, from the
term's match: the i-th name is the i-th match of the name pattern over the
run.  An error between terms is placed from the match of the next term.

The printer emits blades in ascending mask order and sticks to forms the
parser accepts.
"""

from __future__ import annotations

import re
from itertools import islice
from math import lcm

from .algebra import Multivector, Signature, _pair_sign
from .rings import format_ratio


class ParseError(ValueError):
    """Rejects malformed multivector text; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def ascii_digits(text: str) -> bool:
    """True when ``text`` is a non-empty run of the digits 0-9; ``str.isdigit``
    and ``str.isdecimal`` also take other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


# One term after whitespace (group 1): the operator before it (2), a
# rational (numerator 3, the denominator digits 4 after a "/") with the run
# of "*" and a name after it (5), or a generator name with that run (6).
# Every part is optional, so every match succeeds, and when neither a
# rational nor a name matched, ``m.end()`` is where one had to start.  A
# run takes every "*" that a name follows, so a "*" read as an operator has
# none after it.
_TERM = re.compile(
    r"(\s*)(?:([-+*])\s*)?"
    r"(?:([0-9]+)(?:/([0-9]*))?((?:\s*\*\s*(?:eps|e)[0-9]+)*)"
    r"|((?:eps|e)[0-9]+(?:\s*\*\s*(?:eps|e)[0-9]+)*))?"
)
_NAME = re.compile(r"(?:eps|e)[0-9]+")


def _to_int(digits: str) -> int:
    """``int(digits)``; a ValueError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"number of {len(digits)} digits is too long") from None


def _name_error(source: str, at: int) -> ParseError:
    """The error where a generator name must start but none matched."""
    if source.startswith("eps", at):
        return ParseError("expected generator indices", at + 3)
    if source.startswith("e", at):
        return ParseError("expected generator indices", at + 1)
    return ParseError("expected a generator name", at)


def _blade_mask(sig: Signature, name: str) -> int:
    """Mask of one generator-family name such as ``e12`` or ``eps3``; a
    ValueError says what is wrong with the name."""
    family = "eps" if name.startswith("eps") else "e"
    digits = name[len(family) :]
    size, offset = (sig.q, sig.p) if family == "eps" else (sig.p, 0)
    value = _to_int(digits)
    if len(digits) == 1 or 1 <= value <= size:
        indices = [value]
    else:
        indices = [int(d) for d in digits]
        if any(nxt <= prev for prev, nxt in zip(indices, indices[1:])):
            raise ValueError("generator indices must be strictly ascending")
    mask = 0
    for idx in indices:
        if not 1 <= idx <= size:
            raise ValueError(f"generator index {idx} outside the signature")
        mask |= 1 << (offset + idx - 1)
    return mask


def _term_position(m: re.Match, step: int) -> int:
    """Where the term that ``m`` matched failed the check at ``step``: its
    numerator at -2, its denominator at -1, and from 0 on the name of that
    index in its run of names, which is that match of ``_NAME`` in the run."""
    if step < 0:
        return m.start(4 if step == -1 else 3)
    run = 5 if m[3] is not None else 6
    names = _NAME.finditer(m.string, m.start(run), m.end(run))
    return next(islice(names, step, None)).start()


def parse_multivector(sig: Signature, source: str) -> Multivector:
    """Parse the multivector grammar; raises ParseError with a position."""
    match, find_names, neg_mask = _TERM.match, _NAME.findall, sig.neg_mask
    masks: dict[str, int] = {}  # the mask of each name read so far
    nums: dict[int, int] = {}
    den, end = 1, len(source)
    m = match(source)
    _, op, digits, under, run, names = m.groups()
    if op is None and m.end(1) == end:
        raise ParseError("empty expression", end)
    if op == "*":
        raise _name_error(source, m.end(1))
    while True:
        # one term: its value is sign * num / d on the blade mask of its names
        if digits is None and names is None:
            raise _name_error(source, m.end())
        mask = 0
        try:  # ``step`` names the check being made, for _term_position
            if digits is None:
                num = d = 1
            else:
                step = -2
                num = _to_int(digits)
                step, names = -1, run
                d = 1 if under is None else _to_int(under or "0")  # "3/" has a zero one
                if not d:
                    raise ValueError("expected a non-zero denominator")
            for step, name in enumerate(find_names(names)):
                factor = masks.get(name)
                if factor is None:  # a name's first appearance; a bad name raises here
                    factor = masks[name] = _blade_mask(sig, name)
                if factor & mask:
                    raise ValueError("repeated generator in a term")
                # a factor below a generator already read is reordered past it;
                # the term is the product in the order written
                if mask > factor & -factor:
                    num *= _pair_sign(mask, factor, neg_mask)
                mask |= factor
        except ValueError as err:
            raise ParseError(str(err), _term_position(m, step)) from None
        if d != den:
            if den % d:
                scale = lcm(den, d) // den
                nums = {b: c * scale for b, c in nums.items()}
                den *= scale
            num *= den // d
        nums[mask] = nums.get(mask, 0) + (-num if op == "-" else num)
        m = match(source, m.end())
        _, op, digits, under, run, names = m.groups()
        if op is None:
            at = m.end(1)
            if at == end:
                return Multivector._raw(sig, nums, den)
            raise ParseError(f"unexpected character {source[at]!r}", at)
        if op == "*":  # no name follows it, so a rational or nothing does
            raise _name_error(source, m.end() if digits is None else m.start(3))


def blade_name(sig: Signature, mask: int) -> str:
    """Printable name of a blade mask, e.g. ``e12`` or ``e1*eps2``."""
    if mask == 0:
        return "1"
    pos_digits = [str(i + 1) for i in range(sig.p) if mask & (1 << i)]
    neg_digits = [str(i - sig.p + 1) for i in range(sig.p, sig.n) if mask & (1 << i)]
    parts = []
    if pos_digits:
        if sig.p <= 9:
            parts.append("e" + "".join(pos_digits))
        else:
            parts.extend(f"e{d}" for d in pos_digits)
    if neg_digits:
        if sig.q <= 9:
            parts.append("eps" + "".join(neg_digits))
        else:
            parts.extend(f"eps{d}" for d in neg_digits)
    return "*".join(parts)


def format_multivector(mv: Multivector) -> str:
    """Inverse of parse_multivector for canonical forms; blades ascend by mask."""
    if mv.is_zero:
        return "0"
    chunks: list[str] = []
    for mask, x in sorted(mv._num.items()):
        body = format_ratio(abs(x), mv._den)
        if mask:
            body = f"{body}*{blade_name(mv.sig, mask)}"
        if not chunks:
            chunks.append(body if x > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if x > 0 else f" - {body}")
    return "".join(chunks)
