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
stand between tokens but not inside a name or a rational.  The parser makes
one pass over the text, matching one token pattern at each position, where
a ``*`` and the name after it are read as one token; it resolves each
distinct name to its blade mask once per call, and sums the terms as
integer numerators over one running denominator.  The printer emits blades
in ascending mask order and sticks to forms the parser accepts.
"""

from __future__ import annotations

import re
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


def parse_multivector(sig: Signature, source: str) -> Multivector:
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
