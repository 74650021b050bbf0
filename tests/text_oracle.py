"""The token loop that read the text grammars before the term reader read
every text, `parsing._terms`.

One anchored match checks the whole text, and where it stops is the first
character no token starts; one `findall` then hands over the tokens, each
sorted into letter, number or sign by its regex group.  A run of signs
multiplies, its first sign closes the term before it, and a trailing sign
is refused.  A number is a coefficient only as a term's first atom; "1" is
the empty word.  Each term's atoms are read, then its letters range
checked.  Kept verbatim as the oracle `parsing._terms` must match exactly:
same terms, letter tuples, coefficient values and types, same order, same
ParseError messages and line numbers.
"""

import re

from freeproj.errors import ParseError
from freeproj.fields import MAX_LITERAL_DIGITS, read_int

# one token as (letter index, star, number, sign): the one group it fills
_TOKEN = re.compile(r"\s*(?:x([0-9]+)(\*?)|([0-9]+/[0-9]+|[0-9]+)|([+-]))")
# Tokens and the space between them in one greedy match.  It never needs to
# backtrack into a token, so it ends where reading one token at a time
# stops: at the first character that starts no token, or at the end.
_TOKENS = re.compile(rf"(?:{_TOKEN.pattern})*\s*")


def _token_terms(field, d, text: str, line=None, starred=False):
    """The terms of text read a token at a time, as `_terms` gives them,
    or the ParseError of the first fault.  A run of signs multiplies, its
    first sign closes the term before it, and a trailing sign is refused.
    A number is a coefficient only as a term's first atom; "1" is the empty
    word.  Each term's atoms are read, then its letters range checked."""
    end = _TOKENS.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", line)
    terms = []
    sign, coeff, letters, k, seen = 1, field.one, [], 0, False  # k: atoms read in the term
    for digits, star, number, op in _TOKEN.findall(text):
        if op:
            if k:
                terms.append(_checked(field, sign, coeff, letters, d, line))
                sign, coeff, letters, k = 1, field.one, [], 0
            if op == "-":
                sign = -sign
            continue
        if digits:
            if star and not starred:
                raise ParseError(f"starred letter {'x' + digits + star!r} not allowed here", line)
            # the lexer read ASCII digits; read_int only refuses a too-long index
            i = int(digits) if len(digits) <= MAX_LITERAL_DIGITS else read_int(digits, "a letter index", line)
            letters.append(~i if star else i)
        elif number != "1":  # "1" is the empty word
            if k:
                raise ParseError(f"unexpected coefficient {number!r} inside a term", line)
            coeff = field.from_str(number, line)
        k += 1
        seen = True
    if not k:
        raise ParseError("the expression ends in a sign" if seen else "empty expression", line)
    terms.append(_checked(field, sign, coeff, letters, d, line))
    return terms


def _checked(field, sign, coeff, letters, d, line):
    """The letters and the signed coefficient of a term; ParseError naming
    its first letter, in text order, whose index is not below d."""
    if letters and (max(letters) >= d or min(letters) < -d):
        i = next(i for i in letters if not -d <= i < d)
        raise ParseError(f"letter x{~i if i < 0 else i} out of range for d={d}", line)
    return tuple(letters), (field.neg(coeff) if sign < 0 else coeff)
