"""Command-line surface: the word grammar, rational-point syntax, and the
subcommands.

Grammar:
    word     := ws* (term ws*)*
    term     := ("x" | "y") "[" bits "]" ("^" int)?
    rational := bits "(" bits+ ")"
y-terms with constant subscripts are a domain error.

Exit codes: 0 success, 1 parse error, 2 domain error, 3 internal-consistency
failure.  A word whose exponents total more than MAX_WORD_EXPONENT in
absolute value is a domain error.
"""

import re
import sys

from .binseq import RationalSeq, is_constant
from .rewrite import Letter

PARSE_ERROR = 1
DOMAIN_ERROR = 2
INTERNAL_ERROR = 3

# bound on the sum of |exponent| over a parsed word, checked before any
# work.  It bounds the input, not the work.  `normalize` builds x_s^k by
# repeated squaring, so an x-power costs little (normalize "x[0]^500"
# takes about 0.01 s on a 2-core x86-64 machine), and stops after
# rewrite.REWRITE_STEPS rule firings or once its word grows past
# rewrite.MAX_WORD_ITEMS items.  `calc` makes one symbol per unit and
# stops after calculus.MAX_STEPS digits read by all of them: "y[01]^17"
# at "01(1)" answers, and N = 18 and above exit 3.
MAX_WORD_EXPONENT = 500


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    pass


_TERM_RE = re.compile(r"([xy])\[([01]*)\](?:\^(-?\d+))?")


def parse_word(text):
    """Parse a word into a list of letters."""
    out = []
    pos = 0
    n = len(text)
    total = 0
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ParseError(f"expected a term in {text!r}", pos)
        kind, sub, exp = m.group(1), m.group(2), m.group(3)
        exp = 1 if exp is None else int(exp)
        if exp == 0:
            raise DomainError(f"zero exponent at position {pos}")
        total += abs(exp)
        if total > MAX_WORD_EXPONENT:
            raise DomainError(
                f"exponents total more than the bound of "
                f"{MAX_WORD_EXPONENT:,} at position {pos}"
            )
        if kind == "y" and is_constant(sub):
            raise DomainError(f"constant y-subscript {sub!r} at position {pos}")
        out.append(Letter(kind, sub, exp))
        pos = m.end()
    return out


def render_word(word):
    return " ".join(lt.render() for lt in word)


def parse_rational(text):
    try:
        return RationalSeq.parse(text)
    except ValueError as e:
        raise ParseError(str(e), 0) from None


def main(argv=None):
    from . import commands

    return commands.run(argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
