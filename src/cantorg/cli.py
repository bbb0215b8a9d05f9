"""Command-line surface: the word grammar, rational-point syntax, and the
subcommands.

Grammar:
    word     := ws* (term ws*)*
    term     := ("x" | "y") "[" bits "]" ("^" int)?
    rational := bits "(" bits+ ")"
y-terms with constant subscripts are a domain error.

Exit codes: 0 success, 1 parse error, 2 domain error, 3 internal-consistency
failure.
"""

import re
import sys

from .binseq import RationalSeq, is_constant
from .rewrite import letter

PARSE_ERROR = 1
DOMAIN_ERROR = 2
INTERNAL_ERROR = 3


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
        if kind == "y" and is_constant(sub):
            raise DomainError(f"constant y-subscript {sub!r} at position {pos}")
        out.append(letter(kind, sub, exp))
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
