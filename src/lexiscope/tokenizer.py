"""Split raw identifiers into lowercase word tokens by naming conventions.

The split is a pure function of the identifier string:

1. break at ``_`` and ``$`` separators (dropped),
2. break at digit runs (dropped),
3. break every lower->Upper camel-case boundary,
4. inside an uppercase run followed by a lowercase letter, break before the
   last uppercase letter (so ``XMLHttp`` yields ``XML`` + ``Http``),
5. lowercase everything, drop empty pieces.

Concatenating the result always reproduces the lowercased identifier with
separators and digits removed.
"""

from __future__ import annotations

import re

__all__ = ["split_identifier"]

# One alternation per camel-case piece: an all-caps run not followed by
# lowercase (acronym), a capitalized word, or a lowercase run.  A piece is
# made of letters and looks ahead only for a lowercase letter, so a
# separator or a digit ends a piece as the end of the name does, and the
# pieces of the whole name are those of its separated parts.
_CAMEL = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


def split_identifier(name: str) -> list[str]:
    """Split an identifier into its lowercase word tokens, in order."""
    # The pieces are ASCII letter runs: joined, lowercased and split again
    # in three calls, with no Python call per piece.
    return " ".join(_CAMEL.findall(name)).lower().split()
