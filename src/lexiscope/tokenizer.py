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

_SEPARATORS = re.compile(r"[_$0-9]+")

# One alternation per camel-case piece: an all-caps run not followed by
# lowercase (acronym), a capitalized word, or a lowercase run.
_CAMEL = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


def split_identifier(name: str) -> list[str]:
    """Split an identifier into its lowercase word tokens, in order."""
    return [
        match.group(0).lower()
        for piece in _SEPARATORS.split(name)
        for match in _CAMEL.finditer(piece)
    ]
