"""Words over the monoid generators: parser, printer, evaluator, decompositions.

Grammar::

    word := term+
    term := gen ('^' uint)?
    gen  := 'a' | 'b' | 'I' | 'e[' uint ']'

Whitespace between terms is optional.  Exponents are positive and hole
indices are at least 2.  ``I`` denotes the identity and parses to the empty
product, so parse and print are mutually inverse on canonical words; the
empty word prints as ``"I"``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .natmonoid import Bicyclic, NatIsometry, from_bicyclic, gen_e, identity


class Token(NamedTuple):
    kind: str            # "a", "b" or "e"
    exp: int
    index: int = 0       # hole position, only for "e"


class WordSyntaxError(ValueError):
    """A word that does not parse; ``offset`` is where parsing stopped."""

    def __init__(self, message: str, offset: int):
        # both arguments stay in ``args``, so a pickled copy rebuilds the error
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (offset {self.offset})"


class NotInFiltrationError(ValueError):
    pass


class Word:
    """Immutable token sequence; adjacent equal generators are merged."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: Iterable[Token] = ()):
        merged: list[Token] = []
        for t in tokens:
            if t.kind not in ("a", "b", "e"):
                raise ValueError(f"unknown generator kind {t.kind!r}")
            if t.exp < 1:
                raise ValueError(f"exponent must be positive, got {t.exp}")
            if t.kind == "e" and t.index < 2:
                raise ValueError(f"hole index must be >= 2, got {t.index}")
            if t.kind != "e" and t.index != 0:
                raise ValueError(f"generator {t.kind!r} takes no index")
            if merged and merged[-1].kind == t.kind and merged[-1].index == t.index:
                merged[-1] = merged[-1]._replace(exp=merged[-1].exp + t.exp)
            else:
                merged.append(t)
        self.tokens = tuple(merged)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.tokens == other.tokens
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.tokens + other.tokens)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


def parse(text: str) -> Word:
    """Parse a word; syntax errors carry the byte offset of the offending spot."""
    i = 0
    n = len(text)
    tokens: list[Token] = []
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ("a", "b"):
            kind, index = ch, 0
            i += 1
        elif ch == "I":
            kind, index = "", 0
            i += 1
        elif ch == "e":
            if i + 1 >= n or text[i + 1] != "[":
                raise WordSyntaxError("expected '[' after 'e'", i + 1)
            j = i + 2
            start = j
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == start:
                raise WordSyntaxError("expected a hole index", start)
            if j >= n or text[j] != "]":
                raise WordSyntaxError("expected ']'", j)
            index = int(text[start:j])
            if index < 2:
                raise WordSyntaxError(f"hole index must be >= 2, got {index}", start)
            kind = "e"
            i = j + 1
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
        exp = 1
        if i < n and text[i] == "^":
            j = i + 1
            start = j
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == start:
                raise WordSyntaxError("expected an exponent", start)
            exp = int(text[start:j])
            if exp < 1:
                raise WordSyntaxError("exponent must be positive", start)
            i = j
        if kind:
            tokens.append(Token(kind, exp, index))
    return Word(tokens)


def format_word(w: Word) -> str:
    """Canonical text form; the empty word prints as the identity token."""
    if not w.tokens:
        return "I"
    parts = []
    for t in w.tokens:
        base = f"e[{t.index}]" if t.kind == "e" else t.kind
        parts.append(base if t.exp == 1 else f"{base}^{t.exp}")
    return " ".join(parts)


def _token_element(t: Token) -> NatIsometry:
    # Generator powers in closed form; the hole maps are idempotent.
    if t.kind == "a":
        return NatIsometry(t.exp)
    if t.kind == "b":
        return from_bicyclic(Bicyclic(t.exp, 0))
    return gen_e(t.index)


def evaluate(w: Word) -> NatIsometry:
    """Left-to-right product of the generators a word denotes."""
    out = identity()
    for t in w.tokens:
        out = out * _token_element(t)
    return out


def decompose(g: NatIsometry) -> Word:
    """A word over {a, b, e[*]} evaluating to g.

    Hole factors come first in increasing index (they commute), then the
    down shifts, then the up shifts.
    """
    m = g.markers()
    tokens = [Token("e", 1, x) for x in g.holes]
    if m.nd_low > 1:
        tokens.append(Token("b", m.nd_low - 1))
    if m.nr_low > 1:
        tokens.append(Token("a", m.nr_low - 1))
    return Word(tokens)


def decompose_filtered(g: NatIsometry, k: int) -> Word:
    """A word over the three generators {a, b, e[k]} alone evaluating to g.

    Requires gap(g) <= k.  g is conjugated down to an idempotent whose holes
    all lie in 2..k, and each hole l is spelled a^(k-l) e[k] b^(k-l).
    """
    if k < 2:
        raise ValueError(f"filtration index must be >= 2, got {k}")
    if g.gap() > k:
        raise NotInFiltrationError(f"gap {g.gap()} exceeds filtration index {k}")
    m = g.markers()
    tokens: list[Token] = []
    if m.nd_low > 1:
        tokens.append(Token("b", m.nd_low - 1))
    for x in g.holes:
        l = x - m.nd_low + 1
        if k - l:
            tokens.append(Token("a", k - l))
        tokens.append(Token("e", 1, k))
        if k - l:
            tokens.append(Token("b", k - l))
    if m.nr_low > 1:
        tokens.append(Token("a", m.nr_low - 1))
    return Word(tokens)
