"""Words over an ordered alphabet, and the statistics that classify them.

A word is a finite sequence of symbols.  Symbols come in two kinds that never
mix inside one word: letters (integers >= 1, ordered in the usual way) and
variables (identifier-like names, used to state identities).  Everything else
in the package is built on the statistics defined here: content, occurrence
counts, directional occurrence counts relative to an anchor, and the three
occurrence skeletons ip/fp/mix.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

Symbol = Union[int, str]

_VARIABLE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

LETTERS = "letter"
VARIABLES = "variable"

IP = "ip"
FP = "fp"
MIX = "mix"

BEFORE = "before"
AFTER = "after"


class AnchorAbsentError(ValueError):
    """Raised when a directional count is anchored at a symbol the word lacks."""


def _validate_letter(s) -> None:
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError(f"letters must be integers >= 1, got {s!r}")


def _validate_variable(s) -> None:
    if not isinstance(s, str) or not _VARIABLE_NAME.match(s):
        raise ValueError(f"invalid variable name {s!r}")


class Word:
    """An immutable word whose symbols are all letters or all variables.

    The empty word has kind None and concatenates with either kind.
    """

    __slots__ = ("symbols", "kind")

    def __init__(self, symbols: Iterable[Symbol] = ()):
        syms = tuple(symbols)
        kind = None
        if syms:
            if all(isinstance(s, str) for s in syms):
                kind = VARIABLES
                for s in syms:
                    _validate_variable(s)
            else:
                kind = LETTERS
                for s in syms:
                    _validate_letter(s)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.symbols,)

    @classmethod
    def letters(cls, source) -> "Word":
        """Build a letter word from an int iterable or from text.

        Text is either compact digits ("212", letters 1..9 only) or
        space-separated integers ("12 3 12").
        """
        if isinstance(source, str):
            return cls(_parse_letter_text(source))
        return cls(tuple(source))

    @classmethod
    def variables(cls, source) -> "Word":
        """Build a variable word from a name iterable or from text.

        Text is either juxtaposed single-character names ("xyx") or
        space-separated names ("foo bar foo").
        """
        if isinstance(source, str):
            return cls(_parse_variable_text(source))
        return cls(tuple(source))

    def text(self) -> str:
        """Render in the most compact form that round-trips through parsing."""
        if not self.symbols:
            return ""
        if self.kind == LETTERS:
            if all(s <= 9 for s in self.symbols):
                return "".join(str(s) for s in self.symbols)
            return " ".join(str(s) for s in self.symbols)
        if all(len(s) == 1 for s in self.symbols):
            return "".join(self.symbols)
        return " ".join(self.symbols)

    def reverse(self) -> "Word":
        return Word(self.symbols[::-1])

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.symbols[index])
        return self.symbols[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.kind and other.kind and self.kind != other.kind:
            raise ValueError("cannot concatenate letter and variable words")
        return Word(self.symbols + other.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


def _parse_letter_text(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    if " " in text:
        parts = text.split()
    else:
        parts = list(text)
    out = []
    for p in parts:
        if not p.isdigit():
            raise ValueError(f"invalid letter {p!r} in {text!r}")
        v = int(p)
        if v < 1:
            raise ValueError(f"letters must be >= 1, got {p!r}")
        out.append(v)
    return tuple(out)


def _parse_variable_text(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    parts = text.split() if " " in text else list(text)
    for p in parts:
        if not _VARIABLE_NAME.match(p):
            raise ValueError(f"invalid variable name {p!r} in {text!r}")
    return tuple(parts)


def _symbols(w) -> tuple:
    return w.symbols if isinstance(w, Word) else tuple(w)


def con(w) -> frozenset:
    """Content: the set of symbols occurring in w."""
    return frozenset(_symbols(w))


def occ(x: Symbol, w) -> int:
    """Number of occurrences of x in w."""
    return _symbols(w).count(x)


def ev(w) -> Counter:
    """Evaluation of w: symbol -> occurrence count (symbols absent are omitted)."""
    return Counter(_symbols(w))


def ev_leq(a: Counter, b: Counter) -> bool:
    """Componentwise comparison of evaluations: every count in a is <= in b."""
    return all(v <= b.get(k, 0) for k, v in a.items())


def _after_table(syms: tuple) -> dict:
    """For every symbol, the counts of the symbols after its last occurrence."""
    seen: dict = {}
    table = {}
    for s in reversed(syms):
        if s not in table:
            table[s] = seen.copy()
        seen[s] = seen.get(s, 0) + 1
    return table


def _before_table(syms: tuple) -> dict:
    """For every symbol, the counts of the symbols before its first occurrence."""
    return _after_table(syms[::-1])


def directional_occ(direction: str, anchor: Symbol, x: Symbol, w) -> int:
    """Occurrences of x strictly before the first anchor or after the last one.

    direction "before" counts x left of the first occurrence of anchor,
    "after" counts x right of the last occurrence of anchor.  The anchor must
    occur in w; x need not.
    """
    if direction not in (AFTER, BEFORE):
        raise ValueError(f"unknown direction {direction!r}")
    table = (_after_table if direction == AFTER else _before_table)(_symbols(w))
    if anchor not in table:
        raise AnchorAbsentError(f"symbol {anchor!r} does not occur")
    return table[anchor].get(x, 0)


def skeleton(mode: str, w) -> Word:
    """Occurrence skeleton of w.

    "ip" keeps the first occurrence of every symbol, "fp" the last, "mix"
    both (one entry for symbols occurring once).  Order of positions is kept.
    """
    syms = _symbols(w)
    if mode == IP:
        return Word(dict.fromkeys(syms))
    if mode == FP:
        return Word(tuple(dict.fromkeys(reversed(syms)))[::-1])
    if mode == MIX:
        return Word(syms[i] for i in sorted(_mix_positions(syms)))
    raise ValueError(f"unknown skeleton mode {mode!r}")


def _first_last_positions(syms: tuple) -> tuple[dict, dict]:
    first: dict = {}
    last: dict = {}
    for i, s in enumerate(syms):
        if s not in first:
            first[s] = i
        last[s] = i
    return first, last


def _mix_positions(syms: tuple) -> set:
    first, last = _first_last_positions(syms)
    return set(first.values()) | set(last.values())


def ip(w) -> Word:
    return skeleton(IP, w)


def fp(w) -> Word:
    return skeleton(FP, w)


def mix(w) -> Word:
    return skeleton(MIX, w)


def restrict(w, symbols) -> Word:
    """Subword of w consisting of the occurrences of the given symbols."""
    wanted = set(symbols)
    return Word(s for s in _symbols(w) if s in wanted)


@dataclass(frozen=True)
class Identity:
    """A formal identity between two variable words."""

    lhs: Word
    rhs: Word

    def __post_init__(self):
        for side in (self.lhs, self.rhs):
            if side.kind == LETTERS:
                raise ValueError("identity sides must be variable words")

    @classmethod
    def parse(cls, text: str) -> "Identity":
        """Parse "xyx = yxx"; also accepts the unicode approx sign."""
        norm = text.replace("≈", "=")
        if norm.count("=") != 1:
            raise ValueError(f"identity must contain exactly one '=': {text!r}")
        left, right = norm.split("=")
        return cls(Word.variables(left.strip()), Word.variables(right.strip()))

    def text(self) -> str:
        return f"{self.lhs.text()} = {self.rhs.text()}"

    def variables(self) -> tuple:
        """Sorted names occurring on either side."""
        return tuple(sorted(set(self.lhs.symbols) | set(self.rhs.symbols)))

    def is_trivial(self) -> bool:
        return self.lhs == self.rhs

    def __repr__(self) -> str:
        return f"Identity({self.text()!r})"


def load_identity_system(path) -> list:
    """Read identities from a file, one per line; '#' starts a comment."""
    rules = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                rules.append(Identity.parse(line))
    return rules
