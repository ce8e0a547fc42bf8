"""Words over an ordered alphabet, and the statistics that classify them.

A word is a finite sequence of symbols.  Symbols come in two kinds that never
mix inside one word: letters (exact ints >= 1, ordered in the usual way) and
variables (identifier-like names, used to state identities), told apart by
_are_letters and _are_variables, the package's one symbol check.  Everything
else in the package is built on the statistics defined here: content,
occurrence counts, directional occurrence counts relative to an anchor, and the
three occurrence skeletons ip/fp/mix.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from reprlib import repr as _short_repr
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


_INT, _STR = {int}, {str}


def _are_letters(seq) -> bool:
    """Whether every item of seq is a letter: an exact int >= 1.

    Two passes in C: the type pass refuses variables, floats and bools, the
    min() pass numbers below 1.
    """
    return _INT.issuperset(map(type, seq)) and min(seq, default=1) >= 1


def _are_variables(seq) -> bool:
    """Whether every item of seq is a variable: an exact str matching
    _VARIABLE_NAME, which runs once per distinct name."""
    return _STR.issuperset(map(type, seq)) and all(map(_VARIABLE_NAME.match, set(seq)))


def _refusal(syms: tuple) -> str:
    """Why syms is no word, quoting its first symbol not of the first one's kind."""
    kind, check = (VARIABLES, _are_variables) if type(syms[0]) is str else (LETTERS, _are_letters)
    i = next(i for i, s in enumerate(syms) if not check((s,)))
    return (f"symbol {i}, {_short_repr(syms[i])}, is no {kind}: a word holds letters (ints >= 1)"
            f" or variables (names matching {_VARIABLE_NAME.pattern[:-2]}), not both")


class Word:
    """An immutable word whose symbols are all letters or all variables.

    The empty word has kind None and concatenates with either kind.  Word(...)
    checks outside input; _make wraps symbols taken from words already checked.
    """

    __slots__ = ("symbols", "kind")

    def __init__(self, symbols: Iterable[Symbol] = ()):
        syms = tuple(symbols)
        if not syms:
            kind = None
        elif _are_letters(syms):
            kind = LETTERS
        elif _are_variables(syms):
            kind = VARIABLES
        else:
            raise ValueError(_refusal(syms))
        _set_symbols(self, syms)
        _set_kind(self, kind)

    @classmethod
    def _make(cls, symbols: tuple, kind) -> "Word":
        """Wrap a tuple whose symbols are known to be of kind; no check."""
        w = object.__new__(cls)
        _set_symbols(w, symbols)
        _set_kind(w, kind if symbols else None)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.symbols,)

    @classmethod
    def letters(cls, source) -> "Word":
        """Build a letter word from an int iterable or from text.

        Text is either compact ASCII digits ("212", letters 1..9 only) or
        whitespace-separated integers ("12 3 12").
        """
        return _of_kind(LETTERS, cls(_parse_letter_text(source) if isinstance(source, str)
                                     else source))

    @classmethod
    def variables(cls, source) -> "Word":
        """Build a variable word from a name iterable or from text.

        Text is either juxtaposed single-character names ("xyx") or
        whitespace-separated names ("foo bar foo").
        """
        return _of_kind(VARIABLES, cls(_tokens(source) if isinstance(source, str) else source))

    def text(self) -> str:
        """Render in the most compact form that round-trips through parsing."""
        parts = tuple(map(str, self.symbols))
        return ("" if all(len(p) == 1 for p in parts) else " ").join(parts)

    def reverse(self) -> "Word":
        return Word._make(self.symbols[::-1], self.kind)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word._make(self.symbols[index], self.kind)
        return self.symbols[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.kind and other.kind and self.kind != other.kind:
            raise ValueError("cannot concatenate letter and variable words")
        return Word._make(self.symbols + other.symbols, self.kind or other.kind)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


_set_symbols, _set_kind = Word.symbols.__set__, Word.kind.__set__


def _of_kind(kind: str, w: Word) -> Word:
    if w.kind not in (None, kind):
        raise ValueError(f"expected a {kind} word, got a {w.kind} word")
    return w


def _tokens(text: str) -> list:
    """The symbols of a word's text: split at whitespace if it has any, else into characters."""
    parts = text.split()
    return parts if len(parts) > 1 else list(text.strip())


def _parse_letter_text(text: str) -> tuple:
    parts = _tokens(text)
    for p in parts:
        if not (p.isascii() and p.isdigit()):
            raise ValueError(f"letter text holds {_short_repr(p)}, which is no decimal number")
    return tuple(map(int, parts))


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


def _ip(syms: tuple) -> tuple:
    return tuple(dict.fromkeys(syms))


def _fp(syms: tuple) -> tuple:
    return tuple(dict.fromkeys(reversed(syms)))[::-1]


def _like(w, syms: tuple) -> Word:
    """syms, drawn from the symbols of w, as a word; unchecked when w is a Word."""
    return Word._make(syms, w.kind) if isinstance(w, Word) else Word(syms)


def skeleton(mode: str, w) -> Word:
    """Occurrence skeleton of w.

    "ip" keeps the first occurrence of every symbol, "fp" the last, "mix"
    both (one entry for symbols occurring once).  Order of positions is kept.
    """
    syms = _symbols(w)
    if mode == IP:
        return _like(w, _ip(syms))
    if mode == FP:
        return _like(w, _fp(syms))
    if mode == MIX:
        return _like(w, tuple(syms[i] for i in sorted(_mix_positions(syms))))
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
    return _like(w, tuple(s for s in _symbols(w) if s in wanted))


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
