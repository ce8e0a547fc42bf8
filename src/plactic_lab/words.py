"""Words over an ordered alphabet, and the statistics that classify them.

A word is a finite sequence of symbols.  Symbols come in two kinds that never
mix inside one word: letters (exact ints >= 1, ordered in the usual way) and
variables (identifier-like names, used to state identities), told apart by
_are_letters and _are_variables, the package's one symbol check; _are_masks
runs the same type pass over the child masks of tree keys, and _letters reads
every letter word that insertion, canonical, equivalent and check_rank take.
Everything else in the package is built on the statistics defined here:
content, evaluation, the skeletons ip/fp/mix, the occurrence bounds (_bounds)
and the stalactic columns (_columns), which are the stal key, the taig pre-key
and, spelled by _spelled, the stal/taig normal form.
Identities between variable words live in identities.py, so building objects
never loads the identity machinery.  MonoidFamily, RankViolationError and
_FamilyTable live here too, so that naming a family loads no tree code.
"""
from __future__ import annotations

import enum
import re
from collections import Counter
from itertools import chain, repeat, starmap
from reprlib import repr as _short_repr
from typing import Iterable, Iterator, Union

Symbol = Union[int, str]

_VARIABLE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

LETTERS = "letter"
VARIABLES = "variable"

_INT, _STR = {int}, {str}


class RankViolationError(ValueError):
    """A word uses letters outside the declared alphabet."""


class MonoidFamily(enum.Enum):
    STAL = "stal"
    TAIG = "taig"
    SYLV = "sylv"
    SYLV_SHARP = "sylvsharp"
    BAXT = "baxt"
    LEFT_ZERO = "l21"
    RIGHT_ZERO = "r21"
    FREE_MONOGENIC = "free1"

    # members are singletons equal by identity; Enum's hash is Python code, run per lookup
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name: str) -> "MonoidFamily":
        for fam in cls:
            if fam.value == name:
                return fam
        raise ValueError(f"unknown monoid family {name!r}")

    def __str__(self) -> str:
        return self.value


class _FamilyTable(dict):
    """One row per MonoidFamily member; any other key raises ValueError."""

    def __missing__(self, family):
        raise ValueError(f"unknown family {family!r}")


def _are_letters(seq) -> bool:
    """Whether every item of seq is a letter: an exact int >= 1.

    Two passes in C: the type pass refuses variables, floats and bools, the
    min() pass numbers below 1.  seq is a sequence; min() without keywords
    skips the slower keyword-parsing call, which costs more than the pass.
    """
    return _INT.issuperset(map(type, seq)) and (not seq or min(seq) >= 1)


def _are_masks(seq) -> bool:
    """Whether every item of seq is a child mask of a tree key: an exact int
    in 0..3, by the same two passes as _are_letters and one max() pass."""
    return _INT.issuperset(map(type, seq)) and (not seq or min(seq) >= 0 and max(seq) <= 3)


def _are_variables(seq) -> bool:
    """Whether every item of seq is a variable: an exact str matching
    _VARIABLE_NAME, which runs once per distinct name."""
    return _STR.issuperset(map(type, seq)) and all(map(_VARIABLE_NAME.match, set(seq)))


def _check_count(name: str, value, least: int, error: type = ValueError) -> None:
    """Refuse a count or bound that is no exact int >= least: TypeError, naming it, for
    any other type (a float, a bool), error for an int below least."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {_short_repr(value)}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def _refusal(syms: tuple) -> str:
    """Why syms is no word, quoting its first symbol not of the first one's kind."""
    kind, check = (VARIABLES, _are_variables) if type(syms[0]) is str else (LETTERS, _are_letters)
    i = next(i for i, s in enumerate(syms) if not check((s,)))
    return (f"symbol {i}, {_short_repr(syms[i])}, is no {kind}: a word holds letters (ints >= 1)"
            f" or variables (names matching {_VARIABLE_NAME.pattern[:-2]}), not both")


class Word:
    """An immutable word whose symbols are all letters or all variables.

    Its kind is read from its first symbol; the empty word has kind None and
    concatenates with either kind.  Word(...) checks outside input; _make
    wraps symbols taken from words already checked.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[Symbol] = ()):
        syms = tuple(symbols)
        if syms and not (_are_letters(syms) or _are_variables(syms)):
            raise ValueError(_refusal(syms))
        _set_symbols(self, syms)

    @classmethod
    def _make(cls, symbols: tuple) -> "Word":
        """Wrap a tuple of symbols known to make a word; no check."""
        w = object.__new__(cls)
        _set_symbols(w, symbols)
        return w

    @property
    def kind(self):
        """The kind of the first symbol, "letter" or "variable"; None for the empty word."""
        return (LETTERS if type(self.symbols[0]) is int else VARIABLES) if self.symbols else None

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.symbols,)

    @classmethod
    def letters(cls, source) -> "Word":
        """Build a letter word from an int iterable or from text.

        Text is either compact ASCII digits ("212", letters 1..9 only) or
        whitespace-separated integers ("12 3 12", or "12 " for letter 12 alone).
        """
        return _of_kind(LETTERS, cls(_parse_letter_text(source) if isinstance(source, str)
                                     else source))

    @classmethod
    def variables(cls, source) -> "Word":
        """Build a variable word from a name iterable or from text.

        Text is either juxtaposed single-character names ("xyx") or
        whitespace-separated names ("foo bar foo", or "foo " for foo alone).
        """
        return _of_kind(VARIABLES, cls(_tokens(source) if isinstance(source, str) else source))

    def text(self) -> str:
        """Render in the most compact form that round-trips through parsing: symbols
        of one character juxtaposed, else spaced, and a lone longer symbol with a
        trailing space ("12 " is the letter 12, "12" the letters 1 and 2)."""
        parts = tuple(map(str, self.symbols))
        if all(len(p) == 1 for p in parts):
            return "".join(parts)
        return " ".join(parts) if len(parts) > 1 else parts[0] + " "

    def reverse(self) -> "Word":
        return Word._make(self.symbols[::-1])

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word._make(self.symbols[index])
        return self.symbols[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        a, b = self.symbols, other.symbols
        if a and b and type(a[0]) is not type(b[0]):
            raise ValueError("cannot concatenate letter and variable words")
        return Word._make(a + b)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


_set_symbols = Word.symbols.__set__


def _of_kind(kind: str, w: Word) -> Word:
    if w.kind not in (None, kind):
        raise ValueError(f"expected a {kind} word, got a {w.kind} word")
    return w


def _tokens(text: str) -> list:
    """The symbols of a word's text: split at whitespace if it has any, else into characters."""
    parts = text.split()
    return list(text) if parts == [text] else parts


def _parse_letter_text(text: str) -> tuple:
    parts = _tokens(text)
    for p in parts:
        if not (p.isascii() and p.isdigit()):
            raise ValueError(f"letter text holds {_short_repr(p)}, which is no decimal number")
    return tuple(map(int, parts))


def _parse_word(text: str) -> Word:
    """A word's text read as the kind it spells: letters if it can be, else variables."""
    try:
        return Word.letters(text)
    except ValueError:
        return Word.variables(text)


def _symbols(w) -> tuple:
    return w.symbols if isinstance(w, Word) else tuple(w)


def _letters(w, cap=None) -> tuple:
    """The letters of w as a tuple, text parsed as a letter word: ValueError unless all
    are letters, RankViolationError if one is above cap (None: any)."""
    seq = w if type(w) is tuple else Word.letters(w).symbols if isinstance(w, str) else _symbols(w)
    if not _are_letters(seq):
        raise ValueError("insertion needs a letter word: integers >= 1")
    if cap is not None and seq and max(seq) > cap:
        raise RankViolationError(f"the word is not over the letters 1..{cap}")
    return seq


def con(w) -> frozenset:
    """Content: the set of symbols occurring in w."""
    return frozenset(_symbols(w))


def ev(w) -> Counter:
    """Evaluation of w: symbol -> occurrence count (symbols absent are omitted)."""
    return Counter(_symbols(w))


def _columns(seq) -> tuple:
    """The stalactic columns of seq: (symbol, multiplicity) pairs, in the order of last
    occurrences.  Two words share them exactly when they share ev and fp."""
    counts = {}
    for a in reversed(seq):
        counts[a] = counts.get(a, 0) + 1
    return tuple(reversed(counts.items()))


def _spelled(columns) -> tuple:
    """Each column's symbol, repeated by its multiplicity, from left to right."""
    return tuple(chain.from_iterable(starmap(repeat, columns)))


def _ip(syms: tuple) -> tuple:
    return tuple(dict.fromkeys(syms))


def _fp(syms: tuple) -> tuple:
    return tuple(dict.fromkeys(reversed(syms)))[::-1]


def _like(w, syms: tuple) -> Word:
    """syms, drawn from the symbols of w, as a word; unchecked when w is a Word."""
    return Word._make(syms) if isinstance(w, Word) else Word(syms)


def _first_last_positions(syms: tuple) -> tuple[dict, dict]:
    """Each symbol's first and last position in syms."""
    n = len(syms)
    return dict(zip(reversed(syms), range(n - 1, -1, -1))), dict(zip(syms, range(n)))


def _bounds(syms: tuple, first_too: bool = False) -> list:
    """The last occurrences' positions in syms and, with first_too, the first ones', in
    order: mix reads its symbols there, and a stretch sort keeps them in place."""
    if not first_too:
        return sorted(dict(zip(syms, range(len(syms)))).values())
    first, last = _first_last_positions(syms)
    return sorted(set(first.values()).union(last.values()))


def ip(w) -> Word:
    """The first occurrence of each symbol of w, in order."""
    return _like(w, _ip(_symbols(w)))


def fp(w) -> Word:
    """The last occurrence of each symbol of w, in order."""
    return _like(w, _fp(_symbols(w)))


def mix(w) -> Word:
    """The first and last occurrence of each symbol of w (one if it occurs once), in order."""
    syms = _symbols(w)
    return _like(w, tuple(syms[i] for i in _bounds(syms, True)))
