"""Stalactic tableaux and taiga trees, built by right-to-left insertion.

Both objects record, for each distinct letter of a word, how often it occurs;
they differ in how the distinct letters are arranged.  A stalactic tableau is
a row of columns (new letters enter on the left, so the top row ends up being
the fp skeleton of the word).  A taiga tree is a binary search tree over the
distinct letters, each node carrying a multiplicity.

_SearchTree is the one immutable tree class behind TaigaTree here and the two
strict trees of bst: it holds the multiplicity slot and the strictness as
class constants and gives all three their counting, validity check, JSON
round trip and ASCII/DOT pictures.
"""
from __future__ import annotations

from collections import Counter

from .words import Word, _symbols


def _letter_seq(w) -> tuple:
    if isinstance(w, str):
        return Word.letters(w).symbols
    syms = _symbols(w)
    if any(isinstance(s, str) for s in syms):
        raise ValueError("insertion needs a letter word")
    return syms


class StalacticTableau:
    """Columns of equal letters; insertion prepends new letters on the left."""

    __slots__ = ("columns", "_word")

    def __init__(self, columns=(), _word=None):
        cols = tuple((int(a), int(m)) for a, m in columns)
        seen = set()
        for a, m in cols:
            if a < 1 or m < 1:
                raise ValueError(f"bad column {(a, m)!r}")
            if a in seen:
                raise ValueError(f"duplicate column letter {a}")
            seen.add(a)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_word", _word)

    def __setattr__(self, name, value):
        raise AttributeError("StalacticTableau is immutable")

    def insert(self, a: int) -> "StalacticTableau":
        """One insertion step: increment a's column, or prepend a new one."""
        if a < 1:
            raise ValueError("letters must be >= 1")
        for i, (letter, mult) in enumerate(self.columns):
            if letter == a:
                cols = self.columns[:i] + ((letter, mult + 1),) + self.columns[i + 1 :]
                return StalacticTableau(cols)
        return StalacticTableau(((a, 1),) + self.columns)

    def letters(self) -> tuple:
        return tuple(a for a, _ in self.columns)

    def as_counter(self) -> Counter:
        return Counter({a: m for a, m in self.columns})

    def total(self) -> int:
        return sum(m for _, m in self.columns)

    def reading_word(self) -> tuple:
        """A word that rebuilds this tableau: each column spelled out in order."""
        if self._word is not None:
            return self._word
        out = []
        for a, m in self.columns:
            out.extend([a] * m)
        return tuple(out)

    def __mul__(self, other: "StalacticTableau") -> "StalacticTableau":
        if not isinstance(other, StalacticTableau):
            return NotImplemented
        return p_stal(self.reading_word() + other.reading_word())

    def __eq__(self, other) -> bool:
        return isinstance(other, StalacticTableau) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"StalacticTableau({list(self.columns)!r})"

    def render(self) -> str:
        """ASCII picture, one text column per tableau column."""
        if not self.columns:
            return "(empty)"
        widths = [len(str(a)) for a, _ in self.columns]
        height = max(m for _, m in self.columns)
        lines = []
        for row in range(height):
            cells = []
            for (a, m), wdt in zip(self.columns, widths):
                cells.append(str(a).rjust(wdt) if row < m else " " * wdt)
            lines.append(" ".join(cells).rstrip())
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"columns": [{"letter": a, "mult": m} for a, m in self.columns]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StalacticTableau":
        return cls((c["letter"], c["mult"]) for c in data["columns"])


def _stal_columns(seq) -> tuple:
    """(letter, multiplicity) columns, letters in order of last occurrence."""
    counts: dict = {}
    order = []
    for a in reversed(seq):
        if a in counts:
            counts[a] += 1
        else:
            counts[a] = 1
            order.append(a)
    order.reverse()
    return tuple((a, counts[a]) for a in order)


def p_stal(w) -> StalacticTableau:
    """Insert the letters of w from right to left into the empty tableau."""
    seq = _letter_seq(w)
    return StalacticTableau(_stal_columns(seq), _word=seq)


def _taiga_build(seq_reversed) -> object:
    """Insert the letters in order; nodes are (label, mult, left, right)."""
    root = None
    for a in seq_reversed:
        if root is None:
            root = [a, 1, None, None]
            continue
        cur = root
        while True:
            label = cur[0]
            if a == label:
                cur[1] += 1
                break
            slot = 2 if a < label else 3
            nxt = cur[slot]
            if nxt is None:
                cur[slot] = [a, 1, None, None]
                break
            cur = nxt
    return _freeze(root)


def _freeze(node):
    """Turn list nodes into tuples without recursion (chains can be long)."""
    if node is None:
        return None
    stack = [node]
    post = []
    while stack:
        n = stack.pop()
        post.append(n)
        for child in n[-2:]:
            if child is not None:
                stack.append(child)
    for n in reversed(post):
        if n[-2] is not None and isinstance(n[-2], list):
            n[-2] = tuple(n[-2])
        if n[-1] is not None and isinstance(n[-1], list):
            n[-1] = tuple(n[-1])
    return tuple(node)


class _SearchTree:
    """Immutable binary search tree of nested tuples; an empty tree is None.

    A node is (label, left, right), or (label, mult, left, right) in a class
    whose _MULT names the multiplicity slot.  _EQUAL_LEFT and _EQUAL_RIGHT
    say on which side of a node a label equal to its own may sit.  _insert
    builds the tree of a word, and _FORWARD says whether the expanded
    preorder of a tree rebuilds it as is (left to right insertion) or
    reversed (right to left insertion).
    """

    __slots__ = ("root", "_word")
    _MULT = None
    _EQUAL_LEFT = _EQUAL_RIGHT = _FORWARD = False

    def __init__(self, root=None, _word=None):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_word", _word)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def root_label(self):
        return None if self.root is None else self.root[0]

    def _preorder(self) -> tuple:
        """Labels in preorder, each repeated by its multiplicity."""
        mult = self._MULT
        out = []
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if mult is None:
                out.append(node[0])
            else:
                out.extend([node[0]] * node[mult])
            if node[-1] is not None:
                stack.append(node[-1])
            if node[-2] is not None:
                stack.append(node[-2])
        return tuple(out)

    def as_counter(self) -> Counter:
        return Counter(self._preorder())

    def reading_word(self) -> tuple:
        """A word that rebuilds this tree."""
        if self._word is not None:
            return self._word
        return self._preorder() if self._FORWARD else self._preorder()[::-1]

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._insert(self.reading_word() + other.reading_word())

    def in_order(self) -> tuple:
        out = []
        stack = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node[-2]
            node = stack.pop()
            out.append(node[0])
            node = node[-1]
        return tuple(out)

    def is_valid(self) -> bool:
        """Search-tree order with this class's strictness; multiplicities >= 1."""
        mult, equal_left, equal_right = self._MULT, self._EQUAL_LEFT, self._EQUAL_RIGHT
        stack = [(self.root, None, None)] if self.root is not None else []
        while stack:
            node, lo, hi = stack.pop()
            label, left, right = node[0], node[-2], node[-1]
            if mult is not None and node[mult] < 1:
                return False
            if lo is not None and (label < lo or (label == lo and not equal_right)):
                return False
            if hi is not None and (label > hi or (label == hi and not equal_left)):
                return False
            if left is not None:
                stack.append((left, lo, label))
            if right is not None:
                stack.append((right, label, hi))
        return True

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.root == other.root

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.root))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.root!r})"

    def to_json_dict(self):
        mult = self._MULT

        def go(node):
            if node is None:
                return None
            out = {"label": node[0]}
            if mult is not None:
                out["mult"] = node[mult]
            out["left"], out["right"] = go(node[-2]), go(node[-1])
            return out

        return go(self.root)

    @classmethod
    def from_json_dict(cls, data):
        mult = cls._MULT

        def go(d):
            if d is None:
                return None
            head = (d["label"],) if mult is None else (d["label"], d["mult"])
            return head + (go(d["left"]), go(d["right"]))

        return cls(go(data))

    def _node_text(self):
        mult = self._MULT
        if mult is None:
            return lambda node: str(node[0])
        return lambda node: f"{node[0]}^{node[mult]}"

    def to_dot(self) -> str:
        """DOT digraph; children are tagged L/R so the shape is unambiguous."""
        text = self._node_text()
        lines = ["digraph tree {", "  node [shape=box];"]
        if self.root is None:
            lines.append('  empty [label="(empty)" shape=plaintext];')
        else:
            counter = [0]

            def walk(node):
                my = counter[0]
                counter[0] += 1
                lines.append(f'  n{my} [label="{text(node)}"];')
                for tag, child in (("L", node[-2]), ("R", node[-1])):
                    if child is not None:
                        cid = walk(child)
                        lines.append(f'  n{my} -> n{cid} [label="{tag}"];')
                return my

            walk(self.root)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Indented outline, one node per line, children tagged L:/R:."""
        if self.root is None:
            return "(empty)"
        text = self._node_text()
        lines = []

        def walk(node, indent, tag):
            lines.append(f"{indent}{tag}{text(node)}")
            left, right = node[-2], node[-1]
            if left is not None:
                walk(left, indent + "  ", "L: ")
            if right is not None:
                walk(right, indent + "  ", "R: ")

        walk(self.root, "", "")
        return "\n".join(lines)


class TaigaTree(_SearchTree):
    """Binary search tree over distinct letters with multiplicities."""

    __slots__ = ()
    _MULT = 1
    _insert = staticmethod(lambda w: p_taig(w))

    def total(self) -> int:
        return len(self._preorder())


def p_taig(w) -> TaigaTree:
    """Insert the letters of w from right to left into the empty taiga tree."""
    seq = _letter_seq(w)
    return TaigaTree(_taiga_build(reversed(seq)), _word=seq)
