"""Binary search trees for the sylvester and Baxter insertion algorithms.

A right strict tree keeps left subtree <= node < right subtree and is built
by inserting the word from right to left (new symbol goes right exactly when
it is larger).  A left strict tree keeps left < node <= right and is built
from left to right (new symbol goes left exactly when it is smaller).  The
Baxter object is the pair of both trees for the same word.

Both trees have the positions of the word as nodes, in the in-order of
_inorder: they are its Cartesian trees with the largest (right strict) or the
smallest (left strict) position at the root, built by tableaux._shape_key.
"""
from __future__ import annotations

from collections import Counter

from .tableaux import _SearchTree, _letter_seq, _shape_key


def _inorder(seq) -> list:
    """Positions sorted by letter, then position: the in-order of both trees."""
    return sorted(range(len(seq)), key=seq.__getitem__)


def _sylv_key(seq) -> tuple:
    return _shape_key(seq, _inorder(seq), True)


def _sylv_sharp_key(seq) -> tuple:
    return _shape_key(seq, _inorder(seq), False)


def _baxt_key(seq) -> tuple:
    """Keys of the left and the right strict tree, from one sort."""
    order = _inorder(seq)
    return _shape_key(seq, order, False), _shape_key(seq, order, True)


class RightStrictBST(_SearchTree):
    """Tree with left subtree <= node < right subtree."""

    __slots__ = ()
    _EQUAL_LEFT = True
    _insert = staticmethod(lambda w: p_sylv(w))


class LeftStrictBST(_SearchTree):
    """Tree with left subtree < node <= right subtree."""

    __slots__ = ()
    _EQUAL_RIGHT = _FORWARD = True
    _insert = staticmethod(lambda w: p_sylv_sharp(w))


def p_sylv(w) -> RightStrictBST:
    """Right strict tree of w, inserting from right to left."""
    seq = _letter_seq(w)
    return RightStrictBST._make(_sylv_key(seq), seq)


def p_sylv_sharp(w) -> LeftStrictBST:
    """Left strict tree of w, inserting from left to right."""
    seq = _letter_seq(w)
    return LeftStrictBST._make(_sylv_sharp_key(seq), seq)


class BaxterObject:
    """Pair of the left strict and right strict trees of one word."""

    __slots__ = ("sharp", "plain", "_word")

    def __init__(self, sharp: LeftStrictBST, plain: RightStrictBST, _word=None):
        # trees built by p_baxt from one word are consistent by construction
        if _word is None:
            if not isinstance(sharp, LeftStrictBST) or not isinstance(plain, RightStrictBST):
                raise TypeError("BaxterObject needs a LeftStrictBST and a RightStrictBST")
            if sharp.as_counter() != plain.as_counter():
                raise ValueError("component trees carry different label multisets")
        object.__setattr__(self, "sharp", sharp)
        object.__setattr__(self, "plain", plain)
        object.__setattr__(self, "_word", _word)

    def __setattr__(self, name, value):
        raise AttributeError("BaxterObject is immutable")

    def as_counter(self) -> Counter:
        return self.plain.as_counter()

    def reading_word(self) -> tuple:
        if self._word is None:
            raise ValueError("this BaxterObject does not carry a reading word")
        return self._word

    def __mul__(self, other: "BaxterObject") -> "BaxterObject":
        if not isinstance(other, BaxterObject):
            return NotImplemented
        return p_baxt(self.reading_word() + other.reading_word())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BaxterObject)
            and self.sharp == other.sharp
            and self.plain == other.plain
        )

    def __hash__(self) -> int:
        return hash((self.sharp, self.plain))

    def __repr__(self) -> str:
        return f"BaxterObject({self.sharp!r}, {self.plain!r})"

    def render(self) -> str:
        """Both trees as outlines, each under a heading line."""
        return (f"left-strict component:\n{self.sharp.render()}\n"
                f"right-strict component:\n{self.plain.render()}")

    def to_dot(self) -> str:
        """Two DOT digraphs, the left strict tree first."""
        return self.sharp.to_dot() + "\n" + self.plain.to_dot()

    def to_json_dict(self) -> dict:
        return {"sharp": self.sharp.to_json_dict(), "plain": self.plain.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BaxterObject":
        return cls(
            LeftStrictBST.from_json_dict(data["sharp"]),
            RightStrictBST.from_json_dict(data["plain"]),
        )


def p_baxt(w) -> BaxterObject:
    """Both strict trees of w as one object."""
    seq = _letter_seq(w)
    sharp, plain = _baxt_key(seq)
    return BaxterObject(LeftStrictBST._make(sharp, seq), RightStrictBST._make(plain, seq),
                        _word=seq)
