"""Binary search trees for the sylvester and Baxter insertion algorithms.

A right strict tree keeps left subtree <= node < right subtree and is built
by inserting the word from right to left (new symbol goes right exactly when
it is larger).  A left strict tree keeps left < node <= right and is built
from left to right (new symbol goes left exactly when it is smaller).  The
Baxter object is the pair of both trees for the same word.

Both trees have the positions of the word as nodes, in the in-order of
_inorder: they are its Cartesian trees with the largest (right strict) or the
smallest (left strict) position at the root, built by tableaux._shape_key.
A BaxterObject, like every canonical object, is a tableaux._Canonical: it
keeps the pair of tree keys and the word, and hands out the trees on access.
"""
from __future__ import annotations

from collections import Counter

from .tableaux import _Canonical, _SearchTree, _letter_seq, _shape_key


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


class BaxterObject(_Canonical):
    """Pair of the left strict and right strict trees of one word.

    The key is the pair of the two tree keys, as _baxt_key builds it; sharp
    and plain rebuild the trees from it on each access.
    """

    __slots__ = ()
    _insert = staticmethod(lambda w: p_baxt(w))

    def __init__(self, sharp: LeftStrictBST, plain: RightStrictBST):
        if not isinstance(sharp, LeftStrictBST) or not isinstance(plain, RightStrictBST):
            raise TypeError("BaxterObject needs a LeftStrictBST and a RightStrictBST")
        if sharp.as_counter() != plain.as_counter():
            raise ValueError("component trees carry different label multisets")
        super().__init__((sharp._key, plain._key))

    @property
    def sharp(self) -> LeftStrictBST:
        return LeftStrictBST._make(self._key[0], self._word)

    @property
    def plain(self) -> RightStrictBST:
        return RightStrictBST._make(self._key[1], self._word)

    def as_counter(self) -> Counter:
        return self.plain.as_counter()

    def _spell(self) -> tuple:
        raise ValueError("this BaxterObject does not carry a reading word")

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
        """The pair of a to_json_dict payload; ValueError if a tree is invalid."""
        return cls(
            LeftStrictBST.from_json_dict(data["sharp"]),
            RightStrictBST.from_json_dict(data["plain"]),
        )


def p_baxt(w) -> BaxterObject:
    """Both strict trees of w as one object."""
    seq = _letter_seq(w)
    return BaxterObject._make(_baxt_key(seq), seq)
