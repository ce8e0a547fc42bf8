"""Binary search trees for the sylvester and Baxter insertion algorithms.

A right strict tree keeps left subtree <= node < right subtree and is built
by inserting the word from right to left (new symbol goes right exactly when
it is larger).  A left strict tree keeps left < node <= right and is built
from left to right (new symbol goes left exactly when it is smaller).  The
Baxter object is the pair of both trees for the same word.

Both trees have the positions of the word as nodes, in the in-order that
tableaux._inorder sorts: they are its Cartesian trees with the largest (right
strict) or the smallest (left strict) position at the root.
tableaux._shape_key builds the first, and the second as the first of the
reversed word; _baxt_key sorts once for both.
A BaxterObject, like every canonical object, is a tableaux._Canonical: it
keeps the pair of tree keys and the word, and hands out the trees on access.
A pair from outside, built or loaded, is accepted only by the constructor, by
the twin-tree property (Giraudo 2012): two valid trees with the same labels in
in-order and complementary canopies.  Its reading word is found only when asked
for (_spell, by _twin_witness).
"""
from __future__ import annotations

from collections import Counter
from operator import xor

from .tableaux import _Canonical, _inorder, _SearchTree, _set_word, _shape_key
from .words import _letters


def _sylv_key(seq) -> tuple:
    return _shape_key(seq, _inorder(seq))


def _sylv_sharp_key(seq) -> tuple:
    # the smallest position at the root is the largest of the reversed word
    rev = seq[::-1]
    return _shape_key(rev, sorted(range(len(rev) - 1, -1, -1), key=rev.__getitem__))


def _baxt_key(seq) -> tuple:
    """Keys of the left and the right strict tree, from one sort."""
    order = _inorder(seq)
    last = len(seq) - 1  # the reversed word's in-order, as _sylv_sharp_key sorts it
    return _shape_key(seq[::-1], [last - p for p in order]), _shape_key(seq, order)


def _twin_witness(sharp, plain) -> tuple:
    """A word that builds both trees of a twin pair.

    Letter k of the trees' common in-order must come after its left strict
    parent and before its right strict parent.  Equal letters, which the
    in-order ties by position, need no more: each tree chains them on one path
    in that order.  Any order meeting these constraints builds both trees, as
    a Cartesian tree is fixed by its in-order and its heap order, and twin
    trees leave no cycle among them (Giraudo 2012).
    """
    labels, sharp_up = sharp._in_order_parents()
    plain_up = plain._in_order_parents()[1]
    n = len(labels)
    after, need = [[] for _ in range(n)], [0] * n
    for k, a, b in zip(range(n), sharp_up, plain_up):
        if a is not None:
            after[a].append(k)
            need[k] += 1
        if b is not None:
            after[k].append(b)
            need[b] += 1
    ready = [k for k in range(n) if not need[k]]
    word = []
    while ready:
        k = ready.pop()
        word.append(labels[k])
        for j in after[k]:
            need[j] -= 1
            if not need[j]:
                ready.append(j)
    return tuple(word)


class RightStrictBST(_SearchTree):
    """Tree with left subtree <= node < right subtree."""

    __slots__ = ()
    _insert = staticmethod(lambda w: p_sylv(w))


class LeftStrictBST(_SearchTree):
    """Tree with left subtree < node <= right subtree."""

    __slots__ = ()
    _FORWARD = True
    _insert = staticmethod(lambda w: p_sylv_sharp(w))


def p_sylv(w) -> RightStrictBST:
    """Right strict tree of w, inserting from right to left."""
    seq = _letters(w)
    return RightStrictBST._make(_sylv_key(seq), seq)


def p_sylv_sharp(w) -> LeftStrictBST:
    """Left strict tree of w, inserting from left to right."""
    seq = _letters(w)
    return LeftStrictBST._make(_sylv_sharp_key(seq), seq)


class BaxterObject(_Canonical):
    """Pair of the left strict and right strict trees of one word.

    The key is the pair of the two tree keys, as _baxt_key builds it; sharp
    and plain rebuild the trees from it on each access.
    """

    __slots__ = ()
    _insert = staticmethod(lambda w: p_baxt(w))

    def __init__(self, sharp: LeftStrictBST, plain: RightStrictBST):
        """The pair, if both trees are valid (exact int labels and masks: True or
        1.0 is no 1) and twins, the pairs some word builds (Giraudo 2012): they list
        the same labels in in-order, and for each pair of in-order neighbours exactly
        one gives the left one a right child; ValueError otherwise.  A valid tree's
        in-order is _inorder's: the left strict tree ties equal labels in preorder,
        the right strict one in reverse preorder."""
        if not isinstance(sharp, LeftStrictBST) or not isinstance(plain, RightStrictBST):
            raise TypeError("BaxterObject needs a LeftStrictBST and a RightStrictBST")
        key = (sharp._key, plain._key)
        if sharp.is_valid() and plain.is_valid():
            labels, masks = key[0][0::2], key[0][1::2]
            rev_labels, rev_masks = key[1][-2::-2], key[1][-1::-2]  # plain in reverse preorder
            order, rev_order = _inorder(labels), _inorder(rev_labels)
            rights = list(map(xor, map(masks.__getitem__, order),
                              map(rev_masks.__getitem__, rev_order)))
            if (list(map(labels.__getitem__, order)) == list(map(rev_labels.__getitem__, rev_order))
                    and min(rights[:-1], default=2) >= 2):  # 2 or 3: one tree has a right child
                super().__init__(key)
                return
        raise ValueError("no letter word builds this pair of trees")

    def _spell(self) -> tuple:
        word = _twin_witness(self.sharp, self.plain)
        _set_word(self, word)  # kept: equality and hashing read the key alone
        return word

    @property
    def sharp(self) -> LeftStrictBST:
        return LeftStrictBST._make(self._key[0], self._word)

    @property
    def plain(self) -> RightStrictBST:
        return RightStrictBST._make(self._key[1], self._word)

    def as_counter(self) -> Counter:
        return self.plain.as_counter()

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
    def _from_json(cls, data: dict) -> "BaxterObject":
        """The constructor's pair of the trees the payload spells, taken as they
        are; if it refuses them, the tree loaders say which side is wrong."""
        sharp, plain = data["sharp"], data["plain"]
        try:
            return cls(LeftStrictBST._json_tree(sharp), RightStrictBST._json_tree(plain))
        except (KeyError, TypeError, ValueError):
            pass
        return cls(LeftStrictBST.from_json_dict(sharp), RightStrictBST.from_json_dict(plain))


def p_baxt(w) -> BaxterObject:
    """Both strict trees of w as one object."""
    seq = _letters(w)
    return BaxterObject._make(_baxt_key(seq), seq)
