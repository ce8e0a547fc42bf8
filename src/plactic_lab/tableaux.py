"""Stalactic tableaux and taiga trees, built by right-to-left insertion.

Both objects record, for each distinct letter of a word, how often it occurs;
they differ in how the distinct letters are arranged.  A stalactic tableau is
a row of columns (new letters enter on the left, so the top row ends up being
the fp skeleton of the word).  A taiga tree is a binary search tree over the
distinct letters, each node carrying a multiplicity.

Every canonical object of an insertion family, here and in bst, is a
_Canonical: the family's equivalence key plus the word that built it, with
one immutability, pickling, equality, hash, reading word, product and JSON
loader for all.  _SearchTree, the tree class behind TaigaTree and the two
strict trees of bst, keys a tree by its flat preorder, which all its methods
walk with an explicit stack, at any depth: counting, validity, JSON round
trip and ASCII/DOT pictures; a tree of more than 500 nodes, which could nest
too deep for the stdlib's json, goes to JSON as flat lists.  Insertion builds
that key in one stack pass over a Cartesian tree (_shape_key, a
sentinel-bottomed loop), on the in-order that _inorder sorts; a taiga tree is
the one on the tableau's columns, words._columns.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, repeat, zip_longest
from math import inf
from operator import itemgetter

from .words import _are_letters, _are_masks, _columns, _letters, _spelled


class _Canonical:
    """Immutable canonical object: an equivalence key and the word that built it.

    _key is the family's raw key in monoids._FAMILIES, so objects of one class
    are equal exactly when their words are equivalent.  _word is that letter
    tuple, or None for an object from outside, whose reading word the class
    spells (_spell; a Baxter pair keeps the word it finds on first use, as it
    takes a search).  The StalacticTableau and BaxterObject constructors check their
    input in full; a tree's constructor checks only its shape, and is_valid()
    and from_json_dict check its order and letters.  _make wraps a key known to
    be valid.  from_json_dict is the one loader: a class's _from_json turns a payload
    into an object or raises; from_json_dict reports a KeyError or TypeError, a missing
    or mistyped field, as not a valid payload.  _insert, the insertion, makes products.
    """

    __slots__ = ("_key", "_word")

    def __init__(self, key, word=None):
        _set_key(self, key)
        _set_word(self, word)

    @classmethod
    def _make(cls, key, word=None):
        obj = object.__new__(cls)
        _set_key(obj, key)
        _set_word(obj, word)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._make, (self._key, self._word)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key))

    def reading_word(self) -> tuple:
        """A word that builds this object."""
        return self._spell() if self._word is None else self._word

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._insert(self.reading_word() + other.reading_word())

    @classmethod
    def from_json_dict(cls, data):
        """The object of a to_json_dict payload; ValueError if either is invalid."""
        try:
            return cls._from_json(data)
        except (KeyError, TypeError):  # a missing field, or a field of the wrong type
            raise ValueError(f"not a valid {cls.__name__} payload") from None


_set_key, _set_word = _Canonical._key.__set__, _Canonical._word.__set__


class StalacticTableau(_Canonical):
    """Columns of equal letters; insertion prepends new letters on the left.

    The key is the columns, (letter, multiplicity) pairs from left to right.
    """

    __slots__ = ()
    _insert = staticmethod(lambda w: p_stal(w))

    def __init__(self, columns=()):
        cols = tuple((a, m) for a, m in columns)
        letters = [a for a, _ in cols]
        if not _are_letters(letters + [m for _, m in cols]):
            raise ValueError("column letters and multiplicities must be integers >= 1")
        if len(set(letters)) < len(letters):
            raise ValueError("duplicate column letter")
        super().__init__(cols)

    @property
    def columns(self) -> tuple:
        return self._key

    def insert(self, a: int) -> "StalacticTableau":
        """One insertion step: increment a's column, or prepend a new one."""
        return p_stal((a,) + self.reading_word())

    def letters(self) -> tuple:
        return tuple(a for a, _ in self.columns)

    def as_counter(self) -> Counter:
        return Counter({a: m for a, m in self.columns})

    def total(self) -> int:
        return sum(m for _, m in self.columns)

    def _spell(self) -> tuple:
        return _spelled(self.columns)

    def __repr__(self) -> str:
        return f"StalacticTableau({list(self.columns)!r})"

    def render(self) -> str:
        """ASCII picture, one text column per tableau column."""
        if not self.columns:
            return "(empty)"
        height = max(m for _, m in self.columns)
        rows = ([str(a) if row < m else " " * len(str(a)) for a, m in self.columns]
                for row in range(height))
        return "\n".join(" ".join(cells).rstrip() for cells in rows)

    def to_json_dict(self) -> dict:
        return {"columns": [{"letter": a, "mult": m} for a, m in self.columns]}

    @classmethod
    def _from_json(cls, data: dict) -> "StalacticTableau":
        return cls((c["letter"], c["mult"]) for c in data["columns"])


def p_stal(w) -> StalacticTableau:
    """Insert the letters of w from right to left into the empty tableau."""
    seq = _letters(w)
    return StalacticTableau._make(_columns(seq), seq)


def _inorder(labels) -> list:
    """Positions sorted by label, then position: the in-order of a search tree on them."""
    return sorted(range(len(labels)), key=labels.__getitem__)


def _shape_key(labels, inorder, rows=False) -> tuple:
    """Flat preorder key of the Cartesian tree on some positions of labels.

    inorder lists the positions in the tree's in-order; a position is also
    its heap priority, the largest at the root, as insertion into a search
    tree puts each node below those inserted before it.  Node p has label
    labels[p], or with rows the (multiplicity, label) row labels[p].  One
    stack pass from the right builds it (Vuillemin 1980): the stack holds the
    left spine, a new node pops the nodes it outranks as its right subtree,
    and nodes leave in reverse preorder.  An entry is 4 * position, + 2 if the
    node has a right child; the top is kept in a local, a node that outranks
    nothing is only pushed, and a sentinel at the bottom outranks them all.
    """
    out = []
    emit = out.append
    put = out.extend if rows else emit  # a reversed row enters the reversed key as is
    stack = []
    push, pop = stack.append, stack.pop
    top = len(labels) << 2
    for p in reversed(inorder):
        e = p << 2
        if top > e:
            push(top)
            top = e
            continue
        emit(top & 2)
        put(labels[top >> 2])
        top = pop()
        while top < e:
            emit(1 | top & 2)  # 1: it sat above the node popped before, its left child
            put(labels[top >> 2])
            top = pop()
        push(top)
        top = e | 2
    if stack:  # a nonempty tree: the sentinel is at the bottom, the spine leaves
        emit(top & 2)
        put(labels[top >> 2])
        for x in stack[:0:-1]:
            emit(1 | x & 2)
            put(labels[x >> 2])
    out.reverse()
    return tuple(out)


def _key_of_root(root, mult, fields=None) -> tuple:
    """Flat preorder key of nested nodes: tuples or lists (label, [mult,] left, right),
    empty = None, else TypeError, or JSON nodes that fields, an itemgetter, reads as such."""
    out = []
    stack = [] if root is None else [root]
    pop, push = stack.pop, stack.append
    seen = set()  # ids of the nodes read but constructor tuples: a list or a dict can hold itself
    while stack:
        node = pop()
        if fields is not None or type(node) is not tuple:  # a tuple may be shared, no cycle
            if id(node) in seen:
                raise ValueError("a node occurs twice: it is no tree")
            seen.add(id(node))
        if fields is not None:
            node = fields(node)  # always 3 + mult fields
        elif not isinstance(node, (tuple, list)):
            raise TypeError(f"tree nodes are tuples or lists, got {type(node).__name__}")
        elif len(node) != 3 + mult:
            raise ValueError(f"tree nodes need {3 + mult} fields, got {len(node)}")
        left, right = node[-2], node[-1]
        out += node[:-2]
        out.append((left is not None) | (right is not None) << 1)
        if right is not None:
            push(right)
        if left is not None:
            push(left)
    return tuple(out)


def _unflatten(key, width, make):
    """Nested nodes of a key, None if empty, built bottom up: make(row, left, right)
    gets a node's row of the key, (label, [mult,] mask), and its children's nodes."""
    built = []
    pop, push = built.pop, built.append
    for row in zip(*(key[j - width::-width] for j in range(width))):  # last node first
        mask = row[-1]
        push(make(row, pop() if mask & 1 else None, pop() if mask & 2 else None))
    return built[0] if built else None


# A tree of more than this many nodes goes to JSON as flat lists: the stdlib's json
# recurses once per level, and n nodes nest at most n levels, which leaves half its
# ~1,000 levels to any document that embeds the payload.
_NESTED_NODES = 500

# Outline prefixes by 2 * depth (+ 1 for a right child) for the indented levels;
# deeper lines write "(depth) " instead, lest a deep outline grow quadratically.
_OUTLINE_CAP = 64
_OUTLINE_PREFIXES = ["  " * (e >> 1) + (("L: ", "R: ")[e & 1] if e else "")
                     for e in range(2 * _OUTLINE_CAP)]
_DEEP_INDENT, _DEEP_TAGS = "  " * _OUTLINE_CAP, (") L: ", ") R: ")


class _SearchTree(_Canonical):
    """Immutable binary search tree stored as a flat preorder key.

    Per node the key holds the label, the multiplicity if the class has one
    (_MULT), and a child mask: 1 left, 2 right, 3 both.  Labels alone would
    not tell apart trees the constructor accepts, such as (2, (2, None, None),
    None) and (2, None, (2, None, None)).  root, rebuilt on each access, and
    the constructor use nested tuples (label, [mult,] left, right), empty =
    None; _JSON reads a nested JSON node as one, _JSON_NODE writes one.  A
    tree of more than _NESTED_NODES nodes goes to JSON as the key's columns
    instead, {"labels", ["mults",] "children"}.  _FORWARD says whether the
    expanded preorder rebuilds the tree as is or reversed.
    """

    __slots__ = ()
    _MULT = False
    _JSON = itemgetter("label", "left", "right")
    _JSON_NODE = staticmethod(lambda r, a, b: {"label": r[0], "left": a, "right": b})
    _FORWARD = False

    def __init__(self, root=None):
        super().__init__(_key_of_root(root, self._MULT))

    @property
    def root(self):
        """The tree as nested tuples, rebuilt from the key on each access."""
        return _unflatten(self._key, 2 + self._MULT, lambda row, *kids: row[:-1] + kids)

    def root_label(self):
        return self._key[0] if self._key else None

    def as_counter(self) -> Counter:
        key, counts = self._key, Counter()  # summed off the key: a multiplicity may be huge
        for a, m in zip(key[0::3], key[1::3]) if self._MULT else zip(key[0::2], repeat(1)):
            counts[a] += m
        return counts

    def _spell(self) -> tuple:
        key = self._key  # labels in preorder, each repeated by its multiplicity
        labels = _spelled(zip(key[0::3], key[1::3])) if self._MULT else key[0::2]
        return labels if self._FORWARD else labels[::-1]

    def in_order(self) -> tuple:
        """Labels in in-order."""
        return self._in_order_parents()[0]

    def _in_order_parents(self) -> tuple:
        """Labels in in-order, and each node's parent as an in-order index (the
        root's is None).  A node waits on the stack while its left subtree is
        read.  In preorder a node's left child comes next; without one, the next
        node is the right child of the last node read.  On a key that is no tree
        the result is no tree either, but it comes back without an error."""
        key, width = self._key, 2 + self._MULT
        masks = key[width - 1::width]
        order, parent, waiting = [], [-1], []  # order: preorder indices in in-order
        for i, mask in enumerate(masks):
            if mask & 1:
                waiting.append(i)
                parent.append(i)
                continue
            order.append(i)
            while not mask & 2 and waiting:
                i = waiting.pop()
                order.append(i)
                mask = masks[i]
            parent.append(i)  # the last node read; unused after the last node
        rank = [None] * (len(masks) + 1)  # the inverse of order; rank[-1], the root's parent
        for k, i in enumerate(order):
            rank[i] = k
        return tuple(map(key[0::width].__getitem__, order)), [rank[parent[i]] for i in order]

    def is_valid(self) -> bool:
        """Whether the key is a tree: letters as labels and multiplicities,
        exact ints in 0..3 as child masks, a node for every child a mask names
        and none left over, and search-tree order, an equal label on the side
        insertion reads towards (a taiga tree has none).  One pass: the stack
        holds the inclusive (lo, hi) label bounds of the subtrees still to come,
        the next on top, so a node left over finds it empty and a missing child
        leaves it nonempty."""
        key, width = self._key, 2 + self._MULT
        masks = key[width - 1::width]
        if not (_are_letters(key[0::3] + key[1::3] if self._MULT else key[0::2])
                and _are_masks(masks)):
            return False
        above, below = not self._FORWARD, self._FORWARD or self._MULT  # 1 where strict
        stack = [(-inf, inf)] if key else []
        try:
            for label, mask in zip(key[0::width], masks):
                lo, hi = stack.pop()
                if not lo <= label <= hi:
                    return False
                if mask & 2:
                    stack.append((label + above, hi))
                if mask & 1:
                    stack.append((lo, label - below))
        except IndexError:  # a node that no mask names as a child
            return False
        return not stack

    def _nodes(self, plain, taiga):
        """(plain(label) or taiga(label, mult), child mask) per node, in preorder."""
        key = self._key
        texts = map(taiga, key[0::3], key[1::3]) if self._MULT else map(plain, key[0::2])
        return zip(texts, key[1 + self._MULT::2 + self._MULT])

    def __repr__(self) -> str:
        """The constructor call on root, spelled from the key in preorder."""
        parts = [f"{type(self).__name__}("]
        stack = [0] if self._key else ["None"]  # a str is output text, 0 the next node
        pop = stack.pop
        for head, mask in self._nodes("({!r}, ".format, "({!r}, {!r}, ".format):
            while (item := pop()).__class__ is str:
                parts.append(item)
            parts.append(head)
            stack += ")", 0 if mask & 2 else "None", ", ", 0 if mask & 1 else "None"
        return "".join(parts) + "".join(reversed(stack)) + ")"

    def to_json_dict(self):
        """Nested {"label", ["mult",] "left", "right"} dicts, None if empty; a
        tree of more than _NESTED_NODES nodes, flat {"labels", ["mults",]
        "children"} lists, the key's columns."""
        key, width = self._key, 2 + self._MULT
        if len(key) <= _NESTED_NODES * width:
            return _unflatten(key, width, self._JSON_NODE)
        flat = {"labels": list(key[0::width]), "children": list(key[width - 1::width])}
        if self._MULT:
            flat["mults"] = list(key[1::3])
        return flat

    @classmethod
    def _from_json(cls, data):
        """The tree a payload of either form spells, if is_valid: lists of
        unequal lengths are padded with None, which it refuses."""
        if data is None or "labels" not in data:
            tree = cls._make(_key_of_root(data, cls._MULT, cls._JSON))
        else:
            columns = (data["labels"], data["mults"]) if cls._MULT else (data["labels"],)
            tree = cls._make(tuple(chain.from_iterable(zip_longest(*columns, data["children"]))))
        if not tree.is_valid():
            raise ValueError(f"not a valid {cls.__name__} payload")
        return tree

    def to_dot(self) -> str:
        """DOT digraph; each edge line follows its child's node line, tagged L/R so the
        shape is unambiguous.  The stack holds the next node's parent, doubled, + 1 if right."""
        lines = ["digraph tree {", "  node [shape=box];"] + (
            [] if self._key else ['  empty [label="(empty)" shape=plaintext];'])
        stack = [-1]  # -1: the root has no parent
        pop, push = stack.pop, stack.append
        for my, (text, mask) in enumerate(self._nodes(str, "{}^{}".format)):
            lines.append(f'  n{my} [label="{text}"];')
            if (e := pop()) >= 0:
                lines.append(f'  n{e >> 1} -> n{my} [label="{"LR"[e & 1]}"];')
            if mask & 2:
                push(2 * my + 1)
            if mask & 1:
                push(2 * my)
        return "\n".join(lines) + "\n}\n"

    def render(self) -> str:
        """Indented outline, one node per line, children tagged L:/R:; a line
        below _OUTLINE_CAP levels is indented no further but gives its depth."""
        lines = []
        stack = [0]  # 2 * the depth of the next node, + 1 if a right child
        pop, push = stack.pop, stack.append
        for text, mask in self._nodes(str, "{}^{}".format):
            e = pop()
            lines.append(_OUTLINE_PREFIXES[e] + text if e < 2 * _OUTLINE_CAP
                         else f"{_DEEP_INDENT}({e >> 1}{_DEEP_TAGS[e & 1]}{text}")
            e = (e | 1) + 1  # 2 * the children's depth
            if mask & 2:
                push(e | 1)
            if mask & 1:
                push(e)
        return "\n".join(lines) if self._key else "(empty)"


class TaigaTree(_SearchTree):
    """Binary search tree over distinct letters with multiplicities."""

    __slots__ = ()
    _MULT = True
    _JSON = itemgetter("label", "mult", "left", "right")
    _JSON_NODE = staticmethod(lambda r, a, b: {"label": r[0], "mult": r[1], "left": a, "right": b})
    _insert = staticmethod(lambda w: p_taig(w))

    def total(self) -> int:
        return sum(self._key[1::3])


def _taiga_key(seq) -> tuple:
    """Key of the taiga tree of seq: the Cartesian tree of its stalactic
    columns, in-order by letter, the latest last occurrence at the root."""
    columns = _columns(seq)
    inorder = _inorder([a for a, _ in columns])  # letters by last occurrence: the priorities
    return _shape_key([(m, a) for a, m in columns], inorder, True)


def p_taig(w) -> TaigaTree:
    """Insert the letters of w from right to left into the empty taiga tree."""
    seq = _letters(w)
    return TaigaTree._make(_taiga_key(seq), seq)
