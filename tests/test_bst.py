import itertools
import json
import operator
import time

import pytest

from hypothesis import example, given, strategies as st

from plactic_lab import (
    BaxterObject,
    LeftStrictBST,
    MonoidFamily,
    RightStrictBST,
    StalacticTableau,
    TaigaTree,
    Word,
    equivalent,
    ev,
    p_baxt,
    p_sylv,
    p_sylv_sharp,
    p_taig,
)

EXAMPLE = Word.letters("3613151265")

letter_seqs = st.lists(st.integers(1, 9), max_size=24)
nonempty_seqs = st.lists(st.integers(1, 9), min_size=1, max_size=24)


def naive_right_strict(seq):
    """Right-strict BST as nested tuples, inserted right to left."""

    def insert(node, a):
        if node is None:
            return (a, None, None)
        label, left, right = node
        if a > label:
            return (label, left, insert(right, a))
        return (label, insert(left, a), right)

    root = None
    for a in reversed(seq):
        root = insert(root, a)
    return root


def naive_left_strict(seq):
    def insert(node, a):
        if node is None:
            return (a, None, None)
        label, left, right = node
        if a < label:
            return (label, insert(left, a), right)
        return (label, left, insert(right, a))

    root = None
    for a in seq:
        root = insert(root, a)
    return root


def naive_taiga(seq):
    """Taiga tree as nested tuples (label, mult, left, right), inserted right to left."""

    def insert(node, a):
        if node is None:
            return (a, 1, None, None)
        label, mult, left, right = node
        if a == label:
            return (label, mult + 1, left, right)
        if a < label:
            return (label, mult, insert(left, a), right)
        return (label, mult, left, insert(right, a))

    root = None
    for a in reversed(seq):
        root = insert(root, a)
    return root


def mirror_complement(node, top):
    """Reflect the tree and complement labels, the order anti-automorphism."""
    if node is None:
        return None
    label, left, right = node
    return (top - label, mirror_complement(right, top), mirror_complement(left, top))


def test_small_right_strict_trees():
    assert p_sylv("212").root == (2, (1, None, (2, None, None)), None)
    assert p_sylv("122").root == (2, (2, (1, None, None), None), None)
    assert p_sylv("212") != p_sylv("122")


def test_example_right_strict_tree():
    t = p_sylv(EXAMPLE)
    assert t.root_label() == 5
    assert t.in_order() == (1, 1, 1, 2, 3, 3, 5, 5, 6, 6)
    assert t.root == (
        5,
        (2, (1, (1, (1, None, None), None), None), (5, (3, (3, None, None), None), None)),
        (6, (6, None, None), None),
    )


def test_example_left_strict_tree():
    t = p_sylv_sharp(EXAMPLE)
    assert t.root_label() == 3
    assert t.root == (
        3,
        (1, None, (1, None, (1, None, (2, None, None)))),
        (6, (3, None, (5, None, (5, None, None))), (6, None, None)),
    )


@given(letter_seqs)
def test_right_strict_matches_naive(seq):
    assert p_sylv(seq).root == naive_right_strict(seq)


@given(letter_seqs)
def test_left_strict_matches_naive(seq):
    assert p_sylv_sharp(seq).root == naive_left_strict(seq)


# chains and combs far longer than the strategy draws, yet short enough for
# the recursive references to stay inside the recursion limit
@given(st.lists(st.integers(1, 4), max_size=40))
@example(tuple(range(1, 401)))
@example(tuple(range(400, 0, -1)))
@example(tuple(i // 2 + 1 if i % 2 == 0 else 400 - i // 2 for i in range(400)))
@example(tuple(1 + (i * 7919 % 13 < 6) for i in range(400)))
@example((5,) * 400)
def test_stack_built_roots_match_naive_insertion(seq):
    # the objects keep only a flat key; .root rebuilds the nested tuples
    assert p_sylv(seq).root == naive_right_strict(seq)
    assert p_sylv_sharp(seq).root == naive_left_strict(seq)
    assert p_taig(seq).root == naive_taiga(seq)
    baxt = p_baxt(seq)
    assert baxt.sharp.root == naive_left_strict(seq)
    assert baxt.plain.root == naive_right_strict(seq)
    for tree in (p_sylv(seq), p_sylv_sharp(seq), p_taig(seq)):
        assert type(tree)(tree.root) == tree


def test_child_masks_tell_invalid_trees_apart():
    # same preorder labels as the inserted tree; only the child sides differ
    bad = RightStrictBST((2, None, (2, None, None)))
    assert bad != p_sylv((2, 2)) and bad.reading_word() == (2, 2)
    bad = TaigaTree((5, 1, (7, 1, None, None), None))
    assert bad != p_taig((7, 5)) and bad.as_counter() == p_taig((7, 5)).as_counter()
    with pytest.raises(ValueError):
        RightStrictBST((2, 1, None, None))


def test_a_node_that_holds_itself_is_refused_at_once():
    # a list, unlike a tuple, can be its own descendant; the walk must stop, not grow
    loop = [1, None, None]
    loop[2] = loop
    first, second = [2, None, None], [1, None, None]
    first[1], second[2] = second, first
    tagged = [1, 1, None, None]
    tagged[3] = tagged
    for cls, root in ((RightStrictBST, loop), (LeftStrictBST, first), (TaigaTree, tagged)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="occurs twice"):
            cls(root)
        assert time.perf_counter() - start < 1
    # one tuple object in two places is no cycle: equal subtrees still build
    leaf = (1, None, None)
    assert RightStrictBST((1, leaf, leaf)).root == (1, (1, None, None), (1, None, None))


@given(letter_seqs)
def test_mirror_complement_duality(seq):
    # reflecting a search tree reverses the label order, so the two
    # insertion schemes correspond under reversal plus complementation
    top = max(seq, default=0) + 1
    comp_rev = tuple(top - a for a in reversed(seq))
    assert p_sylv_sharp(seq).root == mirror_complement(p_sylv(comp_rev).root, top)


@given(letter_seqs, letter_seqs)
@example([2, 1, 1, 1, 2], [2, 2, 1, 1, 1])
def test_reversal_duality_of_equivalences(u, v):
    # reversal alone swaps which side of the relation is strict, so the
    # duality also needs complementation (as in the tree duality above):
    # 21112 and 22111 are sylv#-equivalent, 21112 and 11122 are not sylv-equivalent
    top = max(u + v, default=0) + 1
    ru = tuple(top - a for a in reversed(u))
    rv = tuple(top - a for a in reversed(v))
    assert equivalent(MonoidFamily.SYLV_SHARP, u, v) == equivalent(
        MonoidFamily.SYLV, ru, rv
    )


@given(letter_seqs)
def test_in_order_weakly_increasing(seq):
    for tree in (p_sylv(seq), p_sylv_sharp(seq)):
        inorder = tree.in_order()
        assert all(a <= b for a, b in zip(inorder, inorder[1:]))
        assert tree.is_valid()
        assert tree.as_counter() == ev(seq)


@given(nonempty_seqs)
def test_roots_are_boundary_letters(seq):
    assert p_sylv(seq).root_label() == seq[-1]
    assert p_sylv_sharp(seq).root_label() == seq[0]


@given(letter_seqs, letter_seqs)
def test_products_are_concatenation(u, v):
    uv = tuple(u) + tuple(v)
    assert p_sylv(u) * p_sylv(v) == p_sylv(uv)
    assert p_sylv_sharp(u) * p_sylv_sharp(v) == p_sylv_sharp(uv)
    assert p_baxt(u) * p_baxt(v) == p_baxt(uv)


@given(letter_seqs)
def test_reading_words_rebuild(seq):
    sylv = p_sylv(seq)
    assert p_sylv(RightStrictBST(sylv.root).reading_word()) == sylv
    sharp = p_sylv_sharp(seq)
    assert p_sylv_sharp(LeftStrictBST(sharp.root).reading_word()) == sharp


def test_validity_rejects_wrong_strictness():
    # right-strict: duplicates may not sit in a right subtree
    assert not RightStrictBST((2, None, (2, None, None))).is_valid()
    assert RightStrictBST((2, (2, None, None), None)).is_valid()
    # left-strict: duplicates may not sit in a left subtree
    assert not LeftStrictBST((2, (2, None, None), None)).is_valid()
    assert LeftStrictBST((2, None, (2, None, None))).is_valid()


def test_tree_equality_is_type_exact():
    a = RightStrictBST((1, None, None))
    b = LeftStrictBST((1, None, None))
    assert a != b
    assert hash(a) != hash(b)
    # only objects of one class multiply
    for other in (b, 3):
        with pytest.raises(TypeError):
            p_sylv("12") * other


def test_json_roundtrip():
    t = p_sylv(EXAMPLE)
    data = json.loads(json.dumps(t.to_json_dict()))
    assert RightStrictBST.from_json_dict(data) == t
    s = p_sylv_sharp(EXAMPLE)
    assert LeftStrictBST.from_json_dict(json.loads(json.dumps(s.to_json_dict()))) == s


def test_dot_output():
    dot = p_sylv("212").to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert '[label="L"]' in dot and '[label="R"]' in dot


def test_outline_indents_64_levels_then_gives_the_depth():
    lines = p_sylv(tuple(range(1, 71))).render().split("\n")  # a left path, 70 down to 1
    assert len(lines) == 70
    assert lines[63] == "  " * 63 + "L: 7"
    assert lines[64] == "  " * 64 + "(64) L: 6"


def test_baxter_object():
    b = p_baxt(EXAMPLE)
    assert b.sharp == p_sylv_sharp(EXAMPLE)
    assert b.plain == p_sylv(EXAMPLE)
    assert b.as_counter() == ev(EXAMPLE)
    assert b.reading_word() == EXAMPLE.symbols


def test_baxter_equality_ignores_memo():
    assert p_baxt("2112") == p_baxt("2112")
    u, v = "1212", "1221"
    if p_sylv_sharp(u) == p_sylv_sharp(v) and p_sylv(u) == p_sylv(v):
        assert p_baxt(u) == p_baxt(v)


def test_baxter_component_mismatch_rejected():
    with pytest.raises(ValueError):
        BaxterObject(p_sylv_sharp("12"), p_sylv("11"))
    with pytest.raises(ValueError):  # both trees are 1 -R-> 2, but no word builds the pair
        BaxterObject(p_sylv_sharp("12"), p_sylv("21"))
    with pytest.raises(ValueError):  # only a word of non-letters builds the pair
        BaxterObject(LeftStrictBST((0.5, None, None)), RightStrictBST((0.5, None, None)))
    with pytest.raises(ValueError):  # trees of different sizes
        BaxterObject(p_sylv_sharp("12"), p_sylv("1"))
    # labels that do not compare: the pair is refused before any is ordered
    with pytest.raises(ValueError, match="^no letter word builds this pair of trees$"):
        BaxterObject(LeftStrictBST((1, None, ("a", None, None))),
                     RightStrictBST((1, None, ("a", None, None))))
    for sharp, plain in ((p_sylv("12"), p_sylv("12")), (p_sylv_sharp("12"), "12")):
        with pytest.raises(TypeError):  # each argument must be a tree of its side
            BaxterObject(sharp, plain)


def test_baxter_pairs_load_exactly_when_a_word_builds_them():
    words = [w for n in range(6) for w in itertools.product((1, 2, 3), repeat=n)]
    built = {(b.sharp, b.plain): b for b in map(p_baxt, words)}
    plains = {}
    for t in set(map(p_sylv, words)):
        plains.setdefault(t.in_order(), []).append(t)
    pairs = [(s, t) for s in set(map(p_sylv_sharp, words)) for t in plains[s.in_order()]]
    assert len(pairs) > len(built)  # some pairs with equal labels come from no word
    for sharp, plain in pairs:
        try:
            b = BaxterObject(sharp, plain)
        except ValueError:
            b = None
        assert b == built.get((sharp, plain))
        if b is not None:
            assert p_baxt(b.reading_word()) == b


def test_baxter_json_roundtrip_and_reading_word():
    b = p_baxt(EXAMPLE)
    data = json.loads(json.dumps(b.to_json_dict()))
    restored = BaxterObject.from_json_dict(data)
    assert restored == b
    assert p_baxt(restored.reading_word()) == b


_SHARP, _PLAIN = p_sylv_sharp("12").to_json_dict(), p_sylv("12").to_json_dict()
_ONE = {"label": 1, "left": None, "right": None}
_NO_SHARP, _NO_PLAIN = "not a valid LeftStrictBST payload", "not a valid RightStrictBST payload"
_BAD_BAXTER_PAYLOADS = [  # (payload, the message that refuses it)
    ({"sharp": {**_SHARP, "label": 3}, "plain": _PLAIN}, _NO_SHARP),  # 2 right of 3
    ({"sharp": _SHARP, "plain": {**_PLAIN, "left": {**_PLAIN["left"], "label": 3}}},
     _NO_PLAIN),  # 3 left of 2
    ({"sharp": 5, "plain": 5}, _NO_SHARP),
    ({"sharp": [1, None, None], "plain": [1, None, None]}, _NO_SHARP),
    ({"sharp": {"label": 1, "left": None}, "plain": _PLAIN}, _NO_SHARP),  # no "right" field
    # labels equal to a letter that are no letters
    ({"sharp": _ONE, "plain": {**_ONE, "label": True}}, _NO_PLAIN),
    ({"sharp": _ONE, "plain": {**_ONE, "label": 1.0}}, _NO_PLAIN),
    ({"sharp": {**_SHARP, "right": {**_SHARP["right"], "label": 2.0}},
      "plain": {**_PLAIN, "label": 2.0}}, _NO_SHARP),
    # two valid trees that no word builds together
    ({"sharp": _SHARP, "plain": p_sylv("21").to_json_dict()},
     "no letter word builds this pair of trees"),
]


@given(letter_seqs, letter_seqs)
def test_baxter_json_loaded_objects_multiply(u, v):
    a, b = p_baxt(u), p_baxt(v)
    a2, b2 = (BaxterObject.from_json_dict(json.loads(json.dumps(x.to_json_dict())))
              for x in (a, b))
    assert (a2, b2) == (a, b)
    assert a2 * b2 == a * b


def _labels(node):
    return [] if node is None else [node[0]] + _labels(node[-2]) + _labels(node[-1])


def naive_is_valid(node, left_rel, right_rel):
    """Each label relates to every label of its subtrees; multiplicities >= 1."""
    if node is None:
        return True
    label, left, right = node[0], node[-2], node[-1]
    return ((len(node) == 3 or node[1] >= 1)
            and all(left_rel(a, label) for a in _labels(left))
            and all(right_rel(a, label) for a in _labels(right))
            and naive_is_valid(left, left_rel, right_rel)
            and naive_is_valid(right, left_rel, right_rel))


def random_trees(mult):
    def node(children):
        if mult:
            return st.tuples(st.integers(1, 4), st.integers(-1, 2), children, children)
        return st.tuples(st.integers(1, 4), children, children)
    return st.recursive(st.none(), node, max_leaves=10)


@given(random_trees(False), random_trees(True))
def test_is_valid_matches_naive_check(plain, taiga):
    # the search-tree order read off the flat key, on trees that may break it
    assert RightStrictBST(plain).is_valid() == naive_is_valid(plain, operator.le, operator.gt)
    assert LeftStrictBST(plain).is_valid() == naive_is_valid(plain, operator.lt, operator.ge)
    assert TaigaTree(taiga).is_valid() == naive_is_valid(taiga, operator.lt, operator.gt)


def test_from_json_rejects_invalid_trees():
    with pytest.raises(ValueError):  # an equal label right of a right strict node
        RightStrictBST.from_json_dict({"label": 2, "left": None, "right": {
            "label": 2, "left": None, "right": None}})
    with pytest.raises(ValueError):
        TaigaTree.from_json_dict({"label": 5, "mult": -3, "left": None, "right": None})
    with pytest.raises(ValueError):  # a label that is no number
        LeftStrictBST.from_json_dict({"label": "x", "left": None, "right": None})
    with pytest.raises(ValueError):  # no "right" field
        RightStrictBST.from_json_dict({"label": 1, "left": None})
    data = p_baxt("3121").to_json_dict()
    # the same labels, but a 3 left of the left strict root 1
    data["sharp"]["label"], data["sharp"]["left"]["label"] = 1, 3
    with pytest.raises(ValueError):
        BaxterObject.from_json_dict(data)
    with pytest.raises(ValueError):  # no "plain" field
        BaxterObject.from_json_dict({"sharp": None})
    for data, message in _BAD_BAXTER_PAYLOADS:
        with pytest.raises(ValueError, match=message):
            BaxterObject.from_json_dict(data)
    with pytest.raises(ValueError):  # no "mult" field
        StalacticTableau.from_json_dict({"columns": [{"letter": 1}]})
    # labels and multiplicities are letters: exact ints >= 1
    for label in (0, -4, 1.5, True):
        for cls in (RightStrictBST, LeftStrictBST):
            with pytest.raises(ValueError):
                cls.from_json_dict({"label": label, "left": None, "right": None})
        with pytest.raises(ValueError):
            TaigaTree.from_json_dict({"label": label, "mult": 1, "left": None, "right": None})
    for mult in (1.5, True):
        with pytest.raises(ValueError):
            TaigaTree.from_json_dict({"label": 2, "mult": mult, "left": None, "right": None})
    with pytest.raises(ValueError):  # a pair that some word of non-letters would build
        BaxterObject.from_json_dict({"sharp": {"label": 0.5, "left": None, "right": None},
                                     "plain": {"label": 0.5, "left": None, "right": None}})
    for columns in ([{"letter": 2.7, "mult": 1}], [{"letter": 2, "mult": True}],
                    [{"letter": 0, "mult": 1}]):
        with pytest.raises(ValueError):
            StalacticTableau.from_json_dict({"columns": columns})
    # a payload built in process may hold a cycle; loading it stops at once
    for cls, node in ((RightStrictBST, {"label": 1, "left": None, "right": None}),
                      (TaigaTree, {"label": 1, "mult": 1, "left": None, "right": None})):
        node["left"] = node
        with pytest.raises(ValueError):
            cls.from_json_dict(node)
        with pytest.raises(ValueError):
            cls.from_json_dict({**node, "left": None, "right": node})
