import functools
import itertools
import json
import operator
import pickle
import random
import re
import time
from collections import Counter

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
from plactic_lab import tableaux
from reference import canopy, twin_word

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
    # a node that is no tuple or list is refused by type, not read as a sequence
    for cls in (RightStrictBST, LeftStrictBST, TaigaTree):
        for node, name in (({"label": 1, "left": None, "right": None}, "dict"), ("abc", "str"),
                           (3, "int")):
            with pytest.raises(TypeError, match=f"tree nodes are tuples or lists, got {name}$"):
                cls(node)
            with pytest.raises(TypeError, match=name):
                cls((1, 1, node, None) if cls is TaigaTree else (1, node, None))
    assert RightStrictBST([2, [1, None, None], None]) == p_sylv((1, 2))


def test_counters_are_read_off_the_key_not_spelled():
    rng = random.Random(35)
    for _ in range(50):
        seq = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 30)))
        for tree in (p_sylv(seq), p_sylv_sharp(seq), p_taig(seq)):
            for t in (tree, type(tree)(tree.root)):  # the second spells its reading word
                assert t.as_counter() == Counter(t.reading_word()) == ev(seq)
    # a multiplicity of 10**12 from 64 bytes of JSON: spelling it would exhaust memory
    huge = TaigaTree.from_json_dict({"label": 2, "mult": 10**12, "left": None, "right": None})
    start = time.perf_counter()
    assert huge.as_counter() == Counter({2: 10**12}) and huge.total() == 10**12
    assert time.perf_counter() - start < 0.1


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


def _depth(node):
    """Levels of a shallow nested-tuple tree."""
    return 0 if node is None else 1 + max(_depth(node[-2]), _depth(node[-1]))


def test_json_is_flat_lists_past_500_nodes():
    # the stdlib's json recurses once per level, and n nodes nest at most n levels:
    # a tree of more than 500 nodes goes as the key's columns, whatever its depth
    def shape(tree):
        mult = isinstance(tree, TaigaTree)
        flat = {"labels", "mults", "children"} if mult else {"labels", "children"}
        nested = {"label", "mult", "left", "right"} if mult else {"label", "left", "right"}
        return flat if len(tree.in_order()) > 500 else nested

    def check(obj, trees):
        data = json.loads(json.dumps(obj.to_json_dict()))
        for tree, side in zip(trees, (data["sharp"], data["plain"]) if len(trees) == 2 else (data,)):
            assert set(side) == shape(tree)
        assert type(obj).from_json_dict(data) == obj

    rng = random.Random(500)
    for n in (500, 501):
        path = tuple(range(1, n + 1))  # a path of n levels in each tree family
        for tree in (p_sylv(path), p_sylv_sharp(path), p_taig(path)):
            check(tree, (tree,))
        shuffled = rng.sample(range(1, n + 1), n)  # n nodes but few levels
        for tree in (p_sylv(shuffled), p_sylv_sharp(shuffled), p_taig(shuffled)):
            assert _depth(tree.root) < 100
            check(tree, (tree,))
        b = p_baxt(shuffled)
        check(b, (b.sharp, b.plain))
    wide = p_sylv([(37 * i) % 1009 + 1 for i in range(1008)])  # 1,008 nodes, few levels
    assert _depth(wide.root) < 100
    check(wide, (wide,))


def test_nested_payloads_of_more_than_500_nodes_still_load():
    # older payloads nested every tree at most 500 levels deep, whatever its size
    def nested(tree):
        return tableaux._unflatten(tree._key, 2 + tree._MULT, type(tree)._JSON_NODE)

    word = [(37 * i) % 1009 + 1 for i in range(1008)]
    for tree in (p_sylv(word), p_sylv_sharp(word), p_taig(word)):
        data = json.loads(json.dumps(nested(tree)))
        assert type(tree).from_json_dict(data) == tree
    b = p_baxt(word)
    sharp, plain = nested(b.sharp), nested(b.plain)
    for payload in ({"sharp": sharp, "plain": plain},
                    {"sharp": sharp, "plain": b.plain.to_json_dict()},
                    {"sharp": b.sharp.to_json_dict(), "plain": plain}):
        assert BaxterObject.from_json_dict(json.loads(json.dumps(payload))) == b


def test_dot_output():
    dot = p_sylv("212").to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert '[label="L"]' in dot and '[label="R"]' in dot


def _preorder_edges(root):
    """(parent, child, "L" or "R") per edge, nodes numbered in preorder, and the node count."""
    edges, stack, count = [], [(root, None, "")], 0
    while stack:
        node, parent, side = stack.pop()
        if node is None:
            continue
        if parent is not None:
            edges.append((parent, count, side))
        stack += (node[-1], count, "R"), (node[-2], count, "L")
        count += 1
    return edges, count


def test_each_dot_edge_follows_its_childs_node_line():
    # n - 1 edges, each written right after its child's node line, tagged as root says
    rng = random.Random(3)
    words = [EXAMPLE, (2, 1, 2), tuple(range(1, 9)), tuple(range(8, 0, -1))]
    words += [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 16))) for _ in range(40)]
    for w in words:
        b = p_baxt(w)
        assert b.to_dot() == b.sharp.to_dot() + "\n" + b.plain.to_dot()
        for tree in (p_sylv(w), p_sylv_sharp(w), p_taig(w), b.sharp, b.plain):
            lines = tree.to_dot().split("\n")
            expected, nodes = _preorder_edges(tree.root)
            edges = []
            for before, line in zip(lines, lines[1:]):
                if " -> " in line:
                    parent, child, side = re.fullmatch(r'  n(\d+) -> n(\d+) \[label="(L|R)"\];',
                                                       line).groups()
                    assert before.startswith(f"  n{child} [label="), (w, line)
                    edges.append((int(parent), int(child), side))
            assert sorted(edges) == sorted(expected) and len(edges) == nodes - 1, w


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
    # True == 1 == 1.0, so only an exact-int check tells these pairs from p_baxt([1]),
    # as the loader tells their payloads (see _BAD_BAXTER_PAYLOADS)
    for label in (True, 1.0):
        for sharp, plain in ((p_sylv_sharp([1]), RightStrictBST((label, None, None))),
                             (LeftStrictBST((label, None, None)), p_sylv([1]))):
            with pytest.raises(ValueError, match="^no letter word builds this pair of trees$"):
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
        # the JSON loader takes the same pairs, in either form
        nested = {"sharp": sharp.to_json_dict(), "plain": plain.to_json_dict()}
        for payload in (nested, {side: _flat(tree) for side, tree in nested.items()}):
            try:
                loaded = BaxterObject.from_json_dict(payload)
            except ValueError:
                loaded = None
            assert loaded == b
            if loaded is not None:
                assert p_baxt(loaded.reading_word()) == b


def _census_pairs():
    """Every left and right strict tree of one content, paired, over [2]^7, [3]^6 and [4]^5."""
    trees = {}
    for rank, length in ((2, 7), (3, 6), (4, 5)):
        for w in itertools.product(range(1, rank + 1), repeat=length):
            sharps, plains = trees.setdefault(tuple(sorted(w)), (set(), set()))
            sharps.add(p_sylv_sharp(w))
            plains.add(p_sylv(w))
    return [pair for sharps, plains in trees.values() for pair in itertools.product(sharps, plains)]


def test_baxter_pairs_are_exactly_the_twin_trees():
    # the constructor accepts a pair exactly when the trees list the same labels and
    # have complementary canopies
    pairs = accepted = 0
    for sharp, plain in _census_pairs():
        (labels, left), (plain_labels, right) = canopy(sharp), canopy(plain)
        twins = labels == plain_labels and all(a != b for a, b in zip(left, right))
        try:
            BaxterObject(sharp, plain)
        except ValueError:
            ok = False
        else:
            ok = True
        assert ok == twins, (sharp, plain)
        pairs, accepted = pairs + 1, accepted + ok
    assert (pairs, accepted) == (5364, 1308)  # 1,308: the baxt classes of these words


def _nudged(tree, a, b, rng):
    """tree with label b on one node labelled a, drawn by rng: it may be no valid tree."""
    key = list(tree._key)
    key[rng.choice([i for i in range(0, len(key), 2) if key[i] == a])] = b
    return type(tree)._make(tuple(key))


@functools.cache
def _census_and_random_pairs() -> tuple:
    """The census pairs, then 20,000 seeded ones: a word of 0-12 letters over 1-6 letters
    builds the left strict tree, and the word itself or a shuffle of it the right strict
    one; in a fifth of them, one node labelled a in each tree gets a - 1 or a + 1, the
    same in both, so the trees keep one content but may be no valid trees."""
    pairs = _census_pairs()
    rng = random.Random(38)
    for _ in range(20_000):
        rank, n = rng.randint(1, 6), rng.randint(0, 12)
        w = [rng.randint(1, rank) for _ in range(n)]
        sharp, plain = p_sylv_sharp(w), p_sylv(w if rng.random() < 0.5 else rng.sample(w, n))
        if w and rng.random() < 0.2:
            a = rng.choice(w)
            b = a + rng.choice((-1, 1)) if a > 1 else 2
            sharp, plain = _nudged(sharp, a, b, rng), _nudged(plain, a, b, rng)
        pairs.append((sharp, plain))
    return tuple(pairs)


def test_baxter_pairs_are_exactly_those_a_twin_word_rebuilds():
    # twin_word searches for a word off the roots alone; on census and random pairs,
    # valid trees or not, the constructor must accept exactly the pairs that word rebuilds
    accepted = 0
    for sharp, plain in _census_and_random_pairs():
        w = twin_word(sharp, plain)
        rebuilt = w is not None and p_baxt(w)._key == (sharp._key, plain._key)
        try:
            BaxterObject(sharp, plain)
        except ValueError:
            ok = False
        else:
            ok = True
        assert ok == rebuilt, (sharp, plain)
        accepted += ok
    assert accepted == 1308 + 14568  # the census, then the random pairs


def test_every_accepted_baxter_pair_spells_a_word_that_rebuilds_it():
    for sharp, plain in _census_and_random_pairs():
        try:
            b = BaxterObject(sharp, plain)
        except ValueError:
            continue
        word = b.reading_word()  # found on first use, then kept
        assert p_baxt(word) == b and b.reading_word() is word


def test_a_loaded_long_zigzag_pair_spells_its_reading_word():
    n = 10**5  # 1, n, 2, n - 1, ...: a left strict tree 10^5 levels deep
    b = p_baxt(tuple(i // 2 + 1 if i % 2 == 0 else n - i // 2 for i in range(n)))
    data = json.loads(json.dumps(b.to_json_dict()))
    assert "labels" in data["sharp"] and "labels" in data["plain"]
    loaded = BaxterObject.from_json_dict(data)
    assert p_baxt(loaded.reading_word()) == b


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


def _flat(node):
    """The flat payload of a nested JSON tree: labels, [mults,] and child masks in preorder."""
    rows = []
    stack = [node] if node is not None else []
    while stack:
        node = stack.pop()
        rows.append(node)
        stack += [child for child in (node["right"], node["left"]) if child is not None]
    flat = {"labels": [n["label"] for n in rows],
            "children": [(n["left"] is not None) + 2 * (n["right"] is not None) for n in rows]}
    if rows and "mult" in rows[0]:
        flat["mults"] = [n["mult"] for n in rows]
    return flat


def _flat_side(side):
    """side in flat form if it is a whole nested tree; as it is otherwise."""
    nested = isinstance(side, dict) and {"label", "left", "right"} <= side.keys()
    return _flat(side) if nested else side


_FLAT_SHARP, _FLAT_PLAIN = _flat(_SHARP), _flat(_PLAIN)
_BAD_FLAT_BAXTER_PAYLOADS = [
    *(({side: _flat_side(tree) for side, tree in payload.items()}, message)
      for payload, message in _BAD_BAXTER_PAYLOADS),
    # a child mask, or a label, equal to a valid one but no exact int
    *(({"sharp": _FLAT_SHARP, "plain": {**_FLAT_PLAIN, field: [bad, *_FLAT_PLAIN[field][1:]]}},
       _NO_PLAIN) for field in ("labels", "children") for bad in (True, 1.0)),
    *(({"sharp": {**_FLAT_SHARP, field: [*_FLAT_SHARP[field][:-1], bad]}, "plain": _FLAT_PLAIN},
       _NO_SHARP) for field in ("labels", "children") for bad in (True, 1.0)),
    # masks out of 0..3, a missing child, a node left over, unequal or missing columns
    ({"sharp": {**_FLAT_SHARP, "children": [6, 0]}, "plain": _FLAT_PLAIN}, _NO_SHARP),
    ({"sharp": _FLAT_SHARP, "plain": {**_FLAT_PLAIN, "children": [-1, 0]}}, _NO_PLAIN),
    ({"sharp": {**_FLAT_SHARP, "children": [2, 1]}, "plain": _FLAT_PLAIN}, _NO_SHARP),
    ({"sharp": _FLAT_SHARP, "plain": {**_FLAT_PLAIN, "children": [0, 0]}}, _NO_PLAIN),
    ({"sharp": {**_FLAT_SHARP, "children": [2]}, "plain": _FLAT_PLAIN}, _NO_SHARP),
    ({"sharp": _FLAT_SHARP, "plain": {"labels": _FLAT_PLAIN["labels"]}}, _NO_PLAIN),
    ({"sharp": {"labels": 5, "children": 5}, "plain": _FLAT_PLAIN}, _NO_SHARP),
]


@given(letter_seqs, letter_seqs)
def test_baxter_json_loaded_objects_multiply(u, v):
    a, b = p_baxt(u), p_baxt(v)
    a2, b2 = (BaxterObject.from_json_dict(json.loads(json.dumps(x.to_json_dict())))
              for x in (a, b))
    assert (a2, b2) == (a, b)
    unspelled = pickle.loads(pickle.dumps(a2))  # before a2 finds its reading word
    assert a2 * b2 == a * b == p_baxt(u + v)
    spelled = pickle.loads(pickle.dumps(a2))  # and after
    assert unspelled * b == spelled * b == p_baxt(u + v)


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


def _all_trees(n, labels, mult):
    """Every tree of n nodes labelled from labels, each of multiplicity 1 if mult."""
    if not n:
        return [None]
    return [(a, *(1,) * mult, left, right) for k in range(n) for a in labels
            for left in _all_trees(k, labels, mult)
            for right in _all_trees(n - 1 - k, labels, mult)]


def test_is_valid_on_equal_labels_at_the_edges_of_the_bounds():
    # chains of equal labels, and their neighbours, at the smallest letter and a huge one:
    # the inclusive bounds label + 1 and label - 1 must give the naive order's answer
    classes = ((RightStrictBST, operator.le, operator.gt),
               (LeftStrictBST, operator.lt, operator.ge), (TaigaTree, operator.lt, operator.gt))
    for x in (1, 10**30):
        near = [a for a in (x - 1, x, x + 1) if a >= 1]
        for cls, left_rel, right_rel in classes:
            for n in range(4):
                for tree in _all_trees(n, near, cls._MULT):
                    assert cls(tree).is_valid() == naive_is_valid(tree, left_rel, right_rel), (
                        cls, tree)


def naive_parse(rows):
    """(True, the nested tree) of preorder (label, [mult,] mask) rows, or (False,
    None) if a mask is no exact int in 0..3 or the masks spell no single tree."""
    if any(type(row[-1]) is not int or not 0 <= row[-1] <= 3 for row in rows):
        return False, None
    rest = list(reversed(rows))

    def node():
        *fields, mask = rest.pop()  # IndexError: a child no row is left for
        left = node() if mask & 1 else None
        return (*fields, left, node() if mask & 2 else None)

    try:
        root = node() if rows else None
    except IndexError:
        return False, None
    return not rest, root  # a row left over is no part of the tree


masks = st.one_of(st.integers(0, 3), st.sampled_from([4, -1, True, 1.0]))


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2), masks), max_size=8))
@example([(1, 1, 1)])  # a missing child
@example([(1, 1, 0), (2, 1, 0)])  # a node left over
@example([(1, 1, True)] + [(1, 1, 0)])  # a mask equal to 1 that is no int
def test_is_valid_is_a_full_structural_check(rows):
    # flat payloads spell any key; is_valid, the loader's one check, must refuse
    # exactly what is no tree or breaks the order
    cases = [(cls, [(a, m) for a, _, m in rows], left, right)
             for cls, left, right in ((RightStrictBST, operator.le, operator.gt),
                                      (LeftStrictBST, operator.lt, operator.ge))]
    cases.append((TaigaTree, rows, operator.lt, operator.gt))
    for cls, cls_rows, left_rel, right_rel in cases:
        payload = {"labels": [row[0] for row in cls_rows],
                   "children": [row[-1] for row in cls_rows]}
        if cls is TaigaTree:
            payload["mults"] = [row[1] for row in cls_rows]
        shaped, root = naive_parse(cls_rows)
        try:
            tree = cls.from_json_dict(payload)
        except ValueError:
            tree = None
        assert (tree is not None) == (shaped and naive_is_valid(root, left_rel, right_rel))
        if tree is not None:
            assert tree.is_valid() and tree.root == root


flat_rows = st.lists(st.tuples(st.integers(1, 3), masks), max_size=6)


@given(flat_rows, flat_rows)
@example([(1, 1), (1, 1), (1, 1), (1, 2), (1, 2)], [(1, 0)])  # three left children missing
def test_baxter_flat_payloads_load_as_the_tree_loaders_and_constructor_decide(sharp, plain):
    # the loader's shortcut takes exactly the pairs the full checks take, and fails
    # on no key, however malformed, with anything but ValueError
    payload = {side: {"labels": [a for a, _ in rows], "children": [m for _, m in rows]}
               for side, rows in (("sharp", sharp), ("plain", plain))}
    try:
        want = BaxterObject(LeftStrictBST.from_json_dict(payload["sharp"]),
                            RightStrictBST.from_json_dict(payload["plain"]))
    except ValueError:
        want = None
    try:
        got = BaxterObject.from_json_dict(payload)
    except ValueError:
        got = None
    assert got == want


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
    for data, message in _BAD_BAXTER_PAYLOADS + _BAD_FLAT_BAXTER_PAYLOADS:
        with pytest.raises(ValueError, match=f"^{message}$"):
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
