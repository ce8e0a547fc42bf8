"""Depth of the insertion trees, computed without building them.

Inserting a word into a binary search tree gives the Cartesian tree of its
keys: in-order by key, heap-ordered by insertion time.  The keys and times
per family are

* sylv (right strict, right to left): key (letter, position), time = n - position;
* sylvsharp (left strict, left to right): key (letter, position), time = position;
* taig (distinct letters, right to left): key letter, time = order of last occurrence
  counted from the right.

Depth is computed with two monotone stacks in O(n log n), so recording the
depth of 10^4-letter inputs costs nothing next to inserting them.  It is an
input property, independent of how the library builds its trees.
"""
from __future__ import annotations


def _cartesian_depth(times) -> int:
    """Height (root = 1) of the min-heap Cartesian tree of distinct times."""
    n = len(times)
    if n == 0:
        return 0
    parent = [-1] * n
    left_smaller = [-1] * n
    stack = []
    for i, t in enumerate(times):
        while stack and times[stack[-1]] > t:
            stack.pop()
        left_smaller[i] = stack[-1] if stack else -1
        stack.append(i)
    stack = []
    for i in range(n - 1, -1, -1):
        t = times[i]
        while stack and times[stack[-1]] > t:
            stack.pop()
        right = stack[-1] if stack else -1
        left = left_smaller[i]
        # the parent is the later-inserted of the two nearest earlier neighbours
        if left < 0 or (right >= 0 and times[right] > times[left]):
            parent[i] = right
        else:
            parent[i] = left
        stack.append(i)
    depth = [0] * n
    for i in sorted(range(n), key=times.__getitem__):
        p = parent[i]
        depth[i] = 1 if p < 0 else depth[p] + 1
    return max(depth)


def insertion_depth(family: str, word) -> int:
    """Tree depth reached by inserting ``word`` in a tree family (0 for stal)."""
    n = len(word)
    if family in ("sylv", "sylvsharp"):
        order = sorted(range(n), key=lambda p: (word[p], p))
        if family == "sylv":
            return _cartesian_depth([n - p for p in order])
        return _cartesian_depth(order)
    if family == "taig":
        last = {}
        for p, a in enumerate(word):
            last[a] = p
        return _cartesian_depth([n - last[a] for a in sorted(last)])
    if family == "baxt":
        return max(insertion_depth("sylv", word), insertion_depth("sylvsharp", word))
    return 0
