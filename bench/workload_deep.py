"""deep-words: long adversarial letter words whose insertion trees are deep.

Shapes: increasing and decreasing monotone, binary over {1, 2} with equal
counts, zigzag (1, n, 2, n-1, ...) and random over 50 letters.  Every (word,
family) pair gets ``canonical``, ``equivalent(w, w)``, a ``to_json_dict`` ->
``from_json_dict`` round trip and ``render`` (both trees for baxt).  The
lengths are fixed per shape, so which pairs cross the interpreter's recursion
limit (about 1,000 frames) does not depend on the seed; the seed changes the
letters of the binary and random words.
"""
from __future__ import annotations

import random

from plactic_lab import MonoidFamily, canonical, equivalent, ev

from depth import insertion_depth
from harness import Tally, exc_name, length_profile, now

FAMILIES = (MonoidFamily.STAL, MonoidFamily.TAIG, MonoidFamily.SYLV,
            MonoidFamily.SYLV_SHARP, MonoidFamily.BAXT)
# (shape, length).  Depths reached: inc-900 900 (just under the recursion
# limit), dec-1500 1500, zig-1500 750 (taig, sylv) and 1500 (sylvsharp),
# bin-1000 about 500, bin-2500 about 1250, r50-5000 about 130.
ITEMS = (("inc", 900), ("dec", 1500), ("zig", 1500), ("bin", 1000), ("bin", 2500),
         ("r50", 5000))
TINY_ITEMS = (("inc", 60), ("dec", 60), ("zig", 60), ("bin", 60), ("r50", 200))
TRACE_ROUNDS = 1


def make_word(shape: str, n: int, rng: random.Random) -> tuple:
    if shape == "inc":
        return tuple(range(1, n + 1))
    if shape == "dec":
        return tuple(range(n, 0, -1))
    if shape == "zig":
        return tuple(i // 2 + 1 if i % 2 == 0 else n - i // 2 for i in range(n))
    if shape == "bin":
        # as many 1s as 2s, so the tree depth (about n/2) hardly varies by seed
        word = [1, 2] * (n // 2)
        rng.shuffle(word)
        return tuple(word)
    if shape == "r50":
        return tuple(rng.randint(1, 50) for _ in range(n))
    raise ValueError(shape)


def _layer(fam) -> str:
    return "tableaux" if fam in (MonoidFamily.STAL, MonoidFamily.TAIG) else "bst"


def _render(fam, obj) -> str:
    if fam is MonoidFamily.BAXT:
        return obj.sharp.render() + "\n" + obj.plain.render()
    return obj.render()


def _render_lines(fam, word) -> int:
    """Lines the ASCII picture must have: one per node, one per row for stal."""
    if fam is MonoidFamily.STAL:
        return max(ev(word).values())
    if fam is MonoidFamily.TAIG:
        return len(set(word))
    if fam is MonoidFamily.BAXT:
        return 2 * len(word)
    return len(word)


class DeepWords:

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.items = [(f"{shape}-{n}", make_word(shape, n, rng))
                      for shape, n in (TINY_ITEMS if tiny else ITEMS)]
        self.trace_rounds = TRACE_ROUNDS

    def round(self, tr, tally: Tally, acc) -> None:
        for label, word in self.items:
            for fam in FAMILIES:
                tr.new_request()
                self._pair(label, word, fam, tr, tally, acc)

    def _pair(self, label, word, fam, tr, tally, acc) -> None:
        name = f"deep-words/{label}/{fam}"
        layer = _layer(fam)
        key = (label, str(fam))
        busy = 0.0
        ok = True
        t0 = now()
        try:
            with tr.span("monoids.canonical"):
                obj = canonical(fam, word)
        except Exception as exc:
            busy += now() - t0
            tally.fail(f"{name}/canonical", exc_name(exc))
            for op in ("equivalent", "json_roundtrip", "render"):
                tally.fail(f"{name}/{op}", "no object")
            acc.main(key, busy, 0)
            acc.side(key, busy, 0)
            acc.latency(key, busy)
            return
        busy += now() - t0
        tally.check(obj.as_counter() == ev(word), f"{name}/as_counter")

        t0 = now()
        try:
            with tr.span("monoids.equivalent"):
                same = equivalent(fam, word, word)
            busy += now() - t0
            ok &= tally.check(same is True, f"{name}/equivalent")
        except Exception as exc:
            busy += now() - t0
            ok = False
            tally.fail(f"{name}/equivalent", exc_name(exc))

        t0 = now()
        try:
            with tr.span(f"{layer}.json_roundtrip"):
                back = type(obj).from_json_dict(obj.to_json_dict())
            busy += now() - t0
            ok &= tally.check(back == obj, f"{name}/json_roundtrip")
        except Exception as exc:
            busy += now() - t0
            ok = False
            tally.fail(f"{name}/json_roundtrip", exc_name(exc))

        t0 = now()
        try:
            with tr.span(f"{layer}.render"):
                text = _render(fam, obj)
            busy += now() - t0
            ok &= tally.check(text.count("\n") + 1 == _render_lines(fam, word),
                              f"{name}/render")
        except Exception as exc:
            busy += now() - t0
            ok = False
            tally.fail(f"{name}/render", exc_name(exc))

        acc.main(key, busy, len(word) if ok else 0)
        acc.side(key, busy, 1)
        acc.latency(key, busy)

    def inputs(self) -> dict:
        depth: dict = {}
        for label, word in self.items:
            shape = label.split("-")[0]
            d = max(insertion_depth(str(f), word) for f in FAMILIES)
            depth[shape] = max(depth.get(shape, 0), d)
        return {"words": length_profile([len(w) for _, w in self.items]),
                "items": [label for label, _ in self.items],
                "alphabet_size": max(max(w) for _, w in self.items),
                "pairs_per_round": len(self.items) * len(FAMILIES),
                "max_tree_depth": depth}

    NAMED = {"letters_per_s": ("primary_per_s", "1/s"),
             "objects_per_s": ("secondary_per_s", "1/s"),
             "pair_p50_ms": ("p50_ms", "ms"), "pair_p90_ms": ("p90_ms", "ms")}
