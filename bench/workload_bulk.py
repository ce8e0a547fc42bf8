"""bulk-short: many short random letter words through all five insertion families.

Criterion 2's range: rank 1-9, length 1-40.  Each word is inserted in every
family and each object is added to a per-family class set (object hash and
equality).  Each word also gets one ``equivalent`` call in a rotating family:
half the partners are the word's normal form (so the answer is True), half
are random words of the same rank and length.  The pool of words is drawn
once and repeated every round.
"""
from __future__ import annotations

import random

from plactic_lab import MonoidFamily, Word, canonical, equivalent, ev, normal_form

from depth import insertion_depth
from harness import Tally, exc_name, length_profile, now

FAMILIES = (MonoidFamily.STAL, MonoidFamily.TAIG, MonoidFamily.SYLV,
            MonoidFamily.SYLV_SHARP, MonoidFamily.BAXT)
POOL = 1080          # words (3 per rank and length), repeated every round
TRACE_ROUNDS = 6     # fixed work of a traced pass


class BulkShort:

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.trace_rounds = 1 if tiny else TRACE_ROUNDS
        self.lengths = []
        self.ranks = set()
        self.eq_nf = 0
        self.depth = 0
        self.pool = self._inputs(20 if tiny else POOL)

    def _inputs(self, count):
        """Ranks and lengths cycle through all 9 x 40 pairs, so every seed
        has the same length profile; the seed picks letters and order."""
        combos = [(rank, n) for rank in range(1, 10) for n in range(1, 41)]
        shape = [combos[i % len(combos)] for i in range(count)]
        self.rng.shuffle(shape)
        out = []
        for i, (rank, n) in enumerate(shape):
            w = tuple(self.rng.randint(1, rank) for _ in range(n))
            self.lengths.append(n)
            self.ranks.add(rank)
            self.depth = max(self.depth, insertion_depth("baxt", w),
                             insertion_depth("taig", w))
            fam = FAMILIES[i % len(FAMILIES)]
            if i % 2 == 0:
                partner = normal_form(fam, Word(w)).symbols
                self.eq_nf += 1
            else:
                partner = tuple(self.rng.randint(1, rank) for _ in range(n))
            out.append((w, fam, partner))
        return out

    def round(self, tr, tally: Tally, acc) -> None:
        classes = {f: set() for f in FAMILIES}
        by_form = {f: {} for f in FAMILIES}
        for key, (w, eq_fam, partner) in enumerate(self.pool):
            tr.new_request()
            objs = []
            t0 = now()
            try:
                for fam in FAMILIES:
                    with tr.span("monoids.canonical"):
                        obj = canonical(fam, w)
                    with tr.span("monoids.class_set"):
                        classes[fam].add(obj)
                    objs.append(obj)
                t1 = now()
                with tr.span("monoids.equivalent"):
                    same = equivalent(eq_fam, w, partner)
                t2 = now()
            except Exception as exc:  # a crash is a failed operation, not a stop
                stage = FAMILIES[len(objs)] if len(objs) < len(FAMILIES) else eq_fam
                tally.fail(f"bulk-short/{stage}", exc_name(exc))
                continue
            acc.main(key, t1 - t0, len(FAMILIES))
            acc.side(key, t2 - t1, 1)
            acc.latency(key, t2 - t0)
            # checks, outside the timed region
            expected = ev(w)
            for fam, obj in zip(FAMILIES, objs):
                tally.check(obj.as_counter() == expected, f"bulk-short/{fam}/as_counter")
                # words with one normal form must share one object
                first = by_form[fam].setdefault(normal_form(fam, Word(w)), obj)
                tally.check(first == obj, f"bulk-short/{fam}/normal_form_class")
            nf_equal = normal_form(eq_fam, Word(w)) == normal_form(eq_fam, Word(partner))
            truth = objs[FAMILIES.index(eq_fam)] == canonical(eq_fam, partner)
            tally.check(same == truth and (same or not nf_equal),
                        f"bulk-short/{eq_fam}/equivalent")
        # The normal form decides the identity congruence, which refines each
        # monoid's congruence on ordered letters: equal class counts for stal,
        # at most as many object classes as normal forms for the others.
        for fam in FAMILIES:
            n_obj, n_nf = len(classes[fam]), len(by_form[fam])
            tally.check(n_obj == n_nf if fam is MonoidFamily.STAL else n_obj <= n_nf,
                        f"bulk-short/{fam}/class_count", "classes differ from normal forms")

    def inputs(self) -> dict:
        return {"words": length_profile(self.lengths), "alphabet_size": max(self.ranks),
                "ranks_seen": sorted(self.ranks), "families": [str(f) for f in FAMILIES],
                "partners_normal_form": self.eq_nf,
                "max_tree_depth": {"random": self.depth}}

    NAMED = {"objects_per_s": ("primary_per_s", "1/s"),
             "equivalent_per_s": ("secondary_per_s", "1/s"),
             "word_p50_ms": ("p50_ms", "ms"), "word_p90_ms": ("p90_ms", "ms")}
