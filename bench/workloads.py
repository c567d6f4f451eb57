"""Workload definitions: the fixed jobs of each workload plus its seeded part.

A spec is plain JSON (lists, ints, strings) built from the workload name and
the seed alone, so the same seed always gives the same inputs.  Braids are
(strands, [[index, sign], ...]); this module imports nothing from the
package.
"""

from __future__ import annotations

import random

WORKLOADS = ("spin-expansion", "braid-sum", "weight-systems")

# Orders are sized so that one cold round of every workload fits a few
# seconds on a 2-core machine; see README.md for the costs at higher orders.
SPIN_ORDER = 2
SUM_ORDER = 2
SUM_DIGITS = 60
SUM_TOLERANCE_EXP = 45

CATALOG = {
    "unknot": (1, []),
    "trefoil-right": (2, [[1, 1]] * 3),
    "trefoil-left": (2, [[1, -1]] * 3),
    "5_1": (2, [[1, 1]] * 5),
    "figure-eight": (3, [[1, 1], [2, -1], [1, 1], [2, -1]]),
    "5_2": (3, [[1, 1], [1, 1], [1, 1], [2, 1], [1, -1], [2, 1]]),
}

# Knot type of each catalog braid, for the Alexander-polynomial oracle.
KNOT_TYPE = {
    "unknot": "unknot",
    "trefoil-right": "3_1",
    "trefoil-left": "3_1",
    "5_1": "5_1",
    "figure-eight": "4_1",
    "5_2": "5_2",
}

# Seeded random knot braids of the spin expansion: (strands, crossings).
# Only one is on 3 strands: their cost varies 2-3 fold with the word, and
# two of them made the seed, not the program, the largest term in the
# spread of wall_s; 2-strand words cost alike.
RANDOM_BRAID_SHAPES = ((3, 4), (2, 5), (2, 7))

# The Markov conjugate s1 (s1^3) s1^-1 of the right trefoil; its walk
# branches far more than the trefoil's own, which is what it measures.
MARKOV_CONJUGATE = (2, [[1, 1], [1, 1], [1, 1], [1, 1], [1, -1]])

# Seeded Markov variants of the trefoils: stabilizations and conjugates whose
# sums cost about the same (0.03-0.1 s each, cold, after the fixed words), so
# the seed changes the inputs without changing the workload's size.
MARKOV_FAMILY = (
    (3, [[1, 1], [1, 1], [2, 1], [1, 1]]),
    (3, [[1, 1], [2, 1], [1, 1], [1, 1]]),
    (3, [[1, 1], [2, -1], [1, 1], [1, 1]]),
    (3, [[1, -1], [1, -1], [2, -1], [1, -1]]),
    (3, [[1, -1], [2, -1], [1, -1], [1, -1]]),
    (2, [[1, 1], [1, -1], [1, 1], [1, 1], [1, 1]]),
    (2, [[1, -1], [1, -1], [1, -1], [1, 1], [1, -1]]),
)

CASIMIR_MS = (0, 1, 2)
CHARACTER_MS = (0, 1, 2)
# Five-chord generators are drawn among the 278 of the 366 that have four
# distinct terms, whose character costs are alike (0.9-1.4 s Lorentz,
# 0.2-0.3 s sl2); the two-term ones cost about half.
FIVE_CHORD_FOUR_TERM = 278
FIVE_CHORD_SL2_SAMPLE = 3
QUOTIENT_DIMENSIONS = (1, 1, 2, 3, 6)  # Bar-Natan's dim A_n, n = 0..4
FOUR_T_COUNTS = {4: 25, 5: 366}


def permutation_is_cycle(strands, letters):
    """True when the closure of the braid has one component."""
    perm = list(range(strands))
    for index, _ in letters:
        perm[index - 1], perm[index] = perm[index], perm[index - 1]
    k, length = 0, 0
    while True:
        k = perm[k]
        length += 1
        if k == 0:
            return length == strands


def mirror_letters(letters):
    return [[i, -s] for i, s in letters]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _random_knot_braid(rng, strands, crossings, taken):
    while True:
        letters = [[rng.randint(1, strands - 1), rng.choice((1, -1))]
                   for _ in range(crossings)]
        key = (strands, str(letters))
        mkey = (strands, str(mirror_letters(letters)))
        if permutation_is_cycle(strands, letters) and key not in taken and mkey not in taken:
            taken.add(key)
            return letters


def spin_spec(seed):
    rng = _rng("spin-expansion", seed)
    knots = []
    taken = set()
    for name in ("unknot", "trefoil-right", "5_1", "figure-eight", "5_2"):
        strands, letters = CATALOG[name]
        knots.append({"name": name, "strands": strands, "letters": letters,
                      "knot_type": KNOT_TYPE[name]})
        taken.add((strands, str(letters)))
    for k, (strands, crossings) in enumerate(RANDOM_BRAID_SHAPES):
        letters = _random_knot_braid(rng, strands, crossings, taken)
        knots.append({"name": f"random-{k}", "strands": strands,
                      "letters": letters, "knot_type": None})
    return {"workload": "spin-expansion", "order": SPIN_ORDER, "knots": knots}


def braid_spec(seed):
    rng = _rng("braid-sum", seed)
    words = []
    for name in ("trefoil-right", "trefoil-left", "figure-eight"):
        strands, letters = CATALOG[name]
        words.append({"name": name, "strands": strands, "letters": letters,
                      "knot_type": KNOT_TYPE[name]})
    strands, letters = MARKOV_CONJUGATE
    words.append({"name": "markov-conjugate", "strands": strands, "letters": letters,
                  "knot_type": "3_1"})
    strands, letters = rng.choice(MARKOV_FAMILY)
    words.append({"name": "markov-variant", "strands": strands, "letters": letters,
                  "knot_type": "3_1"})
    return {
        "workload": "braid-sum",
        "order": SUM_ORDER,
        "digits": SUM_DIGITS,
        "ps": [2, 3, "symbolic"],
        "closed_ps": [2, 3],
        "words": words,
        # X(0, p) comes from the spin pipeline, outside the timed phase.
        "x_knots": [{"name": name, "strands": CATALOG[name][0],
                     "letters": CATALOG[name][1], "knot_type": KNOT_TYPE[name]}
                    for name in ("trefoil-right", "figure-eight")],
    }


def weight_spec(seed):
    rng = _rng("weight-systems", seed)
    ranks = rng.sample(range(FIVE_CHORD_FOUR_TERM), FIVE_CHORD_SL2_SAMPLE)
    return {
        "workload": "weight-systems",
        "character_ms": list(CHARACTER_MS),
        # ranks among the four-term five-chord generators: sl2 on all of
        # them, the factorized Lorentz character on the first at a seeded m
        "five_chord_sl2": ranks,
        "five_chord_lorentz": [ranks[0], rng.choice(CHARACTER_MS)],
        # direct route: a 4-chord diagram (of 18) at m = 0, where it costs
        # about 0.4 s, and a 3-chord diagram (of 5) at m = 1 or 2
        "direct_four": rng.randrange(18),
        "direct_three": [rng.randrange(5), rng.choice((1, 2))],
        "casimir_ms": list(CASIMIR_MS),
        "quotient_ns": list(range(len(QUOTIENT_DIMENSIONS))),
    }


def build_spec(workload, seed):
    if workload == "spin-expansion":
        return spin_spec(seed)
    if workload == "braid-sum":
        return braid_spec(seed)
    if workload == "weight-systems":
        return weight_spec(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
