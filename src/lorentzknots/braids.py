"""Braid words, closures, Markov moves, and the small named-knot catalog.

Braids are words in Artin generators sigma_i^{+-1} on a fixed strand count;
closures are assumed to be knots (single permutation cycle), which every
invariant entry point checks.  Invariants are computed at blackboard
(writhe) framing.
"""

from __future__ import annotations

import re
from operator import attrgetter

__all__ = [
    "BraidWord",
    "KnotPresentation",
    "parse_braid",
    "mirror",
    "reverse",
    "markov_variants",
    "CATALOG",
    "catalog_knot",
]


_set = object.__setattr__


class _Record:
    """An immutable record of the two or more fields in ``__slots__`` (the
    arguments of ``__init__``, in order), compared, hashed, printed and
    pickled by them as a frozen dataclass is."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields


def _check_int(field: str, value):
    if type(value) is not int:
        raise TypeError(f"braid {field} must be an int, got {value!r}")


class BraidWord(_Record):
    """A word in sigma_1..sigma_{strands-1}; letters are (index, sign)."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters=()):
        _check_int("strands", strands)
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        letters = tuple(letters)
        for i, sign in letters:
            _check_int("index", i)
            _check_int("sign", sign)
            if not 1 <= i <= strands - 1:
                raise ValueError(f"generator index {i} out of range")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1, got {sign}")
        _set(self, "strands", strands)
        _set(self, "letters", letters)

    def writhe(self) -> int:
        return sum(sign for _, sign in self.letters)

    def permutation(self) -> tuple:
        """Image of each strand position under the braid, bottom to top."""
        perm = list(range(self.strands))
        for i, _ in self.letters:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return tuple(perm)

    def is_knot(self) -> bool:
        """True when the closure has a single component (one cycle)."""
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
        return cycles == 1

    def text(self) -> str:
        return " ".join(f"{'-' if s < 0 else ''}s{i}" for i, s in self.letters)

    def __str__(self):
        return f"<{self.text() or 'empty'} on {self.strands} strands>"


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse tokens like ``"s1 -s2 s1"`` into a braid word."""
    letters = []
    for token in text.split():
        m = re.fullmatch(r"(-?)s(\d+)", token)
        if not m:
            raise ValueError(f"bad braid token {token!r}; expected s<i> or -s<i>")
        index = int(m.group(2))
        if not 1 <= index <= strands - 1:
            raise ValueError(
                f"generator s{index} needs {index + 1} strands, braid has {strands}"
            )
        letters.append((index, -1 if m.group(1) else 1))
    return BraidWord(strands, letters)


def mirror(b: BraidWord) -> BraidWord:
    """Mirror image: flip the sign of every crossing."""
    return BraidWord(b.strands, [(i, -s) for i, s in b.letters])


def reverse(b: BraidWord) -> BraidWord:
    """Orientation reversal of the closure: read the word backwards."""
    return BraidWord(b.strands, tuple(reversed(b.letters)))


def markov_variants(b: BraidWord):
    """A finite sample of Markov-equivalent words for invariance testing.

    Includes cyclic permutations, conjugates by every generator, both
    stabilizations, and conjugates of the stabilized words; distinct letter
    sequences only.
    """
    variants = []
    seen = set()

    def add(word: BraidWord):
        key = (word.strands, word.letters)
        if key not in seen:
            seen.add(key)
            variants.append(word)

    def conjugates(word: BraidWord):
        for i in range(1, word.strands):
            for sign in (1, -1):
                add(
                    BraidWord(
                        word.strands,
                        ((i, sign),) + word.letters + ((i, -sign),),
                    )
                )

    add(b)
    for k in range(1, len(b.letters)):
        add(BraidWord(b.strands, b.letters[k:] + b.letters[:k]))
    conjugates(b)
    for sign in (1, -1):
        stab = BraidWord(b.strands + 1, b.letters + ((b.strands, sign),))
        add(stab)
        conjugates(stab)
    return variants


class KnotPresentation(_Record):
    """A named braid whose closure is a knot."""

    __slots__ = ("braid", "name")

    def __init__(self, braid: BraidWord, name: str = ""):
        if not braid.is_knot():
            raise ValueError("closure of the braid is not a knot")
        _set(self, "braid", braid)
        _set(self, "name", name)


def _make_catalog():
    trefoil_right = parse_braid("s1 s1 s1", 2)
    figure_eight = parse_braid("s1 -s2 s1 -s2", 3)
    return {
        "unknot": KnotPresentation(BraidWord(1), name="unknot"),
        "trefoil-right": KnotPresentation(trefoil_right, name="trefoil-right"),
        "trefoil-left": KnotPresentation(mirror(trefoil_right), name="trefoil-left"),
        "figure-eight": KnotPresentation(figure_eight, name="figure-eight"),
    }


CATALOG = _make_catalog()


def catalog_knot(name: str) -> KnotPresentation:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown knot {name!r}; catalog: {', '.join(sorted(CATALOG))}"
        ) from None
