"""Words over fixed per-position alphabets and their Hamming geometry.

A word is a fixed-length tuple of letters; the letter at position i is drawn
from {0, ..., a_i - 1} with a_i >= 2.  Words are ordered lexicographically
with position 1 most significant, and every word set produced by this package
is kept in that order so identical inputs give byte-identical output.

Inside the package a word set is a set of packed mixed-radix indices
(``AlphabetSpec.index_of``).  Position 1 is the most significant digit, so
sorting the indices is sorting the words.  A ``WordSet`` holds its alphabet
and its sorted indices, and ``WordSet.from_indices`` checks once, at
construction, that every index lies in [0, size).  Length and equality read
the sorted indices, ``indices`` and membership a frozenset built on first
use.  The ``Word`` objects are built once, when ``members``, iteration, text
or hashing first asks, by one table decoder per alphabet: the positions are
split into runs whose alphabet product is at most 256, each run's letter
tuples are tabulated in index order, and a word is its runs' table entries
concatenated.  Every in-range index has valid letters, so these words skip
the per-letter check that ``Word(letters, spec)``, ``Word.parse`` and
``Word.from_index`` apply to input from outside, and ``_unchecked``, which
also builds ``matroid``'s covectors, sets their slots with the cyclic
collector paused.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from itertools import product, repeat
from math import comb, prod
from operator import add, ge, mul
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_BUDGET = 2 ** 20
# Largest alphabet product of one decoder table; a position whose own
# alphabet is larger decodes without a table.
_TABLE_LIMIT = 2 ** 8


class IncompatibleWordsError(ValueError):
    """Two words do not live over the same alphabet."""


class BudgetExceededError(ValueError):
    """A whole-space construction would exceed the configured budget."""


@dataclass(frozen=True)
class AlphabetSpec:
    """Alphabet sizes per position, e.g. (2, 2, 2) for binary words of length 3."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(a) for a in self.sizes)
        if not sizes:
            raise ValueError("alphabet spec needs at least one position")
        if any(a < 2 for a in sizes):
            raise ValueError("every alphabet size must be at least 2")
        object.__setattr__(self, "sizes", sizes)
        # Mixed-radix place values; position 1 is most significant, so the
        # packed index of a word is monotone in its lexicographic order.
        strides = [1] * len(sizes)
        for i in range(len(sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        object.__setattr__(self, "_strides", tuple(strides))
        # Whether words over this alphabet render as plain digit strings.
        object.__setattr__(self, "compact_text", all(a <= 10 for a in sizes))

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def size(self) -> int:
        return prod(self.sizes)

    @property
    def is_binary(self) -> bool:
        return all(a == 2 for a in self.sizes)

    def check_budget(self, budget: int = DEFAULT_BUDGET) -> None:
        if self.size > budget:
            raise BudgetExceededError(
                f"space too large: {self.size} words over {self} exceeds budget {budget}"
            )

    def index_of(self, letters: tuple[int, ...]) -> int:
        return sum(map(mul, letters, self._strides))

    def check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise ValueError(
                f"index {index} out of range for alphabet {self}: "
                f"expected 0 <= index < {self.size}"
            )

    def iter_words(self) -> Iterator["Word"]:
        """All words in canonical (lexicographic) order."""
        for letters in product(*(range(a) for a in self.sizes)):
            yield Word(letters, self)

    @classmethod
    def parse(cls, text: str) -> "AlphabetSpec":
        """Parse '2^4', '3,3', '2,3' or mixtures such as '2^3,3'."""
        return cls(tuple(a for a, count in _spec_runs(text) for _ in range(count)))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.sizes)


def _spec_runs(text: str) -> Iterator[tuple[int, int]]:
    """(alphabet size, repeat count) per token of an alphabet spec."""
    where = f"alphabet spec {text!r}"
    for token in text.strip().split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty token in {where}")
        base, caret, count = token.partition("^")
        repeat_count = _number(count, where) if caret else 1
        if repeat_count < 1:
            raise ValueError(f"repeat count below 1 in {where}")
        yield _number(base, where), repeat_count


def _number(token: str, where: str) -> int:
    """int(token), or a ValueError that names the token and where it stood."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token!r} is not a number in {where}") from None


@lru_cache(maxsize=64)
def _decoder(sizes: tuple[int, ...]) -> Callable[[Sequence[int]], list[tuple[int, ...]]]:
    """Letter tuples of packed indices over ``sizes``, by table lookup.

    The positions are split, from the least significant end, into runs whose
    alphabet product is at most _TABLE_LIMIT; each run's letter tuples are
    tabulated in index order, and a word is the concatenation of one table
    entry per run.  Every index must lie in [0, prod(sizes)): a negative one
    would wrap around the tables instead of failing.
    """
    runs = []
    place, end = 1, len(sizes)
    while end:
        start, radix = end - 1, sizes[end - 1]
        while start and radix * sizes[start - 1] <= _TABLE_LIMIT:
            start -= 1
            radix *= sizes[start]
        table = (
            tuple(product(*(range(a) for a in sizes[start:end])))
            if radix <= _TABLE_LIMIT else ()
        )
        runs.append((place, radix, table))
        place *= radix
        end = start

    def decode(indices: Sequence[int]) -> list[tuple[int, ...]]:
        letters: list[tuple[int, ...]] = []
        for place, radix, table in runs:
            if table:
                run = [table[i // place % radix] for i in indices]
            else:
                run = [(i // place % radix,) for i in indices]
            letters = list(map(add, run, letters)) if letters else run
        return letters

    return decode


@total_ordering
@dataclass(frozen=True, slots=True)
class Word:
    """A fixed-length word over an :class:`AlphabetSpec`.

    ``index`` is the packed mixed-radix index; it equals the bit packing for
    binary words.
    """

    letters: tuple[int, ...]
    spec: AlphabetSpec
    index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        letters = tuple(map(int, self.letters))
        sizes = self.spec.sizes
        if len(letters) != len(sizes):
            raise ValueError(
                f"word has {len(letters)} letters, alphabet has {len(sizes)} positions"
            )
        if min(letters) < 0 or any(map(ge, letters, sizes)):
            for pos, (l, a) in enumerate(zip(letters, sizes), start=1):
                if not 0 <= l < a:
                    raise ValueError(
                        f"invalid letter {l} at position {pos}: alphabet size {a}"
                    )
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "index", self.spec.index_of(letters))

    @classmethod
    def from_index(cls, index: int, spec: AlphabetSpec) -> "Word":
        spec.check_index(index)
        return cls(_decoder(spec.sizes)([index])[0], spec)

    @classmethod
    def parse(cls, text: str, spec: AlphabetSpec) -> "Word":
        where = f"word {text!r}"
        if "," in text:
            letters = tuple(_number(tok, where) for tok in text.split(","))
        else:
            if not spec.compact_text:
                raise ValueError(
                    f"alphabet {spec} needs comma-separated words, got {text!r}"
                )
            letters = tuple(_number(ch, where) for ch in text)
        return cls(letters, spec)

    def __str__(self) -> str:
        return ("" if self.spec.compact_text else ",").join(map(str, self.letters))

    def __lt__(self, other: "Word") -> bool:
        require_same_spec(self, other)
        return self.letters < other.letters


def _unchecked(cls: type, count: int,
               slots: Callable[[], dict[str, Iterable]]) -> tuple:
    """``count`` instances of a frozen slotted class, its checks skipped.

    With the cyclic collector paused, ``slots()`` maps each slot name to
    its values and one ``map`` per slot sets them, bypassing the frozen
    ``__setattr__``.  The values are built inside the pause too: tuples
    allocated with the collector running made n = 16 decoding 3x slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        made = tuple(map(object.__new__, repeat(cls, count)))
        for name, values in slots().items():
            deque(map(getattr(cls, name).__set__, made, values), maxlen=0)
    finally:
        if enabled:
            gc.enable()
    return made


def _decode_words(indices: Sequence[int], spec: AlphabetSpec) -> tuple[Word, ...]:
    """Words of in-range indices, unchecked."""
    return _unchecked(Word, len(indices), lambda: {
        "letters": _decoder(spec.sizes)(indices), "spec": repeat(spec), "index": indices})


def require_same_spec(x: Word, y: Word) -> AlphabetSpec:
    if x.spec != y.spec:
        raise IncompatibleWordsError(
            f"incompatible words: alphabets {x.spec} and {y.spec} differ"
        )
    return x.spec


class WordSet:
    """A set of words over one alphabet, iterated in canonical order; its
    ``Word``s are decoded on first read (see the module docstring)."""

    __slots__ = ("_spec", "_order", "_index_set", "_members")

    def __init__(self, members: Iterable[Word], spec: AlphabetSpec | None = None):
        seen: dict[int, Word] = {}
        for w in members:
            if spec is None:
                spec = w.spec
            elif w.spec is not spec and w.spec != spec:
                raise IncompatibleWordsError(
                    f"incompatible words: alphabets {spec} and {w.spec} differ"
                )
            seen[w.index] = w
        if spec is None:
            raise ValueError("empty WordSet needs an explicit alphabet")
        self._spec = spec
        # Index order is the canonical (lexicographic) order.
        self._order = tuple(sorted(seen))
        self._members: tuple[Word, ...] | None = tuple(map(seen.get, self._order))
        self._index_set: frozenset[int] | None = None

    @classmethod
    def from_indices(cls, indices: Iterable[int], spec: AlphabetSpec) -> "WordSet":
        """The words with the given packed indices, decoded on first read;
        one range check covers the whole set, here at construction."""
        out = cls((), spec)
        out._order = tuple(sorted(set(indices)))
        for end in out._order[:1] + out._order[-1:]:
            spec.check_index(end)
        out._members = None
        return out

    @property
    def spec(self) -> AlphabetSpec:
        return self._spec

    @property
    def members(self) -> tuple[Word, ...]:
        if self._members is None:
            self._members = _decode_words(self._order, self._spec)
        return self._members

    @property
    def indices(self) -> frozenset[int]:
        if self._index_set is None:
            self._index_set = frozenset(self._order)
        return self._index_set

    @property
    def sorted_indices(self) -> tuple[int, ...]:
        return self._order

    def to_text(self) -> list[str]:
        return [str(w) for w in self.members]

    def __iter__(self) -> Iterator[Word]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, w: object) -> bool:
        return isinstance(w, Word) and w.spec == self._spec and w.index in self.indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordSet):
            return NotImplemented
        return self._order == other._order and self._spec == other._spec

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"WordSet({{{', '.join(self.to_text())}}})"


def hamming_distance(x: Word, y: Word) -> int:
    """Number of positions where two words differ."""
    require_same_spec(x, y)
    return sum(a != b for a, b in zip(x.letters, y.letters))


def interval(x: Word, y: Word) -> WordSet:
    """All words agreeing with x or y at every position; size 2**d(x, y)."""
    spec = require_same_spec(x, y)
    choices = [sorted({a, b}) for a, b in zip(x.letters, y.letters)]
    return WordSet.from_indices(map(spec.index_of, product(*choices)), spec)


def phi(h: int, n: int) -> int:
    """Partial binomial sum: number of subsets of an n-set with at most h elements."""
    if h < 0 or n < 0:
        raise ValueError("phi requires h >= 0 and n >= 0")
    return sum(comb(n, i) for i in range(h + 1))
