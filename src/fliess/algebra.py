"""Words over a finite alphabet, generating series, and linear
representations of rational series.

Words are plain tuples of letter indices.  Letter 0 is always the drift
letter (its channel is identically 1), letters 1..m are the controlled
channels.  A generating series maps words to real coefficients and can be
given three ways: as a finite polynomial, as a pure coefficient callback,
or as a linear representation (matrices A_0..A_m, initial vector gamma,
output row lambda) with

    coefficient(x_{i1} x_{i2} ... x_{ik}) = lambda @ A_{i1} @ ... @ A_{ik} @ gamma,

i.e. the word map is a monoid morphism with the first letter applied
leftmost.  Under this convention removing a prefix letter x_j from every
word folds A_j into lambda.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

#: default limit on how many words a truncated enumeration may touch
DEFAULT_WORD_CAP = 10**7


class CapExceeded(Exception):
    """A word enumeration would exceed the configured cap."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


@dataclass(frozen=True)
class Alphabet:
    """The alphabet {x_0, x_1, ..., x_m}; ``m`` counts the controlled letters."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise DomainError(f"letter count m must be >= 0, got {self.m}")

    @property
    def size(self) -> int:
        """Total number of letters, m + 1 (the drift letter included)."""
        return self.m + 1

    def letters(self) -> range:
        return range(self.m + 1)

    def check_letter(self, letter, what: str = "letter") -> None:
        """Raise DomainError unless ``letter`` is an integer in 0..m."""
        if not 0 <= letter <= self.m:  # a NaN letter fails here too
            raise DomainError(f"{what} {letter} outside alphabet with m={self.m}")
        if isinstance(letter, bool) or not isinstance(letter, (int, np.integer)):
            raise DomainError(f"{what} {letter!r} is not an integer")

    def check_word(self, w: Word) -> Word:
        w = tuple(w)
        for letter in w:
            if type(letter) is not int or not 0 <= letter <= self.m:  # the common case stays cheap
                self.check_letter(letter)
        return w


class Polynomial:
    """A finite real linear combination of words, kept in canonical form
    (no explicitly stored zero coefficients)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Word, float]] = None):
        self.terms: dict[Word, float] = {}
        if terms:
            for w, coeff in terms.items():
                if coeff != 0.0:
                    self.terms[tuple(w)] = float(coeff)

    @classmethod
    def monomial(cls, w: Word, coeff: float = 1.0) -> "Polynomial":
        return cls({tuple(w): coeff})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({EMPTY_WORD: 1.0})

    def coefficient(self, w: Word) -> float:
        return self.terms.get(tuple(w), 0.0)

    def support(self) -> set[Word]:
        return set(self.terms)

    def degree(self) -> int:
        """Length of the longest word in the support (-1 for the zero polynomial)."""
        return max((len(w) for w in self.terms), default=-1)

    def __iter__(self) -> Iterator[tuple[Word, float]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for w, coeff in other.terms.items():
            out[w] = out.get(w, 0.0) + coeff
        return Polynomial(out)

    def scale(self, a: float) -> "Polynomial":
        return Polynomial({w: a * coeff for w, coeff in self.terms.items()})

    def cat_product(self, other: "Polynomial", max_len: Optional[int] = None) -> "Polynomial":
        """Catenation (concatenation) product, optionally discarding words
        longer than ``max_len``."""
        out: dict[Word, float] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                if max_len is not None and len(w) > max_len:
                    continue
                out[w] = out.get(w, 0.0) + c1 * c2
        return Polynomial(out)

    def allclose(self, other: "Polynomial", tol: float = 0.0) -> bool:
        words = set(self.terms) | set(other.terms)
        return all(abs(self.coefficient(w) - other.coefficient(w)) <= tol for w in words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = [f"{coeff:g}*{''.join(f'x{i}' for i in w) or 'e'}" for w, coeff in self]
        return "Polynomial(" + " + ".join(parts) + ")"


class Growth(Enum):
    LC = "LC"
    GC = "GC"
    FACTORIAL_DECAY = "FACTORIAL_DECAY"


@dataclass(frozen=True)
class GrowthClass:
    """A coefficient growth class |(c,eta)| <= K * M^|eta| * g(|eta|), where
    g is |eta|! (LC), 1 (GC) or 1/|eta|! (FACTORIAL_DECAY)."""

    kind: Growth
    K: float
    M: float

    def __post_init__(self):
        for name, value in (("K", self.K), ("M", self.M)):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(
                    f"growth constant {name} must be finite and positive, got {value!r}")

    def bound(self, length: int) -> float:
        base = self.K * self.M**length
        if self.kind is Growth.LC:
            return base * math.factorial(length)
        if self.kind is Growth.GC:
            return base
        return base / math.factorial(length)


class LinearRepresentation:
    """A linear representation (mu, gamma, lam) of a rational series.

    ``matrices[j]`` is the n-by-n matrix mu(x_j); the word map extends as a
    monoid morphism, so coefficient(w) = lam @ mu(w[0]) @ ... @ mu(w[-1]) @ gamma.
    Arrays are copied and frozen so instances can be shared freely.
    """

    __slots__ = ("matrices", "gamma", "lam", "dim")

    def __init__(self, matrices: Sequence[np.ndarray], gamma: np.ndarray, lam: np.ndarray):
        mats = tuple(np.array(a, dtype=float) for a in matrices)
        if not mats:
            raise DomainError("a representation needs at least the drift matrix A_0")
        n = mats[0].shape[0]
        if n < 1:
            raise DomainError("representation dimension must be >= 1")
        for a in mats:
            if a.shape != (n, n):
                raise DomainError(f"all matrices must be {n}x{n}, got {a.shape}")
        gamma = np.array(gamma, dtype=float).reshape(n)
        lam = np.array(lam, dtype=float).reshape(n)
        mats = np.stack(mats)
        for arr in (mats, gamma, lam):
            arr.flags.writeable = False
        self.matrices = mats
        self.gamma = gamma
        self.lam = lam
        self.dim = n

    @property
    def m(self) -> int:
        return len(self.matrices) - 1

    def letter_sum(self, weights) -> np.ndarray:
        """sum_i A_i w_i for each row w of letter weights (length m+1): one
        n-by-n matrix for a single row, a stack of them for a 2-d array."""
        return np.tensordot(weights, self.matrices, axes=1)

    def coefficient(self, w: Word) -> float:
        # row-vector propagation: lam . A_{w0} . A_{w1} ... A_{wk} . gamma
        row = self.lam
        for letter in w:
            row = row @ self.matrices[letter]
        return float(row @ self.gamma)


class SeriesSpec:
    """A generating series over a fixed alphabet.

    Exactly one of ``polynomial``, ``callback``, ``representation`` must be
    given.  ``support_letters`` optionally declares the set of letters that
    can appear in words with nonzero coefficient; evaluation and bound
    computations may restrict themselves to those letters.  For polynomial
    sources the support letters are derived automatically.
    """

    __slots__ = ("alphabet", "polynomial", "callback", "representation",
                 "growth", "support_letters", "label")

    def __init__(
        self,
        alphabet: Alphabet,
        polynomial: Optional[Polynomial] = None,
        callback: Optional[Callable[[Word], float]] = None,
        representation: Optional[LinearRepresentation] = None,
        growth: Optional[GrowthClass] = None,
        support_letters: Optional[Iterable[int]] = None,
        label: str = "",
    ):
        sources = [s is not None for s in (polynomial, callback, representation)]
        if sum(sources) != 1:
            raise DomainError("exactly one of polynomial/callback/representation required")
        if representation is not None and representation.m != alphabet.m:
            raise DomainError(
                f"representation has {representation.m + 1} matrices but alphabet needs {alphabet.m + 1}"
            )
        if polynomial is not None:
            for w in polynomial.terms:
                alphabet.check_word(w)
            if support_letters is None:
                support_letters = {letter for w in polynomial.terms for letter in w}
        self.alphabet = alphabet
        self.polynomial = polynomial
        self.callback = callback
        self.representation = representation
        self.growth = growth
        self.support_letters = (
            frozenset(support_letters) if support_letters is not None else None
        )
        if self.support_letters is not None:
            for letter in self.support_letters:
                alphabet.check_letter(letter, "support letter")
        self.label = label

    def coefficient(self, w: Word) -> float:
        w = self.alphabet.check_word(w)
        if self.polynomial is not None:
            return self.polynomial.coefficient(w)
        if self.representation is not None:
            return self.representation.coefficient(w)
        return float(self.callback(w))

    def evaluation_letters(self) -> tuple[int, ...]:
        """Letters that truncated evaluation must range over."""
        if self.support_letters is None:
            return tuple(self.alphabet.letters())
        return tuple(sorted(self.support_letters))

    def __repr__(self) -> str:
        kind = ("polynomial" if self.polynomial is not None
                else "representation" if self.representation is not None
                else "callback")
        name = f" {self.label!r}" if self.label else ""
        return f"SeriesSpec({kind}, m={self.alphabet.m}{name})"


def count_words_upto(q: int, max_len: int, cap: int = DEFAULT_WORD_CAP) -> int:
    """Number of words of length 0..max_len over q letters; raises
    CapExceeded when it exceeds ``cap``."""
    total = (max_len + 1) if q == 1 else (q ** (max_len + 1) - 1) // (q - 1)
    if total > cap:
        raise CapExceeded(
            f"{total} words of length <= {max_len} over {q} letters exceeds the cap of {cap}"
        )
    return total


def enumerate_words(
    alphabet_or_letters, length: int, cap: int = DEFAULT_WORD_CAP
) -> list[Word]:
    """All words of the given length in lexicographic order of letter indices.

    Accepts either an Alphabet (all its letters) or an explicit letter
    sequence.  Raises CapExceeded when the count would exceed ``cap``.
    """
    if isinstance(alphabet_or_letters, Alphabet):
        letters: Sequence[int] = list(alphabet_or_letters.letters())
    else:
        letters = sorted(alphabet_or_letters)
    count = len(letters) ** length
    if count > cap:
        raise CapExceeded(
            f"{len(letters)}^{length} = {count} words exceeds the cap of {cap}"
        )
    return [tuple(w) for w in itertools.product(letters, repeat=length)]


def enumerate_words_upto(
    alphabet_or_letters, max_len: int, cap: int = DEFAULT_WORD_CAP
) -> list[Word]:
    """All words of length 0..max_len, shortest first, lexicographic within
    a length."""
    if isinstance(alphabet_or_letters, Alphabet):
        letters: Sequence[int] = list(alphabet_or_letters.letters())
    else:
        letters = sorted(alphabet_or_letters)
    count_words_upto(len(letters), max_len, cap)
    out: list[Word] = []
    for j in range(max_len + 1):
        out.extend(tuple(w) for w in itertools.product(letters, repeat=j))
    return out


@dataclass(frozen=True)
class GrowthViolation:
    word: Word
    magnitude: float
    bound: float


def check_growth(
    s: SeriesSpec, g: GrowthClass, max_len: int, cap: int = DEFAULT_WORD_CAP
) -> list[GrowthViolation]:
    """Every word of length <= max_len whose coefficient magnitude exceeds
    the growth-class bound; an empty list certifies the bound on that range."""
    violations = []
    for w in enumerate_words_upto(s.alphabet, max_len, cap=cap):
        magnitude = abs(s.coefficient(w))
        limit = g.bound(len(w))
        if magnitude > limit:
            violations.append(GrowthViolation(w, magnitude, limit))
    return violations
