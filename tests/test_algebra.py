"""Words, polynomials, shuffle, shifts, and growth checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliess.algebra import (
    Alphabet,
    CapExceeded,
    DomainError,
    Growth,
    GrowthClass,
    LinearRepresentation,
    Polynomial,
    SeriesSpec,
    check_growth,
    enumerate_words,
    enumerate_words_upto,
)

from conftest import random_polynomial_series
from oracles import left_shift, shuffle, word_length_counts

words_m2 = st.lists(st.integers(0, 2), min_size=0, max_size=4).map(tuple)


# ---------------------------------------------------------------------------
# alphabets and enumeration
# ---------------------------------------------------------------------------

def test_alphabet_rejects_bad_letters():
    a = Alphabet(2)
    a.check_word((0, 1, 2))
    with pytest.raises(DomainError):
        a.check_word((0, 3))
    with pytest.raises(DomainError):
        a.check_word((-1,))
    with pytest.raises(DomainError):
        Alphabet(-1)
    # a word given as a one-shot iterable is read once, not as the empty word
    assert a.check_word(x for x in (1, 2)) == (1, 2)
    s = SeriesSpec(a, polynomial=Polynomial({(1, 2): 3.0}))
    assert s.coefficient(x for x in (1, 2)) == 3.0


def test_enumerate_words_counts_and_order():
    ws = enumerate_words(Alphabet(1), 2)
    assert ws == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_words((0, 1, 2), 3)) == 3**3
    upto = enumerate_words_upto(Alphabet(1), 2)
    assert upto[0] == ()
    assert len(upto) == 1 + 2 + 4
    # lexicographic within each length, lengths ascending
    assert upto == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_words(Alphabet(2), 20, cap=1000)
    with pytest.raises(CapExceeded):
        enumerate_words_upto((0, 1, 2), 20, cap=1000)


def test_word_length_counts():
    assert word_length_counts((0, 1, 1, 2), 2) == [1, 2, 1]
    assert word_length_counts((), 1) == [0, 0]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_polynomial_basics():
    p = Polynomial.monomial((0, 1), 2.0)
    assert p.coefficient((0, 1)) == 2.0
    assert p.coefficient((1, 0)) == 0.0
    assert p.degree() == 2
    assert Polynomial.zero().degree() == -1
    assert Polynomial.one().coefficient(()) == 1.0
    assert p.scale(0.5).coefficient((0, 1)) == 1.0
    assert (0, 1) in p.support()


def test_cat_product_concatenates_monomials():
    a = Polynomial.monomial((0,), 3.0)
    b = Polynomial.monomial((1, 1), 2.0)
    ab = a.cat_product(b)
    assert ab.terms == {(0, 1, 1): 6.0}
    # truncation drops everything beyond max_len
    assert a.cat_product(b, max_len=2).terms == {}
    assert a.cat_product(Polynomial.one()).terms == a.terms


def test_cat_product_distributes():
    p = Polynomial({(): 1.0, (0,): 2.0})
    q = Polynomial({(1,): 1.0, (0, 1): -1.0})
    pq = p.cat_product(q)
    assert pq.coefficient((1,)) == 1.0
    assert pq.coefficient((0, 1)) == 2.0 - 1.0
    assert pq.coefficient((0, 0, 1)) == -2.0


# ---------------------------------------------------------------------------
# shuffle product
# ---------------------------------------------------------------------------

def test_shuffle_single_letters():
    assert shuffle((1,), (2,)).terms == {(1, 2): 1.0, (2, 1): 1.0}
    assert shuffle((1,), (1,)).terms == {(1, 1): 2.0}


def test_shuffle_empty_word_is_identity():
    w = (0, 1, 2)
    assert shuffle(w, ()).terms == {w: 1.0}
    assert shuffle((), ()).terms == {(): 1.0}


def test_shuffle_known_expansion():
    # x0 shuffled into x0x1 keeps the letters and interleaves positions
    p = shuffle((0,), (0, 1))
    assert p.terms == {(0, 0, 1): 2.0, (0, 1, 0): 1.0}


@settings(max_examples=80, deadline=None)
@given(words_m2, words_m2)
def test_shuffle_commutes_and_total_mass(w1, w2):
    p = shuffle(w1, w2)
    q = shuffle(w2, w1)
    assert p.terms == q.terms
    mass = sum(p.terms.values())
    assert mass == pytest.approx(math.comb(len(w1) + len(w2), len(w1)))
    # every product word uses exactly the combined letters
    combined = sorted(w1 + w2)
    for w in p.support():
        assert sorted(w) == combined


@settings(max_examples=25, deadline=None)
@given(words_m2, words_m2, words_m2)
def test_shuffle_associates(w1, w2, w3):
    acc = {}
    for w, cw in shuffle(w1, w2).terms.items():
        for v, cv in shuffle(w, w3).terms.items():
            acc[v] = acc.get(v, 0.0) + cw * cv
    acc2 = {}
    for w, cw in shuffle(w2, w3).terms.items():
        for v, cv in shuffle(w1, w).terms.items():
            acc2[v] = acc2.get(v, 0.0) + cw * cv
    assert acc.keys() == acc2.keys()
    for k in acc:
        assert acc[k] == pytest.approx(acc2[k])


# ---------------------------------------------------------------------------
# series sources and coefficient access
# ---------------------------------------------------------------------------

def test_series_spec_requires_exactly_one_source():
    a = Alphabet(1)
    p = Polynomial.one()
    with pytest.raises(DomainError):
        SeriesSpec(a)
    with pytest.raises(DomainError):
        SeriesSpec(a, polynomial=p, callback=lambda w: 0.0)


def test_series_support_letters_derived_from_polynomial():
    s = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1,): 1.0, (1, 1): 2.0}))
    assert s.support_letters == frozenset({1})
    assert s.evaluation_letters() == (1,)
    # callbacks cannot be introspected: evaluation ranges over everything
    c = SeriesSpec(Alphabet(2), callback=lambda w: 1.0)
    assert c.evaluation_letters() == (0, 1, 2)


def test_coefficient_from_representation_is_matrix_product():
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    A1 = np.array([[1.0, 0.0], [1.0, -1.0]])
    gamma = np.array([1.0, 2.0])
    lam = np.array([3.0, -1.0])
    rep = LinearRepresentation([A0, A1], gamma, lam)
    s = SeriesSpec(Alphabet(1), representation=rep)
    for w in enumerate_words_upto(Alphabet(1), 3):
        mat = np.eye(2)
        for letter in w:
            mat = mat @ (A0 if letter == 0 else A1)
        assert s.coefficient(w) == pytest.approx(lam @ mat @ gamma)


def test_coefficient_checks_letters():
    s = SeriesSpec(Alphabet(1), polynomial=Polynomial.one())
    with pytest.raises(DomainError):
        s.coefficient((2,))


# ---------------------------------------------------------------------------
# left shift
# ---------------------------------------------------------------------------

def test_left_shift_polynomial():
    c = SeriesSpec(Alphabet(1), polynomial=Polynomial({(0, 1): 2.0, (1,): 5.0}))
    shifted = left_shift((0,), c)
    assert shifted.coefficient((1,)) == 2.0
    assert shifted.coefficient(()) == 0.0
    assert left_shift((1,), c).coefficient(()) == 5.0


@pytest.mark.parametrize("source", ["polynomial", "callback", "representation"])
def test_left_shift_coefficient_identity(source, rng):
    """coefficient(x_w^{-1}(c), eta) == coefficient(c, w + eta), exhaustively
    over short words, for every series source."""
    if source == "polynomial":
        c = random_polynomial_series(rng, m=1, max_len=4, n_terms=10)
    elif source == "callback":
        c = SeriesSpec(
            Alphabet(1),
            callback=lambda w: float(len(w) + sum(w) * 0.25),
        )
    else:
        mats = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(2)]
        rep = LinearRepresentation(mats, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        c = SeriesSpec(Alphabet(1), representation=rep)
    for prefix in enumerate_words_upto(Alphabet(1), 2):
        shifted = left_shift(prefix, c)
        for eta in enumerate_words_upto(Alphabet(1), 3):
            assert shifted.coefficient(eta) == pytest.approx(
                c.coefficient(prefix + eta), abs=1e-12
            )


def test_left_shift_composes():
    c = SeriesSpec(Alphabet(1), callback=lambda w: float(hash(w) % 97))
    via_word = left_shift((0, 1), c)
    via_steps = left_shift((1,), left_shift((0,), c))
    for eta in enumerate_words_upto(Alphabet(1), 3):
        assert via_word.coefficient(eta) == via_steps.coefficient(eta)


def test_left_shift_drops_growth_metadata():
    c = SeriesSpec(
        Alphabet(1),
        polynomial=Polynomial.one(),
        growth=GrowthClass(Growth.LC, 1.0, 1.0),
    )
    assert left_shift((0,), c).growth is None


# ---------------------------------------------------------------------------
# growth checking
# ---------------------------------------------------------------------------

def test_check_growth_accepts_factorial_coefficients():
    c = SeriesSpec(Alphabet(1), callback=lambda w: float(math.factorial(len(w))))
    g = GrowthClass(Growth.LC, 1.0, 1.0)
    assert check_growth(c, g, max_len=5) == []


def test_check_growth_reports_violations():
    c = SeriesSpec(Alphabet(0), callback=lambda w: 3.0 ** len(w))
    g = GrowthClass(Growth.GC, 1.0, 2.0)
    violations = check_growth(c, g, max_len=4)
    assert violations, "3^j must eventually beat 2^j"
    v = violations[0]
    assert abs(v.magnitude) > v.bound
    assert v.word == (0,)
    assert check_growth(c, GrowthClass(Growth.GC, 1.0, 3.0), max_len=6) == []


@pytest.mark.parametrize("K, M", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -2.0)])
def test_growth_class_rejects_nonpositive_and_nonfinite_constants(K, M):
    with pytest.raises(DomainError, match="K" if K != 1.0 else "M"):
        GrowthClass(Growth.GC, K, M)


def test_growth_bound_values():
    lc = GrowthClass(Growth.LC, 2.0, 3.0)
    assert lc.bound(3) == 2.0 * 27.0 * 6.0
    gc = GrowthClass(Growth.GC, 2.0, 3.0)
    assert gc.bound(3) == 2.0 * 27.0
