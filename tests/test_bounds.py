"""Truncation error bounds, per-word bounds, and regime advice.

Hand-derivable values are pinned exactly; scipy.special supplies an
independent route for the incomplete-gamma identities.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from fliess.algebra import (
    Alphabet,
    DomainError,
    Growth,
    GrowthClass,
    Polynomial,
    SeriesSpec,
)
import fliess.bounds as bounds
from fliess.bounds import (
    BoundInputs,
    Divergent,
    bound_inputs,
    dt_tail_bound,
    effective_alphabet,
    gamma_upper_regularized,
    gc_bounds,
    lc_bounds,
    regime_warnings,
)
from fliess.operators import iterated_sum
from fliess.signals import (
    ContinuousInput,
    SinusoidChannel,
    constant_input,
    discretize,
    l1_norm,
)

from conftest import random_pc_input
from oracles import (
    eeta_bound,
    gc_simplified,
    iterated_integral_pc,
    lc_simplified,
    seta_bound,
    single_integral_error_bound,
)

TABLE_CASE_LC = BoundInputs(K=1, M=1, m=0, L=50, J=10, norm_uhat=0.01, Rbar=0.5)
TABLE_CASE_GC = BoundInputs(K=1, M=1, m=0, L=50, J=10, norm_uhat=0.04, Rbar=2.0)


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def test_bound_inputs_scaling_parameters():
    assert TABLE_CASE_LC.s_hat == pytest.approx(0.5)
    assert TABLE_CASE_LC.s == pytest.approx(0.5)
    b = BoundInputs(K=2, M=3, m=1, L=10, J=4, norm_uhat=0.01, Rbar=0.1)
    assert b.s_hat == pytest.approx(3 * 2 * 10 * 0.01)
    assert b.s == pytest.approx(3 * 2 * 0.1)


@pytest.mark.parametrize(
    "bad",
    [dict(K=-1.0), dict(M=0.0), dict(L=0), dict(J=-1), dict(norm_uhat=-0.1), dict(m=-1)],
)
def test_bound_inputs_validation(bad):
    kw = dict(K=1.0, M=1.0, m=0, L=50, J=10, norm_uhat=0.01, Rbar=0.5)
    kw.update(bad)
    with pytest.raises(DomainError):
        BoundInputs(**kw)


# ---------------------------------------------------------------------------
# locally convergent bounds
# ---------------------------------------------------------------------------

def test_lc_statement_hand_value():
    r = lc_bounds(TABLE_CASE_LC)
    # K/L * [shat^2/(1-shat)^3 - 2J(J+1) shat^{J+1}/(1-shat)
    #        - J shat^{J+2}/(1-shat)^2 - shat^{J+2}/(1-shat)^3] at shat=1/2
    assert r.e_hat == pytest.approx(0.03546875, abs=1e-10)
    assert r.e_tail == pytest.approx(0.0009765625, abs=1e-14)
    assert r.mode == "lc/statement"
    assert r.s_hat == pytest.approx(0.5) and r.s == pytest.approx(0.5)


def test_negative_statement_certificate_warns():
    # the subtracted terms outweigh s_hat^2/(1-s_hat)^3 at small J and large s_hat
    b = BoundInputs(K=2, M=1, m=2, L=25, J=4, norm_uhat=0.01, Rbar=0.25)
    assert b.s_hat == pytest.approx(0.75)
    r = lc_bounds(b, "statement")
    assert r.e_hat == pytest.approx(-1.98)
    (warning,) = r.regime_warnings
    assert "e_hat = -1.98" in warning and "bound_mode: exact_sum" in warning
    exact = lc_bounds(b, "exact_sum")
    assert exact.e_hat > 0 and exact.regime_warnings == ()
    assert lc_bounds(TABLE_CASE_LC, "statement").regime_warnings == ()


def test_lc_exact_sum_hand_value():
    r = lc_bounds(TABLE_CASE_LC, "exact_sum")
    direct = sum(j * (j - 1) * 0.5**j for j in range(2, 11)) / (2 * 50)
    assert direct == pytest.approx(0.03869140625, abs=1e-12)
    assert r.e_hat == pytest.approx(direct, abs=1e-12)
    assert r.mode == "lc/exact_sum"
    # the tail column is mode-independent
    assert r.e_tail == lc_bounds(TABLE_CASE_LC).e_tail


def test_lc_tail_formula():
    # K s^{J+1}/(1-s)
    b = BoundInputs(K=2.0, M=1.0, m=0, L=10, J=3, norm_uhat=0.03, Rbar=0.4)
    assert lc_bounds(b).e_tail == pytest.approx(2.0 * 0.4**4 / 0.6, rel=1e-12)


def test_lc_divergence():
    with pytest.raises(Divergent) as exc:
        lc_bounds(BoundInputs(K=1, M=1, m=0, L=50, J=10, norm_uhat=0.02, Rbar=0.5))
    assert exc.value.parameter == "s_hat"
    assert exc.value.value == pytest.approx(1.0)
    with pytest.raises(Divergent) as exc:
        lc_bounds(BoundInputs(K=1, M=1, m=0, L=50, J=10, norm_uhat=0.01, Rbar=1.0))
    assert exc.value.parameter == "s"


def test_lc_unknown_mode():
    with pytest.raises(DomainError):
        lc_bounds(TABLE_CASE_LC, "closed_form")


def test_lc_simplified_dominates_statement():
    for shat in (0.1, 0.3, 0.5, 0.8):
        for J in (2, 5, 10, 40):
            b = BoundInputs(K=1, M=1, m=0, L=100, J=J, norm_uhat=shat / 100, Rbar=0.001)
            assert lc_simplified(b) >= lc_bounds(b).e_hat
    b = TABLE_CASE_LC
    assert lc_simplified(b) == pytest.approx(1 * 0.25 / (50 * 0.125), rel=1e-12)


def test_lc_e_hat_grows_with_kept_words():
    # exact_sum accumulates one nonnegative term per order, so it increases
    # in J and saturates at the closed-form limit
    prev = 0.0
    for J in range(2, 60, 3):
        b = BoundInputs(K=1, M=1, m=0, L=200, J=J, norm_uhat=0.004, Rbar=0.3)
        cur = lc_bounds(b, "exact_sum").e_hat
        assert prev <= cur <= lc_simplified(b) + 1e-15
        prev = cur
    # the statement form is an asymptotic rewrite of the same quantity:
    # both meet lc_simplified once the dropped remainder is negligible
    deep = BoundInputs(K=1, M=1, m=0, L=200, J=200, norm_uhat=0.004, Rbar=0.3)
    assert lc_bounds(deep).e_hat == pytest.approx(lc_simplified(deep), rel=1e-12)
    assert lc_bounds(deep, "exact_sum").e_hat == pytest.approx(
        lc_simplified(deep), rel=1e-12
    )


# ---------------------------------------------------------------------------
# incomplete gamma and globally convergent bounds
# ---------------------------------------------------------------------------

def test_gamma_upper_regularized_against_scipy():
    for order in range(1, 26):
        for x in (0.1, 0.5, 2.0, 7.3, 30.0):
            assert gamma_upper_regularized(order, x) == pytest.approx(
                special.gammaincc(order, x), rel=1e-12
            )


def test_gamma_upper_regularized_domain():
    with pytest.raises(DomainError):
        gamma_upper_regularized(0, 1.0)
    with pytest.raises(DomainError):
        gamma_upper_regularized(3, -0.5)


def test_gc_hand_value():
    r = gc_bounds(TABLE_CASE_GC)
    expected = (1 / 100) * math.exp(2.0) * 4.0 * special.gammaincc(11, 2.0)
    assert r.e_hat == pytest.approx(expected, rel=1e-10)
    assert r.e_hat == pytest.approx(0.29555979, abs=1e-7)
    # tail = K e^s P(J+1, s), the regularized lower gamma
    assert r.e_tail == pytest.approx(
        math.exp(2.0) * special.gammainc(11, 2.0), rel=1e-9
    )
    assert r.mode == "gc"


def test_gc_deep_tail_keeps_relative_accuracy():
    # J = 20 at s = 2: a 1e-14-scale value that a naive e^s (1 - Q) route
    # would destroy by cancellation
    b = BoundInputs(K=1, M=1, m=0, L=50, J=20, norm_uhat=0.04, Rbar=2.0)
    tail = gc_bounds(b).e_tail
    assert tail == pytest.approx(math.exp(2.0) * special.gammainc(21, 2.0), rel=1e-9)
    assert tail == pytest.approx(4.51329e-14, rel=1e-4)


def test_gc_never_divergent_in_s():
    # entire in s: large arguments stay finite
    b = BoundInputs(K=1, M=1, m=0, L=10, J=5, norm_uhat=3.0, Rbar=40.0)
    r = gc_bounds(b)
    assert math.isfinite(r.e_hat) and math.isfinite(r.e_tail)


@pytest.mark.parametrize("J, s", [(150, 500.0), (169, 300.0), (170, 300.0), (400, 300.0), (400, 10.0)])
def test_gc_tail_past_the_factorial_range(J, s):
    # (J+1)! or s^(J+1) overflows a double here; the tail itself does not
    b = BoundInputs(K=1, M=1, m=0, L=10 * J, J=J, norm_uhat=0.01, Rbar=s)
    tail = gc_bounds(b).e_tail
    expected = math.exp(s) * special.gammainc(J + 1, s)
    assert math.isfinite(tail)
    assert tail == pytest.approx(expected, rel=1e-9, abs=1e-300)


def test_exp_tail_against_scipy():
    # sum_{j>J} x^j/j! = e^x P(J+1, x).  Where the tail is below ~1e-290,
    # scipy underflows and the direct sum is as small.  Elsewhere the two
    # routes agree to 1e-12: scipy's own error reaches 2.3e-13 in the far
    # tail (J well above x), and the recurrence raises its sum by 4 k eps
    # after k steps, up to 8.3e-13 at x = 700 (k ~ 930), so that it never
    # falls below the exact tail.
    for x in np.linspace(0.0, 700.0, 29):
        for J in range(0, 401, 16):
            tail = bounds._exp_tail(float(x), J)
            expected = math.exp(x) * special.gammainc(J + 1, x)
            if expected < 1e-290:
                assert tail < 1e-280
            else:
                assert tail == pytest.approx(expected, rel=1e-12, abs=0.0)


def exact_tail_above(t: Fraction, start: int, ratio) -> Fraction:
    """At least, and within 1e-30 relative of, sum_{k >= start} t_k for
    t_k = t_{k-1} ratio(k) from t_0 = t, in exact arithmetic, for a ratio
    falling in k: the partial sum to a term t_n past the peak, plus
    t_n q / (1 - q) with q = ratio(n + 1) < 1, which bounds the rest."""
    for k in range(1, start + 1):
        t *= ratio(k)
    total, k = Fraction(0), start
    while True:
        total += t
        k += 1
        q = ratio(k)
        if q < 1 and t * q / (1 - q) <= total / 10**30:
            return total + t * q / (1 - q)
        t *= q


@pytest.mark.parametrize("x, J", [(700, 400), (500, 170), (150, 400)])
def test_exp_tail_is_at_least_the_exact_tail(x, J):
    # the GC truncation tail is a certificate: never below sum_{j>J} x^j/j!
    exact = exact_tail_above(Fraction(1), J + 1, lambda k: Fraction(x, k))
    tail = Fraction(bounds._exp_tail(float(x), J))
    assert exact <= tail <= exact * (1 + Fraction(1, 10**12))


def test_gc_simplified_dominates():
    assert gc_simplified(TABLE_CASE_GC) >= gc_bounds(TABLE_CASE_GC).e_hat
    # and coincides in the deep-truncation limit where Q -> 1
    b = BoundInputs(K=1, M=1, m=0, L=50, J=60, norm_uhat=0.04, Rbar=2.0)
    assert gc_simplified(b) == pytest.approx(gc_bounds(b).e_hat, rel=1e-10)


def test_gc_monotone_in_J():
    tails, hats = [], []
    for J in range(1, 30, 4):
        b = BoundInputs(K=1, M=1, m=0, L=50, J=J, norm_uhat=0.04, Rbar=2.0)
        r = gc_bounds(b)
        hats.append(r.e_hat)
        tails.append(r.e_tail)
    # more kept words -> larger accumulated step error, smaller dropped tail
    assert all(a <= b for a, b in zip(hats, hats[1:]))
    assert all(a >= b for a, b in zip(tails, tails[1:]))


# ---------------------------------------------------------------------------
# per-word bounds
# ---------------------------------------------------------------------------

def test_single_integral_bound_exact_for_drift_square():
    # |S_{x0x0}(L) - E_{x0x0}(T)| = T^2/(2L) exactly; the bound matches it
    T, L = 0.5, 64
    u = ContinuousInput([], T)
    uhat = discretize(u, L)
    measured = abs(iterated_sum((0, 0), uhat) - T * T / 2.0)
    bound = single_integral_error_bound(2, T, L, norm_u=1.0)
    assert measured == pytest.approx(T * T / (2 * L), rel=1e-12)
    assert bound == pytest.approx(measured, rel=1e-12)


def test_single_integral_bound_halves_with_L():
    b1 = single_integral_error_bound(3, 0.5, 100, norm_u=2.0)
    b2 = single_integral_error_bound(3, 0.5, 200, norm_u=2.0)
    assert b1 == pytest.approx(2 * b2, rel=1e-12)
    with pytest.raises(DomainError):
        single_integral_error_bound(1, 0.5, 100, norm_u=1.0)


def test_seta_bound_tight_for_drift_words():
    uhat = discretize(ContinuousInput([], 1.0), 10)
    d = uhat.delta
    for j in (1, 2, 4):
        for N in (1, 5, 10):
            val = iterated_sum((0,) * j, uhat, N)
            assert seta_bound(j, N, d) == pytest.approx(val, rel=1e-12)


def test_seta_bound_dominates_random_sums(rng):
    uhat = discretize(random_pc_input(rng, m=2, T=1.0, scale=3.0), 7)
    R = uhat.sup_norm()
    for eta in [(1,), (2, 1), (0, 2, 1), (1, 1, 2, 0)]:
        for N in range(0, 8):
            assert abs(iterated_sum(eta, uhat, N)) <= seta_bound(len(eta), N, R) + 1e-15


def test_eeta_bound_drift_and_positivity():
    T = 0.8
    u = constant_input(2.0, T)
    U = [T, l1_norm(u)]
    # equality for a nonnegative channel: E_{x1x1} = (2T)^2/2
    assert iterated_integral_pc((1, 1), u) == pytest.approx(
        eeta_bound((1, 1), U), rel=1e-12
    )
    # mixed word: U0^1 U1^2 / (1! 2!)
    assert eeta_bound((1, 0, 1), U) == pytest.approx(T * (2 * T) ** 2 / 2.0, rel=1e-12)


def test_eeta_bound_strict_for_sign_changing_input():
    u = ContinuousInput(
        [SinusoidChannel(1.0, 20.0)], 0.5
    )
    from fliess.operators import iterated_integral

    U = [u.T, l1_norm(u)]
    val = abs(iterated_integral((1, 1), u))
    assert val < eeta_bound((1, 1), U)


def test_eeta_bound_letter_validation():
    with pytest.raises(DomainError):
        eeta_bound((3,), [1.0, 1.0])


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_effective_alphabet():
    c = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1,): 1.0}))
    m_eff, letters = effective_alphabet(c)
    assert m_eff == 0 and letters == (1,)
    c_full = SeriesSpec(Alphabet(2), callback=lambda w: 1.0)
    m_eff, letters = effective_alphabet(c_full)
    assert m_eff == 2 and letters == (0, 1, 2)


def test_regime_check_warnings():
    c = SeriesSpec(
        Alphabet(1),
        polynomial=Polynomial({(1,): 1.0}),
        growth=GrowthClass(Growth.LC, 1, 1),
    )
    u = constant_input(4.0, 1.0)          # Rbar = 4 >= radius 1
    uhat = discretize(u, 10)
    b = bound_inputs(c, u, uhat, J=10)
    # outside the LC regime the bounds raise before any warning is printed
    with pytest.raises(Divergent, match="s_hat"):
        lc_bounds(b)
    with pytest.raises(Divergent, match="^s = 4 "):   # Rbar >= radius is s >= 1
        lc_bounds(BoundInputs(b.K, b.M, b.m, b.L, b.J, norm_uhat=0.0, Rbar=b.Rbar))
    msgs = regime_warnings(Growth.LC, b)
    assert any("L/J" in w for w in msgs)
    # well inside the regime: silent
    ok_u = constant_input(0.4, 0.5)
    assert regime_warnings(Growth.LC, bound_inputs(c, ok_u, discretize(ok_u, 100), J=10)) == []


def test_regime_check_gc_radius():
    c = SeriesSpec(
        Alphabet(1),
        polynomial=Polynomial({(1,): 1.0}),
        growth=GrowthClass(Growth.GC, 1, 1),
    )
    u = constant_input(30.0, 1.0)
    uhat = discretize(u, 10)   # increments of size 3 >= radius 1
    assert any("radius" in w for w in regime_warnings(Growth.GC, bound_inputs(c, u, uhat)))


# ---------------------------------------------------------------------------
# discrete tail bound
# ---------------------------------------------------------------------------

def test_dt_tail_bound_matches_direct_summation():
    g = GrowthClass(Growth.GC, 1.0, 1.0)
    for N, J, r in [(50, 20, 0.04), (100, 20, 0.02), (10, 3, 0.3)]:
        direct = math.fsum(
            r**j * math.comb(N - 1 + j, j) for j in range(J + 1, J + 400)
        )
        assert dt_tail_bound(g, 0, r, N, J) == pytest.approx(direct, rel=1e-10)


def test_dt_tail_bound_edge_cases():
    g = GrowthClass(Growth.GC, 2.0, 1.0)
    assert dt_tail_bound(g, 0, 0.0, 5, 3) == 0.0
    with pytest.raises(Divergent):
        dt_tail_bound(g, 0, 1.2, 5, 3)
    with pytest.raises(Divergent):
        dt_tail_bound(g, 1, 0.6, 5, 3)  # (m+1) pushes r to 1.2
    with pytest.raises(DomainError):
        dt_tail_bound(GrowthClass(Growth.LC, 1, 1), 0, 0.04, 5, 3)
    with pytest.raises(DomainError):
        dt_tail_bound(g, 0, -0.1, 5, 3)


GC_UNIT = GrowthClass(Growth.GC, 1.0, 1.0)


def test_dt_tail_bound_binomial_beyond_the_largest_double():
    # binomial(N-1+j, j) overflows a double at j = J + 1, but the tail is
    # ~1e-261: the recurrence reaches that term from t_0 = 1 without forming
    # the binomial, and its sum is off only by its upward 4 k eps margin
    N, J = 100_000, 100
    exact = float(sum(Fraction(math.comb(N - 1 + j, j), 10 ** (6 * j))
                      for j in range(J + 1, J + 40)))
    assert dt_tail_bound(GC_UNIT, 0, 1e-6, N, J) == pytest.approx(exact, rel=1e-9)


# the last case's terms before J + 1 pass 1e600; its tail is ~3e-238
@pytest.mark.parametrize("R_hat, N, J", [(3e-6, 200_000, 120), (2e-6, 150_000, 110),
                                         (0.5, 2000, 8000)])
def test_dt_tail_bound_is_at_least_the_exact_tail(R_hat, N, J):
    r = Fraction(R_hat)
    exact = exact_tail_above(Fraction(1), J + 1, lambda k: r * (N + k - 1) / k)
    bound = Fraction(dt_tail_bound(GC_UNIT, 0, R_hat, N, J))
    assert exact <= bound <= exact * (1 + Fraction(1, 10**11))


def test_dt_tail_bound_sum_beyond_the_largest_double_raises():
    # the terms stay finite, their sum does not (it was an OverflowError
    # from math.fsum)
    with pytest.raises(DomainError, match="dt_tail_bound: the sum exceeds the largest double"):
        dt_tail_bound(GC_UNIT, 0, 0.3, 2000, 5)


def test_dt_tail_bound_infinite_terms_raise():
    # the terms themselves overflow (this returned inf); the running sum
    # raises at the overflow, long before the term cap
    with pytest.raises(DomainError, match="dt_tail_bound: the sum exceeds the largest double"):
        dt_tail_bound(GC_UNIT, 0, 0.45, 5000, 5)


def test_certificate_series_term_cap_raises(monkeypatch):
    # r = 0.999 needs tens of thousands of terms to reach the stop rule
    monkeypatch.setattr(bounds, "_MAX_TERMS", 1000)
    with pytest.raises(DomainError, match="dt_tail_bound: the series has not converged"):
        dt_tail_bound(GC_UNIT, 0, 0.999, 1, 0)


def test_dt_tail_bound_monotone():
    g = GrowthClass(Growth.GC, 1.0, 1.0)
    byN = [dt_tail_bound(g, 0, 0.04, N, 20) for N in range(0, 51, 10)]
    assert all(a <= b for a, b in zip(byN, byN[1:]))
    byJ = [dt_tail_bound(g, 0, 0.04, 50, J) for J in range(5, 30, 5)]
    assert all(a >= b for a, b in zip(byJ, byJ[1:]))
