"""Iterated integrals of continuous inputs, iterated sums of increment
sequences, and truncated series functionals built from them.

Conventions used throughout:

* a word ``eta = (i1, i2, ..., ik)`` has its first letter outermost, i.e.

      E_eta[u](t) = integral_0^t u_{i1}(tau) * E_{eta[1:]}[u](tau) dtau,

  with E of the empty word identically 1 and u_0 identically 1;

* the discrete counterpart runs over an increment sequence uhat,

      S_eta[uhat](N) = sum_{k=1}^{N} uhat_{i1}(k) * S_{eta[1:]}[uhat](k),

  with S of the empty word identically 1 (so S(0) is 1 for the empty word
  and 0 for every other word).

Two independent routes exist for each side and are kept deliberately
separate: iterated integrals come either from an adaptive Romberg scheme
(any channel kind) or from an exact piecewise recursion (piecewise-constant
channels only), and iterated sums come either from the cumulative recursion
above or from an explicit enumeration of non-increasing index assignments.
Tests compare the routes against each other; production code may pick
whichever fits.

Truncated evaluations (fliess_truncated, dt_fliess_truncated) return plain
floats.  dt_fliess_trajectory evaluates a linear representation through its
state recursion without enumerating words, so ``cap`` applies to polynomial
and callback series only.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_WORD_CAP,
    Alphabet,
    CapExceeded,
    DomainError,
    Polynomial,
    SeriesSpec,
    Word,
    count_words_upto,
    enumerate_words,
    enumerate_words_upto,
)
from .signals import (
    CatenatedChannel,
    Channel,
    ConstantChannel,
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
    QuadratureFailure,
)


# ---------------------------------------------------------------------------
# continuous side
# ---------------------------------------------------------------------------

def _refined_grid(edges: Sequence[float], splits: int) -> np.ndarray:
    """Each panel of ``edges`` split into ``splits`` equal parts."""
    parts = [np.linspace(a, b, splits + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate([*parts, [edges[-1]]])


def _cumulative_levels(eta: Word, u: ContinuousInput, nodes: np.ndarray) -> float:
    """One grid evaluation of E_eta[u] at nodes[-1].

    Levels are built innermost-first.  Each panel contributes
    u(midpoint) * (g_a + g_b)/2 * width, which is exact in u for
    piecewise-constant channels on breakpoint-aligned grids and has a clean
    even-power error expansion for smooth channels, so Romberg extrapolation
    applies in both cases.
    """
    widths = np.diff(nodes)
    mids = nodes[:-1] + 0.5 * widths
    g = np.ones_like(nodes)
    for letter in reversed(eta):
        if letter == 0:
            uvals = 1.0
        else:
            uvals = np.asarray(u.value(letter, mids), dtype=float)
        panels = uvals * (0.5 * (g[:-1] + g[1:])) * widths
        g = np.concatenate(([0.0], np.cumsum(panels)))
    return float(g[-1])


def iterated_integral(
    eta: Sequence[int],
    u: ContinuousInput,
    t: Optional[float] = None,
    tol: float = 1e-10,
    max_refinements: int = 12,
) -> float:
    """E_eta[u](t) by Romberg extrapolation of the cumulative panel rule.

    The base grid is aligned to every channel breakpoint in (0, t) and then
    refined by halving all panels until consecutive Romberg diagonal entries
    agree to ``tol``.  Raises QuadratureFailure if the budget runs out.
    """
    eta = Alphabet(u.m).check_word(eta)
    if t is None:
        t = u.T
    if not 0.0 <= t <= u.T:
        raise DomainError(f"evaluation time {t} outside [0, {u.T}]")
    if not eta:
        return 1.0
    if t == 0.0:
        return 0.0

    edges = [0.0, *(b for b in u.breakpoints() if b < t), t]
    # start fine enough that the extrapolation table has something to work with
    base_splits = 1
    while (len(edges) - 1) * base_splits < 8:
        base_splits *= 2

    prev_row: list[float] = []
    for level in range(max_refinements + 1):
        nodes = _refined_grid(edges, base_splits * (1 << level))
        row = [_cumulative_levels(eta, u, nodes)]
        for j, lower in enumerate(prev_row, start=1):
            row.append(row[j - 1] + (row[j - 1] - lower) / (4.0**j - 1.0))
        if prev_row and abs(row[-1] - prev_row[-1]) <= max(tol, 1e-14 * abs(row[-1])):
            return row[-1]
        prev_row = row
    raise QuadratureFailure(
        f"E_{eta}[u]({t:g}) did not reach tol={tol:g} after "
        f"{max_refinements} refinements (last diagonal {prev_row[-1]!r})"
    )


def _piecewise_constant(ch: Channel) -> bool:
    if isinstance(ch, CatenatedChannel):
        return _piecewise_constant(ch.first) and _piecewise_constant(ch.second)
    return isinstance(ch, (ConstantChannel, PiecewiseConstantChannel))


def iterated_integral_pc(
    eta: Sequence[int], u: ContinuousInput, t: Optional[float] = None
) -> float:
    """E_eta[u](t) for piecewise-constant inputs, exactly.

    On a piece of duration d where channel i holds the value w_i, the level
    structure integrates in closed form: a word alpha evaluated across the
    piece alone contributes (prod_i w_{alpha_i}) * d^{|alpha|} / |alpha|!.
    Crossing pieces left to right, the suffix values at each piece boundary
    update by summing over the split of each suffix into a part absorbed by
    the new piece and a shorter suffix from the old boundary.
    """
    eta = Alphabet(u.m).check_word(eta)
    if t is None:
        t = u.T
    if not 0.0 <= t <= u.T:
        raise DomainError(f"evaluation time {t} outside [0, {u.T}]")
    for i in range(1, u.m + 1):
        if not _piecewise_constant(u.channel(i)):
            raise DomainError(f"{u.channel(i)!r} is not piecewise constant")
    p = len(eta)
    if p == 0:
        return 1.0
    if t == 0.0:
        return 0.0

    edges = [0.0, *(b for b in u.breakpoints() if b < t), t]
    # suffix[k] = E_{eta[k:]}[u] at the current piece boundary
    suffix = [0.0] * p + [1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        d = hi - lo
        mid = 0.5 * (lo + hi)
        w = [1.0 if letter == 0 else float(u.value(letter, mid)) for letter in eta]
        new = [0.0] * (p + 1)
        new[p] = 1.0
        for k in range(p - 1, -1, -1):
            acc = suffix[k]  # the whole suffix carried over (empty absorbed part)
            prod = 1.0
            for l in range(k + 1, p + 1):
                prod *= w[l - 1] * d / (l - k)
                acc += prod * suffix[l]
            new[k] = acc
        suffix = new
    return suffix[0]


def _integrator(u: ContinuousInput, t: Optional[float], tol: float) -> Callable[[Word], float]:
    """E_w[u](t) as a function of the word: exact for piecewise-constant
    inputs, Romberg otherwise."""
    if all(_piecewise_constant(u.channel(i)) for i in range(1, u.m + 1)):
        return lambda w: iterated_integral_pc(w, u, t)
    return lambda w: iterated_integral(w, u, t, tol=tol)


def chen_truncation(
    u: ContinuousInput,
    J: int,
    t: Optional[float] = None,
    tol: float = 1e-10,
    cap: int = DEFAULT_WORD_CAP,
) -> Polynomial:
    """All iterated integrals E_eta[u](t) with |eta| <= J, packaged as a
    polynomial (word -> value).  The empty word always carries 1.

    The catenation identity ties these objects together: if w = u followed
    by v, then chen_truncation(w) equals
    chen_truncation(v).cat_product(chen_truncation(u)) up to order J —
    the later segment contributes the outer (prefix) letters.
    """
    if J < 0:
        raise DomainError(f"truncation order must be >= 0, got {J}")
    evaluate = _integrator(u, t, tol)
    return Polynomial({w: evaluate(w) for w in enumerate_words_upto(range(u.m + 1), J, cap=cap)})


def fliess_truncated(
    c: SeriesSpec,
    u: ContinuousInput,
    J: int,
    t: Optional[float] = None,
    tol: float = 1e-10,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """Truncated continuous-time series functional
    sum_{|eta| <= J} (c, eta) E_eta[u](t)."""
    if J < 0:
        raise DomainError(f"truncation order must be >= 0, got {J}")
    if c.alphabet.m != u.m:
        raise DomainError(f"series has m={c.alphabet.m} but input has m={u.m}")
    evaluate = _integrator(u, t, tol)
    total = 0.0
    for w in enumerate_words_upto(c.evaluation_letters(), J, cap=cap):
        coeff = c.coefficient(w)
        if coeff != 0.0:
            total += coeff * evaluate(w)
    return total


# ---------------------------------------------------------------------------
# discrete side
# ---------------------------------------------------------------------------

def iterated_sum(eta: Sequence[int], uhat: DiscreteInput, N: Optional[int] = None) -> float:
    """S_eta[uhat](N) by the cumulative recursion (innermost letter first)."""
    return float(iterated_sum_trajectory(eta, uhat, N)[-1])


def iterated_sum_trajectory(
    eta: Sequence[int], uhat: DiscreteInput, N: Optional[int] = None
) -> np.ndarray:
    """S_eta[uhat](k) for k = 0..N as one array."""
    eta = Alphabet(uhat.m).check_word(eta)
    if N is None:
        N = uhat.L
    if not 0 <= N <= uhat.L:
        raise DomainError(f"step count {N} outside 0..{uhat.L}")
    s = np.ones(N + 1)
    for letter in reversed(eta):
        incr = uhat.channel(letter)[:N]
        s = np.concatenate(([0.0], np.cumsum(incr * s[1:])))
    return s


def iterated_sum_partition(
    eta: Sequence[int],
    uhat: DiscreteInput,
    N: Optional[int] = None,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """S_eta[uhat](N) by direct enumeration: one product per non-increasing
    assignment N >= k_1 >= ... >= k_p >= 1 of steps to the letters of eta
    (outermost letter gets k_1).  There are binomial(N-1+p, p) assignments."""
    eta = Alphabet(uhat.m).check_word(eta)
    if N is None:
        N = uhat.L
    if not 0 <= N <= uhat.L:
        raise DomainError(f"step count {N} outside 0..{uhat.L}")
    p = len(eta)
    if p == 0:
        return 1.0
    if N == 0:
        return 0.0
    count = math.comb(N - 1 + p, p)
    if count > cap:
        raise CapExceeded(f"{count} index assignments exceeds cap {cap}")
    values = uhat.values
    total = 0.0
    for combo in itertools.combinations_with_replacement(range(1, N + 1), p):
        prod = 1.0
        for letter, k in zip(eta, reversed(combo)):
            prod *= values[k - 1, letter]
        total += prod
    return total


#: floats held by the widest array of one time block of the graded recursion
_BLOCK_FLOATS = 1 << 16


def _dt_layers(c: SeriesSpec, J: int, cap: int) -> list[np.ndarray]:
    """Per-length coefficient arrays over the series' evaluation letters,
    word-major in lexicographic order (so layer j has length q**j)."""
    letters = c.evaluation_letters()
    count_words_upto(len(letters), J, cap)
    return [np.array([c.coefficient(w) for w in enumerate_words(letters, j, cap=cap)],
                     dtype=float)
            for j in range(J + 1)]


def dt_fliess_trajectory(
    c: SeriesSpec, uhat: DiscreteInput, J: int, cap: int = DEFAULT_WORD_CAP
) -> np.ndarray:
    """Truncated discrete-time series functional at every step:
    entry N is sum_{|eta| <= J} (c, eta) S_eta[uhat](N) for N = 0..L.

    One graded recursion serves every series source: layer j advances by
    V_j(N) = V_j(N-1) + act(uhat(N), V_{j-1}(N)) and the output is
    sum_j w_j . V_j(N).  Steps go in blocks, each layer one cumulative sum
    over a block, sized so the widest array holds about _BLOCK_FLOATS floats.

    * Polynomial and callback series: V_j holds S_w for the q**j words of
      length j over the evaluation letters, V_0 = 1, act is uhat_letters (x) V
      and w_j are the word coefficients.  Only these enumerate words, so
      ``cap`` bounds only them.
    * Representations: V_j = sum_{|w|=j} A_w gamma S_w, V_0 = gamma, act is
      (sum_i A_i uhat_i) V over the evaluation letters, and w_j = lam.
    """
    if J < 0:
        raise DomainError(f"truncation order must be >= 0, got {J}")
    if c.alphabet.m != uhat.m:
        raise DomainError(f"series has m={c.alphabet.m} but input has m={uhat.m}")
    letters = list(c.evaluation_letters())
    rep = c.representation
    if rep is None:
        start, weights, width = np.ones(1), _dt_layers(c, J, cap), len(letters) ** J
    else:
        mask = np.zeros(uhat.m + 1)
        mask[letters] = 1.0
        start, weights, width = rep.gamma, [rep.lam] * (J + 1), rep.dim**2
    block = max(1, _BLOCK_FLOATS // max(width, 1))
    carry = [np.zeros_like(w) for w in weights]
    out = np.empty(uhat.L + 1)
    out[0] = weights[0] @ start
    for n0 in range(0, uhat.L, block):
        rows = uhat.values[n0:n0 + block]
        if rep is None:
            sel = rows[:, letters]
            act = lambda v: (sel[:, :, None] * v[:, None, :]).reshape(len(rows), -1)
        else:
            B = rep.letter_sum(rows * mask)
            act = lambda v: np.einsum("kab,kb->ka", B, v)
        v = np.broadcast_to(start, (len(rows), start.size))
        dots = [np.full(len(rows), out[0])]
        for j in range(1, J + 1):
            steps = act(v)
            steps[0] += carry[j]
            v = np.cumsum(steps, axis=0)
            carry[j] = v[-1]
            dots.append(v @ weights[j])
        out[n0 + 1:n0 + 1 + len(rows)] = [math.fsum(d) for d in np.column_stack(dots).tolist()]
    return out


def dt_fliess_truncated(
    c: SeriesSpec,
    uhat: DiscreteInput,
    J: int,
    N: Optional[int] = None,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """Truncated discrete-time series functional
    sum_{|eta| <= J} (c, eta) S_eta[uhat](N)."""
    N = uhat.L if N is None else N
    return float(dt_fliess_trajectory(c, uhat.prefix(N), J, cap=cap)[N])
