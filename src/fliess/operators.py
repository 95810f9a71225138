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

There is one evaluation mechanism per side: a graded recursion over word
layers, vectorized over time (_word_layers, _graded), in time blocks whose
layer arrays start with the carry row, so a layer of a block is a few numpy
calls.  Sums step with the layer below at the same step; integrals use the
panel rule under one Romberg driver (_romberg), whose grids are aligned to
the breakpoints and to every sample time: one sweep serves a trajectory,
gathering each sample's layer values by one index per layer and block.  Both
sides read every node, t = 0 included, as one plain numpy sum of the layer
contributions in layer order (_layer_sum), which errs by at most about
J eps sum_j |w_j . V_j|.  Representations enumerate no words and polynomials
only their support words, so algebra.WORD_CAP bounds callback series only.
Every Romberg sweep runs to one tolerance, _ROMBERG_TOL (see _romberg).
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    Alphabet,
    DomainError,
    Polynomial,
    SeriesSpec,
    count_words_upto,
    enumerate_words,
)
from .signals import ContinuousInput, DiscreteInput, QuadratureFailure


# ---------------------------------------------------------------------------
# the graded recursion over word layers
# ---------------------------------------------------------------------------

#: floats held by the widest array of one time block of the graded recursion
_BLOCK_FLOATS = 1 << 16

#: absolute tolerance of every Romberg sweep (see _romberg)
_ROMBERG_TOL = 1e-10


def _word_layers(c: SeriesSpec, J: int):
    """The series up to length J as ``(start, weights, action, width, words)``:
    V_0 = start, V_j grows row by row by ``action(rows)(j, V_{j-1})`` for a
    block of letter-weight rows, the value is sum_j weights[j] . V_j, ``width``
    (floats per row of the widest array) sizes the time blocks, and words[j]
    lists layer j's words in V_j's order (None for a representation).

    * Words: layer j is three arrays, each word's first letter, the index
      of its suffix w[1:] in layer j-1 and its coefficient; the action is
      rows[:, first] * V[:, parent].  A callback has all q**j words over its
      evaluation letters from enumerate_words (WORD_CAP bounds them); a
      polynomial only its support words of length <= J and their suffixes.  Weights
      skip SeriesSpec.coefficient's word check: these words are all valid.
    * Representations: V_0 = gamma, every weight is lam and the action is
      (sum_i A_i w_i) V over the evaluation letters.
    """
    if J < 0:
        raise DomainError(f"truncation order must be >= 0, got {J}")
    letters = c.evaluation_letters()
    rep = c.representation
    if rep is not None:
        mask = np.zeros(c.alphabet.size)
        mask[list(letters)] = 1.0

        def matrix_action(rows):
            B = rep.letter_sum(rows * mask)
            return lambda j, v: np.einsum("kab,kb->ka", B, v)

        return rep.gamma, [rep.lam] * (J + 1), matrix_action, rep.dim**2, None

    if c.polynomial is None:
        count_words_upto(len(letters), J)
        layers = [enumerate_words(letters, j) for j in range(J + 1)]
        weights = [np.fromiter(map(c.callback, layer), float, len(layer)) for layer in layers]
    else:
        kept = [w for w in c.polynomial.terms if len(w) <= J and set(w) <= set(letters)]
        found = [{()}] + [set() for _ in range(max(map(len, kept), default=0))]
        for w in kept:
            for k in range(len(w)):
                found[len(w) - k].add(w[k:])
        layers = [sorted(layer) for layer in found]
        weights = [np.array([c.polynomial.terms.get(w, 0.0) for w in layer]) for layer in layers]
    # each word's position in its layer; links[j] = (first letters, parents)
    index = {w: k for layer in layers for k, w in enumerate(layer)}
    links = [None] + [np.array([[w[0] for w in layer], [index[w[1:]] for w in layer]], dtype=int)
                      for layer in layers[1:]]

    def word_action(rows):
        return lambda j, v: rows[:, links[j][0]] * v[:, links[j][1]]

    return np.ones(1), weights, word_action, max(w.size for w in weights), layers


def _graded(layers, rows: np.ndarray, panel: bool):
    """Yield the layer values [V_0, ..., V_J] per time block of about
    _BLOCK_FLOATS floats in its widest array.  Row 0 of a block is node n0,
    the carry from the block before ([V_0, 0, ..., 0] at node 0), and row k
    is node n0 + k.  With v = V_{j-1} of the block, layer j is one
    cumulative sum over [V_j(n0); act(w, x)] by the stencil

    * sums, w = uhat(N): V_j(N) = V_j(N-1) + act(w, V_{j-1}(N)), x = v[1:];
    * panel rule, w = (h, u_1(mid) h, ..., u_m(mid) h) on a panel [a, b] of
      width h: V_j(b) = V_j(a) + act(w, (V_{j-1}(a) + V_{j-1}(b))/2), with
      x = 0.5 (v[:-1] + v[1:])."""
    start, weights, action, width, _ = layers
    block = max(1, _BLOCK_FLOATS // max(width, 1))
    carry = [start] + [np.zeros(w.size) for w in weights[1:]]
    v0 = np.repeat(start[None], min(block, len(rows)) + 1, axis=0)
    for n0 in range(0, max(len(rows), 1), block):
        chunk = rows[n0:n0 + block]
        act = action(chunk)
        vs = [v0[:len(chunk) + 1]]
        for j in range(1, len(weights)):
            v = vs[-1]
            steps = act(j, 0.5 * (v[:-1] + v[1:]) if panel else v[1:])
            vs.append(np.cumsum(np.concatenate((carry[j][None], steps)), axis=0))
        carry = [v[-1] for v in vs]
        yield vs


def _layer_sum(vs: list[np.ndarray], weights: list[np.ndarray]) -> np.ndarray:
    """sum_j vs[j] @ weights[j], one entry per row, added in layer order."""
    return functools.reduce(np.add, (v @ w for v, w in zip(vs, weights)))


# ---------------------------------------------------------------------------
# continuous side
# ---------------------------------------------------------------------------

def _romberg(layers, u: ContinuousInput, times: Optional[float | np.ndarray], tol: float,
             read, max_refinements: int = 12) -> np.ndarray:
    """``read`` of the layer values at each sample time (default T), by
    Romberg extrapolation of the panel rule in one sweep for all samples.
    Every level's grid is aligned to 0, to every breakpoint below the latest
    sample and to every sample time, with at least 8 panels, and runs the
    graded recursion once.  ``read`` is called once per level with the list
    ``ends``, where ``ends[j]`` has one row of layer j per sample, gathered
    by one index per layer in each block that holds samples, and returns one
    value or one row per sample.  The grid is halved until every entry of
    consecutive diagonals agrees to max(tol, 1e-14 |entry|) at every sample,
    else QuadratureFailure names the sample with the largest last change.  The rule is exact in u
    for piecewise-constant channels on such grids and has an even-power
    error expansion for smooth ones.
    """
    times = np.atleast_1d(np.asarray(u.T if times is None else times, dtype=float))
    outside = times[~((times >= 0.0) & (times <= u.T))]
    if outside.size:
        raise DomainError(f"evaluation time {outside[0]} outside [0, {u.T}]")
    edges = np.unique(np.concatenate(([0.0], [b for b in u.breakpoints() if b < times.max()],
                                      times)))
    base_splits = 1
    while 0 < (len(edges) - 1) * base_splits < 8:
        base_splits *= 2
    slot = np.searchsorted(edges, times)
    prev_row: list[np.ndarray] = []
    for level in range(max_refinements + 1):
        splits = base_splits << level
        # np.linspace(a, b, splits + 1)[:-1] per segment, in the same arithmetic
        panels = edges[:-1, None] + np.arange(splits) * (np.diff(edges) / splits)[:, None]
        nodes = np.append(panels.ravel(), edges[-1])
        widths = np.diff(nodes)
        mids = nodes[:-1] + 0.5 * widths
        rows = np.column_stack([widths, *(u.value(i, mids) * widths for i in range(1, u.m + 1))])
        at = slot * splits
        ends = [np.empty((len(times), w.size)) for w in layers[1]]
        n0 = 0
        for vs in _graded(layers, rows, panel=True):
            hit = np.flatnonzero((at >= n0) & (at < n0 + len(vs[0])))
            if hit.size:
                k = at[hit] - n0
                for end, v in zip(ends, vs):
                    end[hit] = v[k]
            n0 += len(vs[0]) - 1
        row = [np.asarray(read(ends), dtype=float)]
        for j, lower in enumerate(prev_row, start=1):
            row.append(row[j - 1] + (row[j - 1] - lower) / (4.0**j - 1.0))
        change = np.abs(row[-1] - prev_row[-1]) if prev_row else np.full(row[0].shape, np.inf)
        if np.all(change <= np.maximum(tol, 1e-14 * np.abs(row[-1]))):
            return row[-1]
        prev_row = row
    worst = np.max(change.reshape(len(times), -1), axis=1)
    raise QuadratureFailure(
        f"Romberg extrapolation at t={times[np.argmax(worst)]:g} did not reach tol={tol:g} "
        f"after {max_refinements} refinements (largest last change {float(np.max(worst))!r})"
    )


def iterated_integral(
    eta: Sequence[int],
    u: ContinuousInput,
    t: Optional[float] = None,
) -> float:
    """E_eta[u](t): fliess_truncated of the series with the one word eta."""
    c = SeriesSpec(Alphabet(u.m), polynomial=Polynomial.monomial(eta))
    return fliess_truncated(c, u, len(eta), t)


def chen_truncation(
    u: ContinuousInput,
    J: int,
    t: Optional[float] = None,
) -> Polynomial:
    """All iterated integrals E_eta[u](t) with |eta| <= J, packaged as a
    polynomial (word -> value).  The empty word always carries 1.

    The catenation identity ties these objects together: if w = u followed
    by v, then chen_truncation(w) equals
    chen_truncation(v).cat_product(chen_truncation(u)) up to order J —
    the later segment contributes the outer (prefix) letters.
    """
    layers = _word_layers(SeriesSpec(Alphabet(u.m), callback=lambda w: 1.0), J)
    values = _romberg(layers, u, t, _ROMBERG_TOL, lambda ends: np.concatenate(ends, axis=1))
    return Polynomial(dict(zip((w for layer in layers[4] for w in layer), values[0])))


def fliess_truncated(
    c: SeriesSpec,
    u: ContinuousInput,
    J: int,
    t: Optional[float | np.ndarray] = None,
) -> float | np.ndarray:
    """Truncated continuous-time series functional
    sum_{|eta| <= J} (c, eta) E_eta[u](t): a float at one time t (default
    T), or one value per time for a 1-d array t, from one Romberg sweep."""
    if c.alphabet.m != u.m:
        raise DomainError(f"series has m={c.alphabet.m} but input has m={u.m}")
    layers = _word_layers(c, J)
    values = _romberg(layers, u, t, _ROMBERG_TOL, lambda ends: _layer_sum(ends, layers[1]))
    return values if np.ndim(t) else float(values[0])


# ---------------------------------------------------------------------------
# discrete side
# ---------------------------------------------------------------------------

def iterated_sum(eta: Sequence[int], uhat: DiscreteInput, N: Optional[int] = None) -> float:
    """S_eta[uhat](N), the last entry of iterated_sum_trajectory."""
    return float(iterated_sum_trajectory(eta, uhat, N)[-1])


def iterated_sum_trajectory(
    eta: Sequence[int], uhat: DiscreteInput, N: Optional[int] = None
) -> np.ndarray:
    """S_eta[uhat](k) for k = 0..N as one array: dt_fliess_trajectory of
    the monomial eta, truncated at |eta|, on the first N steps of uhat."""
    c = SeriesSpec(Alphabet(uhat.m), polynomial=Polynomial.monomial(eta))
    return dt_fliess_trajectory(c, uhat if N is None else uhat.prefix(N), c.polynomial.degree())


def dt_fliess_trajectory(c: SeriesSpec, uhat: DiscreteInput, J: int) -> np.ndarray:
    """Truncated discrete-time series functional at every step:
    entry N is sum_{|eta| <= J} (c, eta) S_eta[uhat](N) for N = 0..L, the
    layer sum (_layer_sum) of the graded recursion with the sum stencil at
    every node; a block after the first skips its carry row, the node before
    it (see _word_layers, _graded)."""
    if c.alphabet.m != uhat.m:
        raise DomainError(f"series has m={c.alphabet.m} but input has m={uhat.m}")
    layers = _word_layers(c, J)
    return np.concatenate([_layer_sum(vs, layers[1])[k > 0:]
                           for k, vs in enumerate(_graded(layers, uhat.values, panel=False))])
