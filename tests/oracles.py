"""Per-word closed forms, lemma-level helpers and identity residuals that
the tests check the library against.  None of them is on a production path:

* iterated_integral_pc — E_eta[u](t) in closed form for piecewise-constant
  inputs;
* iterated_sum_partition — S_eta[uhat](N) by enumerating index assignments;
* iterated_sum_cumsum — S_eta[uhat](k) for k = 0..N by one cumulative sum
  per letter, innermost first: the loop that iterated_sum_trajectory's
  graded recursion replaces;
* one_step_identity_check — the residual of the one-step shift identity
  that ties the discrete functional to its left-shifted series;
* word_length_counts, shuffle and left_shift — letter counts, the shuffle
  product of two words, and the left-shifted series (a representation folds
  the prefix matrices into its output row);
* seta_bound, eeta_bound and single_integral_error_bound — the per-word
  bounds on |S_eta|, |E_eta| and their difference;
* lc_simplified and gc_simplified — the large-J closed forms that the
  e_hat formulas of lc_bounds and gc_bounds tend to;
* scalar_channel and discretize_per_step — each channel kind's increment and
  absolute-value integrals over one interval per call, and the exact
  discretization built from them one step at a time: the scalar loops that
  the channels' array methods replace;
* emit_trajectory_per_row — the trajectory CSV rows merged as a sorted list
  of (time, step) pairs and formatted one cell at a time: the loop that
  emit_trajectory's whole-column route replaces.
"""

import bisect
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from fliess.algebra import (
    DEFAULT_WORD_CAP,
    Alphabet,
    CapExceeded,
    DomainError,
    LinearRepresentation,
    Polynomial,
    SeriesSpec,
    Word,
)
from fliess.bounds import BoundInputs, Divergent
from fliess.harness import ExperimentConfig, _continuous_output, format_float
from fliess.operators import dt_fliess_trajectory
from fliess.realization import StateAffineSystem, simulate_forward
from fliess.signals import (
    CatenatedChannel,
    Channel,
    ConstantChannel,
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
    SampledChannel,
    SinusoidChannel,
    discretize,
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
    t = u.T if t is None else t
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


def iterated_sum_cumsum(
    eta: Sequence[int], uhat: DiscreteInput, N: Optional[int] = None
) -> np.ndarray:
    """S_eta[uhat](k) for k = 0..N as one array, one cumulative sum per
    letter of eta (innermost letter first)."""
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


def one_step_identity_check(
    c: SeriesSpec, uhat: DiscreteInput, N: int, J: int
) -> float:
    """Residual of the one-step shift identity at matched truncations:

        F^J(N+1) = F^J(N) + sum_{j=0}^m uhat_j(N+1) G_j^{J-1}(N+1),

    where G_j is the functional of the left-shifted series x_j^{-1}(c).
    With the shifted side truncated at J-1 the identity is exact, so the
    returned |LHS - RHS| is pure floating-point noise (<= 1e-10 in tests).
    """
    if not 0 <= N < uhat.L:
        raise DomainError(f"need 0 <= N < L = {uhat.L} to take one step, got {N}")
    if J < 0:
        raise DomainError(f"truncation order must be >= 0, got {J}")
    traj = dt_fliess_trajectory(c, uhat.prefix(N + 1), J)
    lhs, rhs = traj[N + 1], traj[N]
    if J >= 1:
        for j in range(uhat.m + 1):
            uj = float(uhat.values[N, j])
            if uj != 0.0:
                shifted = left_shift((j,), c)
                rhs += uj * dt_fliess_trajectory(shifted, uhat.prefix(N + 1), J - 1)[-1]
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# series algebra and per-word bounds
# ---------------------------------------------------------------------------

def word_length_counts(w: Word, m: int) -> list[int]:
    """Number of occurrences of each letter 0..m in ``w``."""
    counts = [0] * (m + 1)
    for letter in w:
        counts[letter] += 1
    return counts


def shuffle(w1: Word, w2: Word) -> Polynomial:
    """Shuffle product of two words as a polynomial with integer coefficients.

    Defined inductively by
    (x_i a) sh (x_j b) = x_i (a sh (x_j b)) + x_j ((x_i a) sh b),
    with the empty word as unit.  The total coefficient mass is
    binomial(|w1| + |w2|, |w1|).
    """
    w1, w2 = tuple(w1), tuple(w2)
    memo: dict[tuple[Word, Word], dict[Word, float]] = {}

    def rec(a: Word, b: Word) -> dict[Word, float]:
        if not a:
            return {b: 1.0}
        if not b:
            return {a: 1.0}
        key = (a, b)
        if key in memo:
            return memo[key]
        out: dict[Word, float] = {}
        for w, coeff in rec(a[1:], b).items():
            head = (a[0],) + w
            out[head] = out.get(head, 0.0) + coeff
        for w, coeff in rec(a, b[1:]).items():
            head = (b[0],) + w
            out[head] = out.get(head, 0.0) + coeff
        memo[key] = out
        return out

    return Polynomial(rec(w1, w2))


def left_shift(prefix: Word, s: SeriesSpec) -> SeriesSpec:
    """The series eta -> (c, prefix . eta) obtained by removing ``prefix``
    from the front of every word.

    For a polynomial source the surviving terms are re-keyed; for a
    representation the prefix matrices are folded into the output row
    (coefficient(x_j eta) = (lam A_j) mu(eta) gamma); for a callback the
    prefix is prepended before each query.  A declared growth class does not
    transfer verbatim, so the shifted series carries none.
    """
    prefix = s.alphabet.check_word(prefix)
    if not prefix:
        return s
    if s.polynomial is not None:
        k = len(prefix)
        shifted = {w[k:]: coeff for w, coeff in s.polynomial.terms.items()
                   if w[:k] == prefix}
        return SeriesSpec(s.alphabet, polynomial=Polynomial(shifted))
    if s.representation is not None:
        rep = s.representation
        row = rep.lam
        for letter in prefix:
            row = row @ rep.matrices[letter]
        return SeriesSpec(
            s.alphabet,
            representation=LinearRepresentation(rep.matrices, rep.gamma, row),
            support_letters=s.support_letters,
        )
    inner = s.callback
    return SeriesSpec(
        s.alphabet,
        callback=lambda w, _p=prefix, _f=inner: _f(_p + tuple(w)),
        support_letters=s.support_letters,
    )


def single_integral_error_bound(word_len: int, T: float, L: int, norm_u: float) -> float:
    """Asymptotic bound (T^j / L) * norm_u^j / (2 (j-2)!) on the difference
    between one iterated sum S_eta(L) and its iterated integral E_eta(T),
    where norm_u is the sup of |uhat/Delta| over steps and channels.

    Vacuous for words shorter than 2 (with exact increments the two sides
    coincide for j <= 1), hence DomainError there.  Halves when L doubles.
    """
    if word_len < 2:
        raise DomainError(f"single-integral bound needs |eta| >= 2, got {word_len}")
    if L < 1:
        raise DomainError(f"need L >= 1, got {L}")
    return (T**word_len / L) * norm_u**word_len / (2.0 * math.factorial(word_len - 2))


def seta_bound(word_len: int, N: int, R_hat: float) -> float:
    """|S_eta(N)| <= R_hat^|eta| * binomial(N-1+|eta|, |eta|) — one term per
    non-increasing index assignment, each at most R_hat^|eta|.  Achieved with
    equality by uhat identically R_hat."""
    if word_len < 0 or N < 0:
        raise DomainError("word length and step count must be nonnegative")
    return R_hat**word_len * math.comb(N - 1 + word_len, word_len)


def eeta_bound(eta: Word, channel_l1: Sequence[float]) -> float:
    """|E_eta(T)| <= prod_i U_i^{n_i} / n_i! where n_i counts letter i in eta
    and U_i is the L1 norm of channel i over [0, T] (U_0 = T).  Achieved with
    equality by constant-sign inputs."""
    for U in channel_l1:
        if U < 0:
            raise DomainError("channel L1 norms must be nonnegative")
    m = len(channel_l1) - 1
    for letter in eta:
        if not 0 <= letter <= m:
            raise DomainError(f"letter {letter} has no L1 norm among U_0..U_{m}")
    counts = word_length_counts(tuple(eta), m)
    out = 1.0
    for U, n in zip(channel_l1, counts):
        out *= U**n / math.factorial(n)
    return out


def lc_simplified(b: BoundInputs) -> float:
    """Large-L, large-J simplification K shat^2 / (L (1-shat)^3); the limit of
    the statement-mode e_hat as J grows."""
    shat = b.s_hat
    if shat >= 1.0:
        raise Divergent("s_hat", shat)
    return b.K * shat**2 / (b.L * (1.0 - shat) ** 3)


def gc_simplified(b: BoundInputs) -> float:
    """Large-J simplification (K/2L) e^{shat} shat^2 (Q -> 1)."""
    return (b.K / (2.0 * b.L)) * math.exp(b.s_hat) * b.s_hat**2


# ---------------------------------------------------------------------------
# channel integrals one interval at a time
# ---------------------------------------------------------------------------

class _ScalarConstant:
    def __init__(self, ch: ConstantChannel):
        self.level = ch.level

    def increment(self, a, b):
        return self.level * (b - a)

    def abs_increment(self, a, b):
        return abs(self.level) * (b - a)


class _ScalarSinusoid:
    def __init__(self, ch: SinusoidChannel):
        self.amplitude, self.omega, self.phase = ch.amplitude, ch.omega, ch.phase

    def increment(self, a, b):
        if self.omega == 0.0:
            return self.amplitude * math.sin(self.phase) * (b - a)
        w, p = self.omega, self.phase
        return self.amplitude / w * (math.cos(w * a + p) - math.cos(w * b + p))

    def abs_increment(self, a, b):
        if self.omega == 0.0:
            return abs(self.amplitude * math.sin(self.phase)) * (b - a)
        # integrate |sin| piece by piece between its zeros (w t + p = k pi)
        w, p = abs(self.omega), self.phase if self.omega > 0 else -self.phase
        total = 0.0
        lo = a
        k = math.ceil((w * a + p) / math.pi)
        while True:
            zero = (k * math.pi - p) / w
            hi = min(zero, b)
            if hi > lo:
                # sign of sin on (lo, hi) is the sign at the midpoint
                mid = 0.5 * (lo + hi)
                sign = 1.0 if math.sin(w * mid + p) >= 0 else -1.0
                total += sign / w * (math.cos(w * lo + p) - math.cos(w * hi + p))
                lo = hi
            if zero >= b:
                break
            k += 1
        return abs(self.amplitude) * total


class _ScalarPiecewiseConstant:
    def __init__(self, ch: PiecewiseConstantChannel):
        self.breaks, self.values = ch.breaks, ch.values

    def _piece_integral(self, a, b, magnitude=False):
        total = 0.0
        edges = [a] + [t for t in self.breaks if a < t < b] + [b]
        for lo, hi in zip(edges[:-1], edges[1:]):
            v = self.values[bisect.bisect_right(self.breaks, lo)]
            total += (abs(v) if magnitude else v) * (hi - lo)
        return total

    def increment(self, a, b):
        return self._piece_integral(a, b)

    def abs_increment(self, a, b):
        return self._piece_integral(a, b, magnitude=True)


class _ScalarSampled:
    def __init__(self, ch: SampledChannel):
        self.times, self.samples = ch.times, ch.samples

    def value(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.samples)

    def _edges(self, a, b):
        interior = self.times[(self.times > a) & (self.times < b)]
        return [a, *interior.tolist(), b]

    def increment(self, a, b):
        # the interpolant is linear on every piece, so trapezoid is exact
        total = 0.0
        edges = self._edges(a, b)
        for lo, hi in zip(edges[:-1], edges[1:]):
            f_lo = float(self.value(lo))
            f_hi = float(self.value(hi))
            total += 0.5 * (f_lo + f_hi) * (hi - lo)
        return total

    def abs_increment(self, a, b):
        total = 0.0
        edges = self._edges(a, b)
        for lo, hi in zip(edges[:-1], edges[1:]):
            f_lo = float(self.value(lo))
            f_hi = float(self.value(hi))
            if f_lo * f_hi < 0:
                root = lo + f_lo / (f_lo - f_hi) * (hi - lo)
                total += 0.5 * abs(f_lo) * (root - lo) + 0.5 * abs(f_hi) * (hi - root)
            else:
                total += 0.5 * (abs(f_lo) + abs(f_hi)) * (hi - lo)
        return total


class _ScalarCatenated:
    def __init__(self, ch: CatenatedChannel):
        self.first, self.second = scalar_channel(ch.first), scalar_channel(ch.second)
        self.tau = ch.tau

    def increment(self, a, b):
        total = 0.0
        if a < self.tau:
            total += self.first.increment(a, min(b, self.tau))
        if b > self.tau:
            total += self.second.increment(max(a - self.tau, 0.0), b - self.tau)
        return total

    def abs_increment(self, a, b):
        total = 0.0
        if a < self.tau:
            total += self.first.abs_increment(a, min(b, self.tau))
        if b > self.tau:
            total += self.second.abs_increment(max(a - self.tau, 0.0), b - self.tau)
        return total


_SCALAR = {
    ConstantChannel: _ScalarConstant,
    SinusoidChannel: _ScalarSinusoid,
    PiecewiseConstantChannel: _ScalarPiecewiseConstant,
    SampledChannel: _ScalarSampled,
    CatenatedChannel: _ScalarCatenated,
}


def scalar_channel(ch: Channel):
    """The channel with ``increment(a, b)`` and ``abs_increment(a, b)`` for
    one interval per call, each written as its own loop over the pieces."""
    return _SCALAR[type(ch)](ch)


def discretize_per_step(u: ContinuousInput, L: int) -> np.ndarray:
    """The values of ``discretize(u, L, rule="exact")``, one scalar increment
    call per step and channel."""
    values = np.empty((L, u.m + 1), dtype=float)
    values[:, 0] = u.T / L
    edges = np.linspace(0.0, u.T, L + 1)
    for i in range(1, u.m + 1):
        ch = scalar_channel(u.channel(i))
        values[:, i] = [ch.increment(edges[N], edges[N + 1]) for N in range(L)]
    return values


def emit_trajectory_per_row(cfg: ExperimentConfig, resolution: int) -> list[list[str]]:
    """The rows of ``emit_trajectory(cfg, resolution)``: the step times and
    every uniform sample farther than 1e-12 T from its nearest step time,
    merged by one sort of (time, step) pairs, then one row and one
    format_float call per cell at a time."""
    uhat = discretize(cfg.input, cfg.L, rule=cfg.increments)
    y_hat = dt_fliess_trajectory(cfg.series, uhat, cfg.J)
    realization = None
    if cfg.include_realization:
        realization = simulate_forward(StateAffineSystem(cfg.series.representation), uhat).outputs

    T, L = cfg.input.T, cfg.L
    merged: list[tuple[float, Optional[int]]] = [(n * T / L, n) for n in range(L + 1)]
    for k in range(resolution):
        t = k * T / (resolution - 1)
        if abs(t - merged[round(t * L / T)][0]) > 1e-12 * T:
            merged.append((t, None))
    merged.sort(key=lambda item: item[0])

    curve, _, _ = _continuous_output(cfg, np.array([t for t, _ in merged]))
    header = ["t", "y", "N", "y_hat"]
    if realization is not None:
        header.append("y_realization")
    rows = [header]
    for (t, node), y_val in zip(merged, curve):
        row = [format_float(t), format_float(y_val)]
        if node is None:
            row += ["", ""]
            if realization is not None:
                row.append("")
        else:
            row += [str(node), format_float(y_hat[node])]
            if realization is not None:
                row.append(format_float(realization[node]))
        rows.append(row)
    return rows
