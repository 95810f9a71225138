"""Per-word closed forms and identity residuals that the tests check the
library's graded recursions against.  None of them is on a production path:

* iterated_integral_pc — E_eta[u](t) in closed form for piecewise-constant
  inputs;
* iterated_sum_partition — S_eta[uhat](N) by enumerating index assignments;
* iterated_sum_cumsum — S_eta[uhat](k) for k = 0..N by one cumulative sum
  per letter, innermost first: the loop that iterated_sum_trajectory's
  graded recursion replaces;
* one_step_identity_check — the residual of the one-step shift identity
  that ties the discrete functional to its left-shifted series;
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
    SeriesSpec,
    left_shift,
)
from fliess.harness import ExperimentConfig, _continuous_output, format_float
from fliess.operators import dt_fliess_trajectory, dt_fliess_truncated
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
                rhs += uj * dt_fliess_truncated(shifted, uhat.prefix(N + 1), J - 1)
    return abs(lhs - rhs)


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
