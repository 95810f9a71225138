"""Continuous-time input signals, their increment discretizations, catenation,
and the norms the error bounds are stated in.

A ContinuousInput bundles m controlled channels on a horizon [0, T]; channel 0
is implicit and identically 1 (the drift channel).  Discretization with L
steps produces the increment sequence uhat(N), N = 1..L, where

    uhat_i(N) = integral of u_i over [(N-1)*Delta, N*Delta],   Delta = T/L,

so uhat_0(N) = Delta always.  Every built-in channel kind integrates itself
and its absolute value in closed form, elementwise over arrays of interval
ends, so discretize makes one call per channel and the discretization error
stays at machine precision (far below the 1e-12 contract for tabulated
channels).  The constant, piecewise-constant and sampled kinds are piecewise
linear and share one integration routine.  An alternative per-step trapezoid
rule (Delta/2)(u((N-1)Delta) + u(N Delta)) is selectable; it is what
fixed-step simulation environments typically produce and is used by the
bundled regression tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import DomainError


class QuadratureFailure(Exception):
    """An adaptive integration loop exhausted its budget before converging."""


class Channel:
    """One controlled input channel on [0, duration].  Each method takes a
    scalar or an array of times (the integrals: of interval ends a <= b, of
    matching shapes or one of them scalar) and works elementwise."""

    def value(self, t):
        raise NotImplementedError

    def increment(self, a, b):
        """Exact integral of the channel over [a, b]."""
        raise NotImplementedError

    def abs_increment(self, a, b):
        """Exact integral of |channel| over [a, b]."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior times where the channel is not smooth."""
        return ()


class _PiecewiseLinearChannel(Channel):
    """Linear between knots and right-continuous at them: piece k holds on
    [knots[k-1], knots[k]) (piece 0 from -inf, the last piece to +inf) and
    equals start[k] + slope[k] (t - origin[k]) there; end[k] is its limit
    from the left at knots[k] (unused for the last piece)."""

    def __init__(self, knots, start, slope, origin, end):
        self._edges = np.array([-np.inf, *knots, np.inf])
        self._knots = self._edges[1:-1]
        self._start, self._slope, self._origin, self._end = np.array(
            [start, slope, origin, end], dtype=float)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if not self._knots.size:  # one constant piece
            return np.full_like(t, self._start[0])
        k = np.searchsorted(self._knots, t, side="right")
        return self._start[k] + self._slope[k] * (t - self._origin[k])

    def increment(self, a, b):
        return self._integrate(a, b, magnitude=False)

    def abs_increment(self, a, b):
        return self._integrate(a, b, magnitude=True)

    def _integrate(self, a, b, magnitude):
        if not self._knots.size:  # one constant piece
            return (abs(self._start[0]) if magnitude else self._start[0]) * (b - a)
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if a.size > 1 and a.size * self._edges.size > 2**20:  # halve to bound the work arrays
            h = a.size // 2
            return np.r_[self._integrate(a.flat[:h], b.flat[:h], magnitude),
                         self._integrate(a.flat[h:], b.flat[h:], magnitude)].reshape(a.shape)
        a, b = a[..., None], b[..., None]
        # along a new last axis, consecutive pieces covering [a, b], clipped into it
        first = np.searchsorted(self._knots, a, side="right")
        size = int((np.searchsorted(self._knots, b, side="right") - first).max(initial=0)) + 1
        k = np.minimum(first, self._knots.size + 1 - size) + np.arange(size)
        lo, hi = np.clip(self._edges[k], a, b), np.clip(self._edges[k + 1], a, b)
        start, slope, origin = self._start[k], self._slope[k], self._origin[k]
        f_lo = start + slope * (lo - origin)
        f_hi = np.where(hi == self._edges[k + 1], self._end[k], start + slope * (hi - origin))
        # the trapezoid rule is exact on a linear piece; |f| is split at its root
        if magnitude:
            area = 0.5 * (np.abs(f_lo) + np.abs(f_hi)) * (hi - lo)
            cross = f_lo * f_hi < 0
            fl, fh, t0, t1 = f_lo[cross], f_hi[cross], lo[cross], hi[cross]
            root = t0 + fl / (fl - fh) * (t1 - t0)
            area[cross] = 0.5 * np.abs(fl) * (root - t0) + 0.5 * np.abs(fh) * (t1 - root)
        else:
            area = 0.5 * (f_lo + f_hi) * (hi - lo)
        # a running total in time order, piece by piece
        return np.cumsum(area, axis=-1)[..., -1][()]


class ConstantChannel(_PiecewiseLinearChannel):
    def __init__(self, level: float):
        self.level = float(level)
        super().__init__((), (self.level,), (0.0,), (0.0,), (self.level,))

    def __repr__(self):
        return f"ConstantChannel({self.level:g})"


class SinusoidChannel(Channel):
    """amplitude * sin(omega * t + phase)."""

    def __init__(self, amplitude: float, omega: float, phase: float = 0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)

    def value(self, t):
        return self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float) + self.phase)

    def increment(self, a, b):
        if self.omega == 0.0:
            return self.amplitude * math.sin(self.phase) * (b - a)
        w, p = self.omega, self.phase
        return self.amplitude / w * (np.cos(w * a + p) - np.cos(w * b + p))

    def abs_increment(self, a, b):
        if self.omega == 0.0:
            return abs(self.amplitude * math.sin(self.phase)) * (b - a)
        # between consecutive zeros w t + p = k pi, |sin| integrates to 2/w per
        # whole half-period, and each end piece is differenced on its own: one
        # antiderivative differenced over [a, b] loses precision on short intervals
        w, p = abs(self.omega), self.phase if self.omega > 0 else -self.phase

        def piece(lo, hi):
            return 1.0 / w * np.abs(np.cos(w * lo + p) - np.cos(w * hi + p))
        first = np.ceil((w * a + p) / math.pi)   # first zero at or after a
        last = np.floor((w * b + p) / math.pi)   # last zero at or before b
        split = (piece(a, (first * math.pi - p) / w) + (last - first) * (2.0 / w)
                 + piece((last * math.pi - p) / w, b))
        return abs(self.amplitude) * np.where(last < first, piece(a, b), split)[()]

    def __repr__(self):
        return f"SinusoidChannel({self.amplitude:g}, omega={self.omega:g}, phase={self.phase:g})"


class PiecewiseConstantChannel(_PiecewiseLinearChannel):
    """Right-continuous step function: value ``values[k]`` holds on
    [breakpoints[k-1], breakpoints[k]), with values[0] before the first
    breakpoint and values[-1] after the last."""

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        breaks = [float(t) for t in breakpoints]
        if sorted(breaks) != breaks or len(set(breaks)) != len(breaks):
            raise DomainError("piecewise-constant breakpoints must be strictly increasing")
        if len(values) != len(breaks) + 1:
            raise DomainError(
                f"need {len(breaks) + 1} values for {len(breaks)} breakpoints, got {len(values)}"
            )
        self.breaks = tuple(breaks)
        self.values = tuple(float(v) for v in values)
        super().__init__(self.breaks, self.values, *np.zeros((2, len(values))), self.values)

    def breakpoints(self):
        return self.breaks

    def __repr__(self):
        return f"PiecewiseConstantChannel({len(self.values)} pieces)"


class SampledChannel(_PiecewiseLinearChannel):
    """Linear interpolation through (time, value) samples, held constant
    outside the sampled range."""

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 1:
            raise DomainError("sampled channel needs matching 1-d time and value arrays")
        if np.any(np.diff(times) <= 0):
            raise DomainError("sample times must be strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
        self.times = times
        self.samples = values
        slopes = np.diff(values) / np.diff(times)
        super().__init__(times, np.r_[values[0], values], np.r_[0.0, slopes, 0.0],
                         np.r_[times[0], times], np.r_[values, 0.0])

    def breakpoints(self):
        return tuple(self.times.tolist())

    def __repr__(self):
        return f"SampledChannel({self.times.size} samples)"


class CatenatedChannel(Channel):
    """``first`` on [0, tau], then ``second`` time-shifted to start at tau."""

    def __init__(self, first: Channel, second: Channel, tau: float):
        self.first = first
        self.second = second
        self.tau = float(tau)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.tau, self.first.value(np.minimum(t, self.tau)),
                        self.second.value(np.maximum(t - self.tau, 0.0)))

    def increment(self, a, b):
        return self._halves(self.first.increment, self.second.increment, a, b)

    def abs_increment(self, a, b):
        return self._halves(self.first.abs_increment, self.second.abs_increment, a, b)

    def _halves(self, first, second, a, b):
        # each half sees [a, b] clipped to its own time range, empty if disjoint
        tau = self.tau
        return (first(np.minimum(a, tau), np.minimum(b, tau))
                + second(np.maximum(a - tau, 0.0), np.maximum(b - tau, 0.0)))

    def breakpoints(self):
        first = [t for t in self.first.breakpoints() if t < self.tau]
        second = [self.tau + t for t in self.second.breakpoints()]
        return tuple(first) + (self.tau,) + tuple(second)


class ContinuousInput:
    """m controlled channels on [0, T]; channel 0 is the implicit drift 1."""

    __slots__ = ("channels", "T", "label")

    def __init__(self, channels: Sequence[Channel], T: float, label: str = ""):
        if T <= 0:
            raise DomainError(f"horizon T must be positive, got {T}")
        self.channels = tuple(channels)
        self.T = float(T)
        self.label = label

    @property
    def m(self) -> int:
        return len(self.channels)

    def channel(self, i: int) -> Channel:
        if i == 0:
            return _DRIFT
        if not 1 <= i <= self.m:
            raise DomainError(f"channel index {i} outside 0..{self.m}")
        return self.channels[i - 1]

    def value(self, i: int, t):
        return self.channel(i).value(t)

    def increment(self, i: int, a, b):
        return self.channel(i).increment(a, b)

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted interior non-smooth times across all controlled channels."""
        pts = set()
        for ch in self.channels:
            pts.update(t for t in ch.breakpoints() if 0.0 < t < self.T)
        return tuple(sorted(pts))

    def __repr__(self):
        name = f" {self.label!r}" if self.label else ""
        return f"ContinuousInput(m={self.m}, T={self.T:g}{name})"


_DRIFT = ConstantChannel(1.0)


def constant_input(levels: Sequence[float] | float, T: float, label: str = "") -> ContinuousInput:
    if np.isscalar(levels):
        levels = [levels]
    return ContinuousInput([ConstantChannel(v) for v in levels], T,
                           label or ",".join(f"{float(v):g}" for v in levels))


@dataclass(frozen=True)
class DiscreteInput:
    """The increment sequence uhat(N) in R^{m+1}, N = 1..L, step Delta."""

    m: int
    L: int
    delta: float
    values: np.ndarray  # shape (L, m+1); column 0 is the drift increment Delta

    def __post_init__(self):
        # freeze a copy: the caller's array stays writable
        values = np.array(self.values, dtype=float)
        if values.shape != (self.L, self.m + 1):
            raise DomainError(
                f"values must have shape ({self.L}, {self.m + 1}), got {values.shape}"
            )
        if not np.allclose(values[:, 0], self.delta, rtol=0.0, atol=1e-15):
            raise DomainError("drift increments uhat_0(N) must all equal Delta")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def T(self) -> float:
        return self.delta * self.L

    def channel(self, i: int) -> np.ndarray:
        """Increments of channel i as a length-L array (N = 1..L)."""
        return self.values[:, i]

    def sup_norm(self, channels: Optional[Iterable[int]] = None) -> float:
        """max over steps and the selected channels (default: all of 0..m)
        of |uhat_i(N)|."""
        if channels is None:
            sel = self.values
        else:
            sel = self.values[:, sorted(channels)]
        if sel.size == 0:
            return 0.0
        return float(np.max(np.abs(sel)))

    def prefix(self, N: int) -> "DiscreteInput":
        if not 0 <= N <= self.L:
            raise DomainError(f"step count {N} outside 0..{self.L}")
        return DiscreteInput(self.m, N, self.delta, self.values[:N])


def discretize(u: ContinuousInput, L: int, rule: str = "exact") -> DiscreteInput:
    """Increment sequence of ``u`` with L steps.

    rule="exact" integrates each channel in closed form over every step;
    rule="trapezoid" uses the one-panel trapezoid value
    (Delta/2)(u((N-1)Delta) + u(N Delta)) instead, matching what a fixed-step
    simulator computes from node samples.
    """
    if L < 1:
        raise DomainError(f"step count L must be >= 1, got {L}")
    if rule not in ("exact", "trapezoid"):
        raise DomainError(f"unknown increment rule {rule!r}")
    delta = u.T / L
    values = np.empty((L, u.m + 1), dtype=float)
    values[:, 0] = delta
    edges = np.linspace(0.0, u.T, L + 1)
    for i in range(1, u.m + 1):
        if rule == "exact":
            values[:, i] = u.increment(i, edges[:-1], edges[1:])
        else:
            nodes = u.value(i, edges)
            values[:, i] = 0.5 * delta * (nodes[:-1] + nodes[1:])
    return DiscreteInput(u.m, L, delta, values)


def catenate(u: ContinuousInput, v: ContinuousInput, tau: float) -> ContinuousInput:
    """The input equal to ``u`` on [0, tau] followed by ``v`` shifted to start
    at tau; total duration tau + v.T."""
    if not 0.0 <= tau <= u.T:
        raise DomainError(f"catenation time {tau} outside [0, {u.T}]")
    if u.m != v.m:
        raise DomainError(f"channel counts differ: {u.m} vs {v.m}")
    channels = [CatenatedChannel(u.channel(i), v.channel(i), tau)
                for i in range(1, u.m + 1)]
    return ContinuousInput(channels, tau + v.T)


def l1_norm(u: ContinuousInput) -> float:
    """Channel-wise max of the L1 norms over [0, T] (controlled channels only)."""
    if u.m == 0:
        return 0.0
    return float(max(u.channel(i).abs_increment(0.0, u.T) for i in range(1, u.m + 1)))
