"""Continuous-time input signals, their increment discretizations, catenation,
and the norms the error bounds are stated in.

A ContinuousInput bundles m controlled channels on a horizon [0, T]; channel 0
is implicit and identically 1 (the drift channel).  Discretization with L
steps produces the increment sequence uhat(N), N = 1..L, where

    uhat_i(N) = integral of u_i over [(N-1)*Delta, N*Delta],   Delta = T/L,

so uhat_0(N) = Delta always.  Every built-in channel kind knows its exact
increment and absolute-value integrals in closed form, which keeps the
discretization error at machine precision (far below the 1e-12 contract for
tabulated channels).  An alternative per-step trapezoid rule
(Delta/2)(u((N-1)Delta) + u(N Delta)) is selectable; it is what fixed-step
simulation environments typically produce and is used by the bundled
regression tables.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import DomainError


class QuadratureFailure(Exception):
    """An adaptive integration loop exhausted its budget before converging."""


class Channel:
    """One controlled input channel on [0, duration]."""

    def value(self, t):
        raise NotImplementedError

    def increment(self, a: float, b: float) -> float:
        """Exact integral of the channel over [a, b]."""
        raise NotImplementedError

    def abs_increment(self, a: float, b: float) -> float:
        """Exact integral of |channel| over [a, b]."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior times where the channel is not smooth."""
        return ()


class ConstantChannel(Channel):
    def __init__(self, level: float):
        self.level = float(level)

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.level)

    def increment(self, a, b):
        return self.level * (b - a)

    def abs_increment(self, a, b):
        return abs(self.level) * (b - a)

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

    def __repr__(self):
        return f"SinusoidChannel({self.amplitude:g}, omega={self.omega:g}, phase={self.phase:g})"


class PiecewiseConstantChannel(Channel):
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

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t, side="right")
        return np.asarray(self.values, dtype=float)[idx]

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

    def breakpoints(self):
        return self.breaks

    def __repr__(self):
        return f"PiecewiseConstantChannel({len(self.values)} pieces)"


class SampledChannel(Channel):
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

    def increment(self, i: int, a: float, b: float) -> float:
        return self.channel(i).increment(a, b)

    def integral(self, i: int) -> float:
        """Exact integral of channel i over the whole horizon."""
        return self.channel(i).increment(0.0, self.T)

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
        if self.values.shape != (self.L, self.m + 1):
            raise DomainError(
                f"values must have shape ({self.L}, {self.m + 1}), got {self.values.shape}"
            )
        if not np.allclose(self.values[:, 0], self.delta, rtol=0.0, atol=1e-15):
            raise DomainError("drift increments uhat_0(N) must all equal Delta")
        self.values.flags.writeable = False

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
        return DiscreteInput(self.m, N, self.delta, self.values[:N].copy())


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
            ch = u.channel(i)
            values[:, i] = [ch.increment(edges[N], edges[N + 1]) for N in range(L)]
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
    return max(u.channel(i).abs_increment(0.0, u.T) for i in range(1, u.m + 1))
