"""A-priori error bounds for truncated series functionals and their
discrete-time approximations, plus the regime warnings that go with them.

The two error sources are kept separate everywhere:

* e_hat(J) estimates, to first order in 1/L, the sum-vs-integral error
  accumulated by the words that are kept (|eta| <= J); it scales like 1/L.
  Constant (worst-case) inputs hit it up to a relative O(1/L) excess from
  the dropped higher-order terms, which are positive, so it is an estimate
  and not an upper bound;
* e_tail(J) bounds the truncation error from the words that are dropped
  (|eta| > J); it vanishes as J grows.

Both are driven by the scalar regime parameters

    s_hat = M * (m + 1) * L * ||uhat||_inf      (discrete),
    s     = M * (m + 1) * Rbar                  (continuous),

where Rbar = max(R, T) and R is the channel-wise L1 norm of the input.
For a series supported on a strict subset of the letters, m and the norms
should be taken over that subset (see effective_alphabet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .algebra import DomainError, Growth, GrowthClass, SeriesSpec
from .signals import ContinuousInput, DiscreteInput, l1_norm


#: the asymptotic bounds assume at least this many steps per truncation order
_MIN_STEPS_PER_ORDER = 5.0

EXP_ARG_MAX = math.log(1.7976931348623157e308)  #: e^x overflows double precision above it

#: a certificate series that has not stopped after this many terms raises
_MAX_TERMS = 1_000_000


class Divergent(ArithmeticError):
    """A bound formula was evaluated outside its convergence region."""

    def __init__(self, parameter: str, value: float):
        super().__init__(f"{parameter} = {value:g} >= 1: bound diverges")
        self.parameter = parameter
        self.value = value


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form bounds depend on."""

    K: float
    M: float
    m: int
    L: int
    J: int
    norm_uhat: float
    Rbar: float

    def __post_init__(self):
        if self.K <= 0 or self.M <= 0:
            raise DomainError("growth constants K and M must be positive")
        if self.m < 0 or self.L < 1 or self.J < 0:
            raise DomainError("need m >= 0, L >= 1, J >= 0")
        if self.norm_uhat < 0 or self.Rbar < 0:
            raise DomainError("norms must be nonnegative")

    @property
    def s_hat(self) -> float:
        return self.M * (self.m + 1) * self.L * self.norm_uhat

    @property
    def s(self) -> float:
        return self.M * (self.m + 1) * self.Rbar


@dataclass(frozen=True)
class BoundReport:
    e_hat: float
    e_tail: float
    s_hat: float
    s: float
    mode: str
    regime_warnings: tuple[str, ...] = ()


def lc_bounds(b: BoundInputs, formula: str = "statement") -> BoundReport:
    """Error bounds for a series with local growth |(c,eta)| <= K M^|eta| |eta|!.

    formula="statement" evaluates the closed form

        e_hat(J) = (K/L) [ shat^2/(1-shat)^3 - 2J(J+1) shat^{J+1}/(1-shat)
                           - J shat^{J+2}/(1-shat)^2 - shat^{J+2}/(1-shat)^3 ],

    which is what the bundled regression tables report.  formula="exact_sum"
    evaluates the finite sum (K/2L) sum_{j=0}^{J} j(j-1) shat^j instead.  The
    two disagree: on the first regression-table row they give 0.0355 and
    0.0387 respectively.  Both are kept on purpose; reports carry the mode.

    The truncation tail is e(J) = K s^{J+1}/(1-s).  Raises Divergent when
    the relevant parameter reaches 1.  At small J and large s_hat the
    statement form turns negative; the report then carries a warning.
    """
    shat, s = b.s_hat, b.s
    if shat >= 1.0:
        raise Divergent("s_hat", shat)
    if s >= 1.0:
        raise Divergent("s", s)
    J, K, L = b.J, b.K, b.L
    if formula == "statement":
        e_hat = (K / L) * (
            shat**2 / (1.0 - shat) ** 3
            - 2.0 * J * (J + 1) * shat ** (J + 1) / (1.0 - shat)
            - J * shat ** (J + 2) / (1.0 - shat) ** 2
            - shat ** (J + 2) / (1.0 - shat) ** 3
        )
    elif formula == "exact_sum":
        e_hat = (K / (2.0 * L)) * math.fsum(
            j * (j - 1) * shat**j for j in range(2, J + 1)
        )
    else:
        raise DomainError(f"unknown LC bound formula {formula!r}")
    e_tail = K * s ** (J + 1) / (1.0 - s)
    warnings = ()
    if e_hat < 0.0:
        warnings = (f"e_hat = {e_hat:g} < 0: the {formula} formula gives no certificate "
                    "at this J and s_hat; use bound_mode: exact_sum",)
    return BoundReport(e_hat, e_tail, shat, s, mode=f"lc/{formula}", regime_warnings=warnings)


def _first_term(direct: Callable[[], float], log_term: Callable[[], float]) -> float:
    """direct(), or e^log_term() when the direct form overflows (inf when
    that is beyond the largest double too)."""
    try:
        return direct()
    except OverflowError:
        x = log_term()
        return math.exp(x) if x <= EXP_ARG_MAX else math.inf


def _series_sum(name: str, first: float, j: int, ratio: Callable[[int], float],
                cut: float = 1e-17) -> float:
    """math.fsum of the nonnegative terms t_j = first, t_k = t_{k-1} ratio(k)
    for k > j: the one summation loop of the certificate series.  It stops
    at the first term past the peak (no larger than the one before) that is
    at most ``cut`` times the running sum.  The default drops only what lies
    far below a tail's last bit; a finite sum (ratio 0 past its last term)
    passes cut = 0 and keeps every term that is not 0.  Raises DomainError
    naming ``name`` when the running sum exceeds the largest double, or when
    _MAX_TERMS terms do not reach the stop."""
    kept: list[float] = []
    total, last, t = 0.0, math.inf, first
    while not (t <= last and t <= cut * total):
        if len(kept) == _MAX_TERMS:
            raise DomainError(f"{name}: the series has not converged after {_MAX_TERMS} terms")
        kept.append(t)
        total += t
        if total == math.inf:
            raise DomainError(f"{name}: the sum exceeds the largest double after "
                              f"{len(kept)} terms")
        last = t
        j += 1
        t *= ratio(j)
    return math.fsum(kept)


def gamma_upper_regularized(order: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(order, x) for integer order >= 1,
    via the finite identity Q(order, x) = e^{-x} sum_{j=0}^{order-1} x^j/j!."""
    if order < 1:
        raise DomainError(f"integer order must be >= 1, got {order}")
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    return math.exp(-x) * _series_sum("gamma_upper_regularized", 1.0, 0,
                                      lambda j: x / j if j < order else 0.0, cut=0.0)


def _exp_tail(x: float, J: int) -> float:
    """sum_{j > J} x^j / j!, summed directly so tiny tails keep full relative
    accuracy (the e^x - partial_sum form would cancel catastrophically)."""
    if x == 0.0:
        return 0.0
    first = _first_term(lambda: x ** (J + 1) / math.factorial(J + 1),
                        lambda: (J + 1) * math.log(x) - math.lgamma(J + 2))
    return _series_sum("e_tail", first, J + 1, lambda j: x / j)


def gc_bounds(b: BoundInputs) -> BoundReport:
    """Error bounds for a series with global growth |(c,eta)| <= K M^|eta|:

        e_hat(J) = (K/2L) e^{shat} shat^2 Q(J+1, shat),
        e(J)     = K e^s (1 - Q(J+1, s)) = K sum_{j>J} s^j/j!,

    with Q the regularized upper incomplete gamma (integer order).  Both
    converge for every shat, s >= 0.  The tail is summed directly rather
    than through 1 - Q so that values near machine epsilon stay accurate.
    Raises DomainError naming the column where e^{shat} or e^s overflows.
    """
    shat, s = b.s_hat, b.s
    for column, name, x in (("e_hat", "s_hat", shat), ("e_tail", "s", s)):
        if x > EXP_ARG_MAX:
            raise DomainError(f"{column} column: e^{name} overflows at {name} = {x:g}")
    e_hat = (b.K / (2.0 * b.L)) * math.exp(shat) * shat**2 * gamma_upper_regularized(b.J + 1, shat)
    e_tail = b.K * _exp_tail(s, b.J)
    return BoundReport(e_hat, e_tail, shat, s, mode="gc")


def effective_alphabet(c: SeriesSpec) -> tuple[int, tuple[int, ...]]:
    """Effective controlled-letter count and the letters evaluation ranges
    over.  A series supported on q letters behaves like one over an alphabet
    of q letters, so the bound factor (m+1) becomes q: for a series in the
    single letter x_1, effectively m = 0."""
    letters = c.evaluation_letters()
    return max(len(letters) - 1, 0), letters


def bound_inputs(
    c: SeriesSpec, u: ContinuousInput, uhat: DiscreteInput, J: int = 0
) -> BoundInputs:
    """BoundInputs of a series with a growth class on u and its discretization:
    m and norms over the effective alphabet, Rbar = max(||u||_1, T)."""
    m_eff, letters = effective_alphabet(c)
    return BoundInputs(
        K=c.growth.K, M=c.growth.M, m=m_eff, L=uhat.L, J=J,
        norm_uhat=uhat.sup_norm(letters), Rbar=max(l1_norm(u), u.T),
    )


def regime_warnings(kind: Growth, b: BoundInputs) -> list[str]:
    """Warnings for a series of growth ``kind``: the GC discrete radius
    ||uhat||_inf < 1/(M(m+1)), and the steps-per-order ratio L/J falling
    below _MIN_STEPS_PER_ORDER (J = 0 skips it).  The LC conditions
    (Rbar < 1/(M(m+1)), which is s < 1, and s_hat < 1) need no warning:
    lc_bounds raises Divergent when either fails."""
    radius = 1.0 / (b.M * (b.m + 1))
    warnings = []
    if kind is Growth.GC and b.norm_uhat >= radius:
        warnings.append(f"||uhat||_inf = {b.norm_uhat:g} at or beyond the "
                        f"discrete convergence radius {radius:g}")
    if b.J > 0 and b.L / b.J < _MIN_STEPS_PER_ORDER:
        warnings.append(
            f"L/J = {b.L / b.J:g} below {_MIN_STEPS_PER_ORDER:g}; the asymptotic bounds "
            "assume many steps per truncation order"
        )
    return warnings


def dt_tail_bound(g: GrowthClass, m: int, R_hat: float, N: int, J: int) -> float:
    """Upper bound on the discrete truncation error |F_hat - F_hat^J| at
    step N for a globally convergent series: the dropped words contribute at
    most

        sum_{j > J} K (M(m+1)R_hat)^j binomial(N-1+j, j),

    summed numerically to convergence (_series_sum).  Requires the ratio
    r = M(m+1)R_hat < 1; raises Divergent otherwise, and DomainError when
    the sum is beyond the largest double."""
    if g.kind is not Growth.GC:
        raise DomainError("the discrete tail bound applies to GC growth only")
    if m < 0 or N < 0 or J < 0 or R_hat < 0:
        raise DomainError("need m, N, J, R_hat >= 0")
    r = g.M * (m + 1) * R_hat
    if r >= 1.0:
        raise Divergent("M(m+1)R_hat", r)
    if r == 0.0 or N == 0:
        # no increments consumed yet: every nonempty word's sum is still 0
        return 0.0
    j = J + 1
    first = _first_term(
        lambda: g.K * r**j * math.comb(N - 1 + j, j),
        lambda: (math.log(g.K) + j * math.log(r)
                 + math.lgamma(N + j) - math.lgamma(j + 1) - math.lgamma(N)))
    return _series_sum("dt_tail_bound", first, j, lambda k: r * (N + k - 1) / k)
