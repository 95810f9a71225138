"""Per-word closed forms and identity residuals that the tests check the
library's graded recursions against.  None of them is on a production path:

* iterated_integral_pc — E_eta[u](t) in closed form for piecewise-constant
  inputs;
* iterated_sum_partition — S_eta[uhat](N) by enumerating index assignments;
* one_step_identity_check — the residual of the one-step shift identity
  that ties the discrete functional to its left-shifted series.
"""

import itertools
import math
from typing import Optional, Sequence

from fliess.algebra import (
    DEFAULT_WORD_CAP,
    Alphabet,
    CapExceeded,
    DomainError,
    SeriesSpec,
    left_shift,
)
from fliess.operators import dt_fliess_trajectory, dt_fliess_truncated
from fliess.signals import (
    CatenatedChannel,
    Channel,
    ConstantChannel,
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
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
