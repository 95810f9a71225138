"""Exact evaluation of rational discrete-time operators through state-affine
recursions, and the continuous-time bilinear reference integrator.

A linear representation (A_0..A_m, gamma, lam) determines the forward
recursion

    z(N+1) = [I - sum_j A_j uhat_j(N+1)]^{-1} z(N),     z(0) = gamma,
    yhat(N) = lam @ z(N),

whose output equals the *untruncated* discrete-time series functional
whenever that series converges — no truncation order appears anywhere.
The backward map z(N) = [I - sum_j A_j uhat_j(N+1)] z(N+1) inverts each
step without any linear solve.

The realization holds only for increments small enough that the word
series converges, and one rule, ``strict_norm``, makes that premise
operational: the induced infinity norm of sum_j A_j uhat_j must stay below
1 - 1e-9.  Below it the Neumann series of the resolvent converges, so
(I - B)^{-1} exists and the recursion sums the series; a step that breaks
the rule raises PolicyViolation instead of returning a number the series
does not produce.

The continuous reference is classical RK4 on the bilinear system.  Its field
is linear in z, so each step is a product z' = Phi_k z with a one-step
propagator Phi_k that is algebraically the staged k1..k4 update.

All three recursions are linear maps z_{k+1} = P_k z_k and run on time
blocks of at most about _BLOCK_FLOATS floats per stacked array.  A block's
one-step propagators come from batched numpy calls: I - B(N) backward, the
RK4 products, and forward the resolvents (I - B(N))^{-1} from one batched
solve, after one ``strict_norm`` check for the whole stack.  The block's
states then come from _chain, which multiplies the propagators pairwise in
about log2(steps) batched levels instead of one matvec per step.  Forward,
a block whose solve fails or whose states are not finite reruns one
resolvent solve per step, so the error names the failing step
(SingularTransition, or NonFinite for the first state that overflows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import DomainError, LinearRepresentation
from .signals import ContinuousInput, DiscreteInput

# floats per stacked (steps, dim, dim) array in one time block: keeps a
# block's memory small and flat in the horizon
_BLOCK_FLOATS = 2 ** 14
# the ``strict_norm`` rule needs ||sum_j A_j uhat_j||_inf below this
_NORM_THRESHOLD = 1.0 - 1e-9
# RK4 blocks whose stage bound stays below this cannot overflow
_OVERFLOW_GUARD = 0.5 * np.finfo(float).max


class _StepFailure(ArithmeticError):
    """A failure of the recursion at ``step``, if it has one."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class SingularTransition(_StepFailure):
    """The one-step resolvent matrix is numerically singular."""


class PolicyViolation(_StepFailure):
    """The ``strict_norm`` increment-size test failed before the solve."""


class NonFinite(_StepFailure):
    """A simulated state overflowed or became NaN."""


@dataclass(frozen=True)
class StateAffineSystem:
    """A rational-input state-affine system in resolvent form.  Its steps
    run only under the ``strict_norm`` rule, the realization's premise."""

    rep: LinearRepresentation

    @property
    def dim(self) -> int:
        return self.rep.dim


@dataclass(frozen=True)
class Trajectory:
    """States z(N) (rows) and outputs yhat(N) = lam @ z(N) for N = 0..N_f."""

    states: np.ndarray
    outputs: np.ndarray


def _block_steps(dim: int) -> int:
    """Steps per time block, so that a block's (steps, dim, dim) stacks hold
    about _BLOCK_FLOATS floats whatever the horizon."""
    return max(1, _BLOCK_FLOATS // max(1, dim * dim))


def _chain(P: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The states z_1..z_n (rows) of z_{k+1} = P_k z_k from z_0 = z, by
    odd-even reduction: the pair products P_{2i+1} P_{2i} carry z_{2i} to
    z_{2i+2}, so one batched matmul halves the stack and the recursion yields
    the even states; one batched matvec then fills in the odd ones."""
    n = len(P)
    states = np.empty((n, len(z)))
    if n == 0:
        return states
    half = n // 2
    states[0] = P[0] @ z
    if half:
        states[1::2] = _chain(P[1::2] @ P[0:2 * half:2], z)
        states[2::2] = np.einsum("kij,kj->ki", P[2::2], states[1:n - 1:2])
    return states


def _step_error(cls, message: str, step: Optional[int]):
    return cls(message if step is None else f"step {step}: {message}", step)


def _check_norms(B: np.ndarray, first_step: Optional[int] = None) -> None:
    """The ``strict_norm`` test on a stack B of increment matrices: raise
    PolicyViolation at the first whose induced infinity norm reaches the
    threshold.  ``first_step`` is the step number of B[0], if it has one."""
    norms = np.abs(B).sum(axis=-1).max(axis=-1, initial=0.0).reshape(-1)
    bad = np.flatnonzero(~(norms < _NORM_THRESHOLD))  # a NaN norm fails too
    if bad.size:
        k = int(bad[0])
        raise _step_error(
            PolicyViolation,
            f"||sum A_j uhat_j||_inf = {norms[k]:g} >= {_NORM_THRESHOLD:g}; "
            "increments too large for the conservative resolvent test",
            None if first_step is None else first_step + k,
        )


def _solve(matrix: np.ndarray, z: np.ndarray, step: Optional[int] = None) -> np.ndarray:
    """Solve matrix @ z' = z.  A failed solve raises SingularTransition, and
    a z' that is not finite (the state overflowed) raises NonFinite."""
    try:
        z_next = np.linalg.solve(matrix, z)
    except np.linalg.LinAlgError as exc:
        raise _step_error(SingularTransition, f"resolvent solve failed: {exc}", step) from exc
    if not np.isfinite(z_next).all():
        raise _step_error(NonFinite, "state non-finite after the resolvent solve", step)
    return z_next


def forward_step(sys: StateAffineSystem, z: np.ndarray, u_next: np.ndarray) -> np.ndarray:
    """One resolvent step: solve (I - sum_j A_j uhat_j) z' = z.

    This is the implicit (backward-Euler-like) discretization of the
    bilinear system, z' = z + sum_j A_j uhat_j z'.  The system is solved,
    never inverted.  The increment matrix must pass ``strict_norm``: its
    induced infinity norm below the threshold guarantees solvability and is
    the premise under which the step realizes the series (PolicyViolation
    otherwise).  A state that is not finite raises NonFinite.
    """
    z = np.asarray(z, dtype=float).reshape(sys.dim)
    B = sys.rep.letter_sum(u_next)
    _check_norms(B)
    return _solve(np.eye(sys.dim) - B, z)


def backward_step(sys: StateAffineSystem, z_next: np.ndarray, u_next: np.ndarray) -> np.ndarray:
    """Inverse of forward_step, needing no solve:
    z(N) = (I - sum_j A_j uhat_j(N+1)) z(N+1)."""
    z_next = np.asarray(z_next, dtype=float).reshape(sys.dim)
    B = sys.rep.letter_sum(u_next)
    return z_next - B @ z_next


def _step_count(sys: StateAffineSystem, uhat: DiscreteInput, N_f: Optional[int]) -> int:
    if uhat.m != sys.rep.m:
        raise DomainError(f"system has m={sys.rep.m} but input has m={uhat.m}")
    return uhat.L if N_f is None else uhat.prefix(N_f).L


def _forward_block(M: np.ndarray, z: np.ndarray, first_step: int) -> np.ndarray:
    """The states after each step of one time block of the forward recursion
    from z, where M stacks the block's I - B(N) from step ``first_step`` on;
    the caller has checked ``strict_norm`` on them.

    The resolvents come from one batched solve against I and the states
    from _chain.  If that solve fails or a state is not finite, the block
    reruns with one solve per step, which raises at the failing step."""
    # overflow is detected and handled below, not propagated as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            states = _chain(np.linalg.inv(M), z)
        except np.linalg.LinAlgError:
            states = None
    if states is not None and np.isfinite(states).all():
        return states
    states = np.empty((len(M), len(z)))
    for k in range(len(M)):
        z = states[k] = _solve(M[k], z, step=first_step + k)
    return states


def simulate_forward(sys: StateAffineSystem, uhat: DiscreteInput, N_f: Optional[int] = None) -> Trajectory:
    """Run the forward recursion from z(0) = gamma for N_f steps.

    The output sequence equals the untruncated discrete-time functional of
    the represented series at every step, provided every step's increments
    pass ``strict_norm``, the premise of that identity; the first step that
    breaks it raises PolicyViolation.  Steps run in time blocks: the
    increment matrices B(N) of a block are built in one call and pass the
    test together, their resolvents (I - B(N))^{-1} come from one batched
    solve, and the states from pairwise products of those resolvents
    (_chain).  A block whose solve fails or whose states are not finite
    reruns one solve per step, so step failures propagate with the failing
    step index attached: SingularTransition, or NonFinite for the first
    state that overflows.
    """
    N_f = _step_count(sys, uhat, N_f)
    states = np.empty((N_f + 1, sys.dim))
    states[0] = sys.rep.gamma
    block = _block_steps(sys.dim)
    for start in range(0, N_f, block):
        stop = min(start + block, N_f)
        B = sys.rep.letter_sum(uhat.values[start:stop])
        _check_norms(B, first_step=start + 1)
        states[start + 1:stop + 1] = _forward_block(np.eye(sys.dim) - B, states[start], start + 1)
    return Trajectory(states, states @ sys.rep.lam)


def simulate_backward(
    sys: StateAffineSystem,
    uhat: DiscreteInput,
    N_f: Optional[int] = None,
    terminal_state: Optional[np.ndarray] = None,
) -> Trajectory:
    """Run the backward recursion z(N) = (I - sum_j A_j uhat_j(N+1)) z(N+1)
    down from step N_f.  Each time block's maps I - B(N) come from one call
    and its states from their pairwise products (_chain), in reversed order.

    ``terminal_state`` defaults to gamma (the reversed-time initial data);
    passing a forward trajectory's final state instead reproduces that
    trajectory exactly, which is the time-reversal consistency this map
    exists to provide.
    """
    N_f = _step_count(sys, uhat, N_f)
    states = np.empty((N_f + 1, sys.dim))
    states[N_f] = (
        sys.rep.gamma if terminal_state is None
        else np.asarray(terminal_state, dtype=float).reshape(sys.dim)
    )
    block = _block_steps(sys.dim)
    for stop in range(N_f, 0, -block):
        start = max(stop - block, 0)
        M = np.eye(sys.dim) - sys.rep.letter_sum(uhat.values[start:stop])
        states[start:stop] = _chain(M[::-1], states[stop])[::-1]
    return Trajectory(states, states @ sys.rep.lam)


def _rk4_propagators(F_nodes: np.ndarray, F_mid: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagators Phi_k, with z_{k+1} = Phi_k z_k, for the
    linear field dz/dt = F(t) z, from the field matrices at the step nodes
    (F_nodes, one more than steps) and midpoints (F_mid).  Expanding the
    classical stages k1..k4 in z gives exactly

        K2 = F_m + (h/2) F_m F_0,   K3 = F_m + (h/2) F_m K2,
        K4 = F_1 + h F_1 K3,        Phi = I + (h/6)(F_0 + 2 K2 + 2 K3 + K4).
    """
    F0, F1 = F_nodes[:-1], F_nodes[1:]
    K2 = F_mid + (0.5 * h) * (F_mid @ F0)
    K3 = F_mid + (0.5 * h) * (F_mid @ K2)
    K4 = F1 + h * (F1 @ K3)
    Phi = (h / 6.0) * (F0 + 2.0 * K2 + 2.0 * K3 + K4)
    Phi += np.eye(F0.shape[-1])
    return Phi


def _stages_stay_finite(a: float, h: float, z_start: np.ndarray, block_states: np.ndarray) -> bool:
    """Whether no classical RK4 stage of a block can overflow.  With a a
    bound on the induced infinity norm of the block's field matrices, every
    intermediate of a staged step from z is at most 6 (1 + a)(1 + h a)^4 |z|;
    the factor 8 below leaves room for rounding."""
    z_max = np.max([np.abs(z).max(initial=0.0) for z in (z_start, block_states)])
    return bool(z_max * 8.0 * (1.0 + a) * (1.0 + h * a) ** 4 < _OVERFLOW_GUARD)


def _rk4_staged(F_nodes: np.ndarray, F_mid: np.ndarray, h: float,
                z: np.ndarray, out: np.ndarray) -> Optional[int]:
    """Classical RK4 stages k1..k4, one step at a time from z, writing each
    new state to a row of ``out``.  Returns the index of the first row that
    is not finite, or None."""
    for k in range(len(out)):
        k1 = F_nodes[k] @ z
        k2 = F_mid[k] @ (z + 0.5 * h * k1)
        k3 = F_mid[k] @ (z + 0.5 * h * k2)
        k4 = F_nodes[k + 1] @ (z + h * k3)
        z = out[k] = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            return k
    return None


def ct_bilinear_simulate(
    rep: LinearRepresentation,
    u: ContinuousInput,
    steps: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fourth-order Runge-Kutta on the bilinear system

        dz/dt = sum_{j=0}^m A_j z u_j(t),    z(0) = gamma,    y = lam @ z,

    on the input's horizon T = u.T with fixed step T/steps.  Returns
    (times, outputs) at the step nodes.  This is the continuous-time
    reference that discretizations are measured against.  Raises NonFinite,
    naming the first step node where the state is not finite, if the state
    blows up along the way.

    The field is linear in z, so each RK4 step is a product z' = Phi_k z
    with a one-step propagator Phi_k that is algebraically the staged
    k1..k4 update.  Steps run in time blocks: the propagators of a block
    come from batched matrix products, and the block's states from their
    pairwise products (_chain).  A block whose stage bound could overflow
    reruns staged, so NonFinite names the step where the classical update
    fails.
    """
    if rep.m != u.m:
        raise DomainError(f"representation has m={rep.m} but input has m={u.m}")
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")

    T = u.T
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    # letter weights (1, u_1, ..., u_m) at the step nodes (even rows) and the
    # midpoints (odd rows), one vectorized call per channel
    stage_times = np.linspace(0.0, T, 2 * steps + 1)
    weights = np.column_stack([np.ones_like(stage_times)]
                              + [u.value(j, stage_times) for j in range(1, rep.m + 1)])
    # ||sum_j A_j w_j||_inf <= sum_j |w_j| ||A_j||_inf bounds each field matrix
    letter_norms = np.abs(rep.matrices).sum(axis=-1).max(axis=-1)
    z = np.array(rep.gamma, dtype=float)
    outputs = np.empty(steps + 1)
    outputs[0] = float(rep.lam @ z)
    block = _block_steps(rep.dim)
    # overflow is detected and reported, not propagated as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, block):
            stop = min(start + block, steps)
            F_nodes = rep.letter_sum(weights[2 * start:2 * stop + 1:2])
            F_mid = rep.letter_sum(weights[2 * start + 1:2 * stop:2])
            Phi = _rk4_propagators(F_nodes, F_mid, h)
            block_states = _chain(Phi, z)
            a = (np.abs(weights[2 * start:2 * stop + 1]) @ letter_norms).max()
            if not _stages_stay_finite(a, h, z, block_states):
                # near overflow the stages can overflow a step before the
                # product does: rerun the block staged, so the reported step
                # is the one where the classical update first fails
                bad = _rk4_staged(F_nodes, F_mid, h, z, block_states)
                if bad is not None:
                    raise NonFinite(f"state non-finite at t = {times[start + bad + 1]:g}")
            z = block_states[-1]
            outputs[start + 1:stop + 1] = block_states @ rep.lam
    return times, outputs

