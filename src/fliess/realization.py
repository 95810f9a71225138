"""Exact evaluation of rational discrete-time operators through state-affine
recursions, the continuous-time bilinear reference integrator, and the
one-step shift identity that ties the recursions back to iterated sums.

A linear representation (A_0..A_m, gamma, lam) determines the forward
recursion

    z(N+1) = [I - sum_j A_j uhat_j(N+1)]^{-1} z(N),     z(0) = gamma,
    yhat(N) = lam @ z(N),

whose output equals the *untruncated* discrete-time series functional
whenever that series converges — no truncation order appears anywhere.
The backward map z(N) = [I - sum_j A_j uhat_j(N+1)] z(N+1) inverts each
step without any linear solve.

"Sufficiently small increments" is made operational by two policies:
``strict_norm`` demands the induced infinity norm of sum_j A_j uhat_j stay
below a threshold (default 1 - 1e-9), a sufficient condition for the
resolvent to exist; ``solve_with_residual`` just solves and checks the
residual, admitting increments the conservative test would reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import DomainError, LinearRepresentation, SeriesSpec, left_shift
from .operators import dt_fliess_trajectory, dt_fliess_truncated
from .signals import ContinuousInput, DiscreteInput


class SingularTransition(ArithmeticError):
    """The one-step resolvent matrix is numerically singular."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class PolicyViolation(ArithmeticError):
    """The conservative increment-size test failed before the solve."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class NonFinite(ArithmeticError):
    """A simulated state overflowed or became NaN."""


@dataclass(frozen=True)
class StateAffineSystem:
    """A rational-input state-affine system in resolvent form."""

    rep: LinearRepresentation
    invertibility_policy: str = "strict_norm"
    norm_threshold: float = 1.0 - 1e-9

    def __post_init__(self):
        if self.invertibility_policy not in ("strict_norm", "solve_with_residual"):
            raise DomainError(
                f"unknown invertibility policy {self.invertibility_policy!r}"
            )

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def m(self) -> int:
        return self.rep.m


@dataclass(frozen=True)
class Trajectory:
    """States z(N) (rows) and outputs yhat(N) = lam @ z(N) for N = 0..N_f."""

    states: np.ndarray
    outputs: np.ndarray

    def __len__(self) -> int:
        return self.outputs.size


def forward_step(sys: StateAffineSystem, z: np.ndarray, u_next: np.ndarray) -> np.ndarray:
    """One resolvent step: solve (I - sum_j A_j uhat_j) z' = z.

    This is the implicit (backward-Euler-like) discretization of the
    bilinear system, z' = z + sum_j A_j uhat_j z'.  The system is solved,
    never inverted.  Under ``strict_norm`` the induced infinity norm of the
    increment matrix must stay below the threshold (which guarantees
    solvability); under ``solve_with_residual`` any solve whose residual
    stays below 1e-10 * ||z|| is accepted.
    """
    z = np.asarray(z, dtype=float).reshape(sys.dim)
    B = sys.rep.letter_sum(u_next)
    if sys.invertibility_policy == "strict_norm":
        norm = float(np.max(np.sum(np.abs(B), axis=1))) if sys.dim else 0.0
        if norm >= sys.norm_threshold:
            raise PolicyViolation(
                f"||sum A_j uhat_j||_inf = {norm:g} >= {sys.norm_threshold:g}; "
                "increments too large for the conservative resolvent test"
            )
    matrix = np.eye(sys.dim) - B
    try:
        z_next = np.linalg.solve(matrix, z)
    except np.linalg.LinAlgError as exc:
        raise SingularTransition(f"resolvent solve failed: {exc}") from exc
    if sys.invertibility_policy == "solve_with_residual":
        residual = float(np.max(np.abs(matrix @ z_next - z)))
        if residual > 1e-10 * max(float(np.max(np.abs(z))), 1e-300):
            raise SingularTransition(
                f"resolvent solve residual {residual:g} too large "
                f"(state norm {float(np.max(np.abs(z))):g})"
            )
    return z_next


def backward_step(sys: StateAffineSystem, z_next: np.ndarray, u_next: np.ndarray) -> np.ndarray:
    """Inverse of forward_step, needing no solve:
    z(N) = (I - sum_j A_j uhat_j(N+1)) z(N+1)."""
    z_next = np.asarray(z_next, dtype=float).reshape(sys.dim)
    B = sys.rep.letter_sum(u_next)
    return z_next - B @ z_next


def _step_count(sys: StateAffineSystem, uhat: DiscreteInput, N_f: Optional[int]) -> int:
    if uhat.m != sys.m:
        raise DomainError(f"system has m={sys.m} but input has m={uhat.m}")
    if N_f is None:
        N_f = uhat.L
    if not 0 <= N_f <= uhat.L:
        raise DomainError(f"step count {N_f} outside 0..{uhat.L}")
    return N_f


def simulate_forward(sys: StateAffineSystem, uhat: DiscreteInput, N_f: Optional[int] = None) -> Trajectory:
    """Run the forward recursion from z(0) = gamma for N_f steps.

    The output sequence equals the untruncated discrete-time functional of
    the represented series at every step.  Step failures propagate with the
    failing step index attached.
    """
    N_f = _step_count(sys, uhat, N_f)
    states = np.empty((N_f + 1, sys.dim))
    states[0] = sys.rep.gamma
    for n in range(N_f):
        try:
            states[n + 1] = forward_step(sys, states[n], uhat.values[n])
        except (SingularTransition, PolicyViolation) as exc:
            exc.step = n + 1
            exc.args = (f"step {n + 1}: {exc.args[0]}",)
            raise
    return Trajectory(states, states @ sys.rep.lam)


def simulate_backward(
    sys: StateAffineSystem,
    uhat: DiscreteInput,
    N_f: Optional[int] = None,
    terminal_state: Optional[np.ndarray] = None,
) -> Trajectory:
    """Run the backward recursion z(N) = (I - sum_j A_j uhat_j(N+1)) z(N+1)
    down from step N_f.

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
    for n in range(N_f - 1, -1, -1):
        states[n] = backward_step(sys, states[n + 1], uhat.values[n])
    return Trajectory(states, states @ sys.rep.lam)


def ct_bilinear_simulate(
    rep: LinearRepresentation,
    u: ContinuousInput,
    T: Optional[float] = None,
    steps: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fourth-order Runge-Kutta on the bilinear system

        dz/dt = sum_{j=0}^m A_j z u_j(t),    z(0) = gamma,    y = lam @ z,

    with fixed step T/steps.  Returns (times, outputs) at the step nodes.
    This is the continuous-time reference that discretizations are measured
    against.  Raises NonFinite if the state blows up along the way.
    """
    if rep.m != u.m:
        raise DomainError(f"representation has m={rep.m} but input has m={u.m}")
    if T is None:
        T = u.T
    if not 0.0 < T <= u.T:
        raise DomainError(f"horizon {T} outside (0, {u.T}]")
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")

    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    # letter weights (1, u_1, ..., u_m) at the step nodes (even rows) and the
    # midpoints (odd rows), one vectorized call per channel
    stage_times = np.linspace(0.0, T, 2 * steps + 1)
    weights = np.column_stack([np.ones_like(stage_times)]
                              + [u.value(j, stage_times) for j in range(1, rep.m + 1)])
    z = np.array(rep.gamma, dtype=float)
    outputs = np.empty(steps + 1)
    outputs[0] = float(rep.lam @ z)
    field_next = rep.letter_sum(weights[0])
    # overflow is detected and reported, not propagated as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            field, field_mid = field_next, rep.letter_sum(weights[2 * k + 1])
            field_next = rep.letter_sum(weights[2 * k + 2])
            k1 = field @ z
            k2 = field_mid @ (z + 0.5 * h * k1)
            k3 = field_mid @ (z + 0.5 * h * k2)
            k4 = field_next @ (z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise NonFinite(f"state non-finite at t = {times[k + 1]:g}")
            outputs[k + 1] = float(rep.lam @ z)
    return times, outputs


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
                rhs += uj * dt_fliess_truncated(shifted, uhat, J - 1, N=N + 1)
    return abs(lhs - rhs)
