"""State-affine realizations: resolvent steps, time reversal, and the bridge
back to the continuous bilinear system."""

import math
import tracemalloc

import numpy as np
import pytest

from fliess.algebra import (
    Alphabet,
    DomainError,
    LinearRepresentation,
    SeriesSpec,
)
from fliess.operators import iterated_sum_trajectory
from fliess.realization import (
    NonFinite,
    _block_steps,
    _chain,
    _forward_block,
    PolicyViolation,
    SingularTransition,
    StateAffineSystem,
    backward_step,
    ct_bilinear_simulate,
    forward_step,
    simulate_backward,
    simulate_forward,
)
from fliess.signals import (
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
    SampledChannel,
    SinusoidChannel,
    constant_input,
    discretize,
)

from conftest import random_pc_input, random_polynomial_series
from oracles import one_step_identity_check


def geometric_rep() -> LinearRepresentation:
    # scalar system whose forward recursion is z' = z/(1 - uhat_1)
    return LinearRepresentation(
        [np.array([[0.0]]), np.array([[1.0]])],
        np.array([1.0]),
        np.array([1.0]),
    )


def random_uhat(rng, m, L, delta=0.1, scale=0.05) -> DiscreteInput:
    values = np.column_stack(
        [np.full(L, delta), rng.uniform(-scale, scale, size=(L, m))]
    )
    return DiscreteInput(m=m, L=L, delta=delta, values=values)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_forward_step_solves_resolvent():
    A0 = np.array([[0.0, 0.2], [0.0, 0.0]])
    A1 = np.array([[0.1, 0.0], [0.3, -0.1]])
    sys = StateAffineSystem(LinearRepresentation([A0, A1], [1.0, 0.0], [1.0, 1.0]))
    z = np.array([1.0, 2.0])
    u_next = np.array([0.5, 0.25])
    z_next = forward_step(sys, z, u_next)
    B = A0 * 0.5 + A1 * 0.25
    assert np.allclose((np.eye(2) - B) @ z_next, z, atol=1e-14)


def test_backward_step_inverts_forward():
    rng = np.random.default_rng(3)
    mats = [rng.uniform(-0.3, 0.3, (3, 3)) for _ in range(3)]
    sys = StateAffineSystem(
        LinearRepresentation(mats, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    )
    z = rng.uniform(-1, 1, 3)
    u_next = np.array([0.1, -0.2, 0.15])
    fwd = forward_step(sys, z, u_next)
    assert np.allclose(backward_step(sys, fwd, u_next), z, atol=1e-12)


def test_strict_norm_policy_rejects_large_increments():
    sys = StateAffineSystem(geometric_rep())
    with pytest.raises(PolicyViolation):
        forward_step(sys, np.array([1.0]), np.array([0.0, 1.0]))


def test_implicit_discretize_step_matches_forward():
    # the implicit discretization z' = z + sum_j A_j uhat_j z' of the bilinear
    # system; for the geometric rep (A_0 = 0, A_1 = 1) it gives z' = z / (1 - uhat_1)
    rep = geometric_rep()
    z = np.array([2.0])
    u_next = np.array([0.1, 0.04])
    expected = z / (1.0 - 0.04)
    assert np.allclose(forward_step(StateAffineSystem(rep), z, u_next), expected)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_forward_geometric_product():
    uhat = discretize(constant_input(4.0, 0.5), 50)
    traj = simulate_forward(StateAffineSystem(geometric_rep()), uhat)
    assert traj.outputs.size == 51
    assert traj.outputs[0] == pytest.approx(1.0)
    for N in (1, 10, 50):
        assert traj.outputs[N] == pytest.approx((1 - 0.04) ** (-N), rel=1e-13)
    assert traj.outputs[-1] == pytest.approx(0.96**-50, rel=1e-13)


def test_forward_backward_round_trip(rng):
    mats = [rng.uniform(-0.4, 0.4, (3, 3)) for _ in range(3)]
    sys = StateAffineSystem(
        LinearRepresentation(mats, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    )
    uhat = random_uhat(rng, m=2, L=12)
    fwd = simulate_forward(sys, uhat)
    back = simulate_backward(sys, uhat, terminal_state=fwd.states[-1])
    assert np.allclose(back.states, fwd.states, atol=1e-11)
    # default terminal data is gamma: running forward from the backward
    # trajectory's start recovers gamma at the end
    back2 = simulate_backward(sys, uhat)
    assert np.allclose(back2.states[-1], sys.rep.gamma)
    refwd = simulate_forward(
        StateAffineSystem(
            LinearRepresentation(mats, back2.states[0], rng.uniform(-1, 1, 3))
        ),
        uhat,
    )
    assert np.allclose(refwd.states[-1], sys.rep.gamma, atol=1e-10)


def test_simulate_forward_partial_horizon():
    uhat = discretize(constant_input(4.0, 0.5), 50)
    traj = simulate_forward(StateAffineSystem(geometric_rep()), uhat, N_f=10)
    assert traj.outputs.size == 11
    with pytest.raises(DomainError):
        simulate_forward(StateAffineSystem(geometric_rep()), uhat, N_f=51)


def test_simulate_checks_alphabet_size():
    uhat = discretize(constant_input([1.0, 2.0], 0.5), 10)  # m = 2
    with pytest.raises(DomainError):
        simulate_forward(StateAffineSystem(geometric_rep()), uhat)


def test_policy_violation_reports_step():
    # increments grow over the horizon; the violation happens mid-run
    L = 10
    values = np.column_stack([np.full(L, 0.1), np.linspace(0.1, 1.2, L)])
    uhat = DiscreteInput(m=1, L=L, delta=0.1, values=values)
    with pytest.raises(PolicyViolation) as exc:
        simulate_forward(StateAffineSystem(geometric_rep()), uhat)
    assert "step" in str(exc.value)
    assert exc.value.step == 9


def test_policy_violation_reports_step_in_later_block():
    # the first violation lies in the second time block; a later one is ignored
    block = _block_steps(1)
    L = block + 500
    values = np.column_stack([np.full(L, 0.1), np.full(L, 0.01)])
    values[block + 99, 1] = 1.5
    values[block + 300, 1] = 2.0
    uhat = DiscreteInput(m=1, L=L, delta=0.1, values=values)
    with pytest.raises(PolicyViolation) as exc:
        simulate_forward(StateAffineSystem(geometric_rep()), uhat)
    assert exc.value.step == block + 100
    assert str(exc.value).startswith(f"step {block + 100}: ")


def test_singular_step_reported_by_simulate_forward():
    # I - B(N) = 0 exactly at one step of the second time block.  strict_norm
    # rejects that step before any solve, so simulate_forward's block step
    # runs on the stack directly: the batched solve fails, and the per-step
    # rerun names the step
    block = _block_steps(1)
    N = block + 7
    L = N + 5
    values = np.column_stack([np.full(L, 1e-3), np.full(L, 1e-4)])
    values[N - 1, 1] = 1.0
    M = np.eye(1) - geometric_rep().letter_sum(values[block:])
    with pytest.raises(SingularTransition) as exc:
        _forward_block(M, np.ones(1), first_step=block + 1)
    assert exc.value.step == N
    assert str(exc.value).startswith(f"step {N}: ")


def test_forward_reruns_when_products_overflow():
    # resolvents diag(10, 1/1.9) from gamma = (0, 1): the states decay, but
    # the pairwise products of 512 steps hold 10^512, and inf * 0 is NaN
    rep = LinearRepresentation([np.zeros((2, 2)), np.diag([1.0, -1.0])],
                               np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    L = 1000
    values = np.column_stack([np.full(L, 1e-3), np.full(L, 0.9)])
    uhat = DiscreteInput(m=1, L=L, delta=1e-3, values=values)
    states = simulate_forward(StateAffineSystem(rep), uhat).states
    assert np.all(states[:, 0] == 0.0)
    assert states[:, 1] == pytest.approx(1.9 ** -np.arange(L + 1), rel=1e-12, abs=0.0)


def test_ct_bilinear_reruns_when_products_overflow():
    # the field diag(2000, -1) from gamma = (0, 1): the first state stays 0,
    # but the pairwise RK4 products of 1024 steps pass e^1000
    rep = LinearRepresentation([np.diag([2000.0, -1.0]), np.zeros((2, 2))],
                               np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    u = constant_input(0.0, 1.0)
    times, outputs = ct_bilinear_simulate(rep, u, steps=2000)
    assert np.array_equal(outputs, staged_rk4(rep, u, 1.0, 2000)[1])
    assert outputs[-1] == pytest.approx(math.exp(-1.0), rel=1e-12)


# the ids keep the name of the invertibility rule the steps run under
@pytest.mark.parametrize("error", [pytest.param(PolicyViolation, id="strict_norm-PolicyViolation")])
def test_nan_increment_fails_both_policies(error):
    # a NaN norm compares false against its threshold, so the strict_norm
    # test must be written to fail on it
    values = np.column_stack([np.full(5, 0.01), np.full(5, 0.01)])
    values[1, 1] = np.nan
    uhat = DiscreteInput(m=1, L=5, delta=0.01, values=values)
    sys = StateAffineSystem(geometric_rep())
    with pytest.raises(error) as exc:
        simulate_forward(sys, uhat)
    assert exc.value.step == 2
    assert str(exc.value).startswith("step 2: ")
    with pytest.raises(error):
        forward_step(sys, np.ones(1), values[1])


@pytest.mark.parametrize("error", [pytest.param(NonFinite, id="strict_norm-NonFinite")])
def test_forward_overflow_names_the_first_step(error):
    # resolvent 1/(1 - 0.9) = 10 per step: 10^308 at step 308, inf at 309
    L = 340
    values = np.column_stack([np.full(L, 1.0 / L), np.full(L, 0.9)])
    uhat = DiscreteInput(m=1, L=L, delta=1.0 / L, values=values)
    sys = StateAffineSystem(geometric_rep())
    with pytest.raises(error) as exc:
        simulate_forward(sys, uhat)
    assert exc.value.step == 309
    assert str(exc.value).startswith("step 309: ")
    assert np.isfinite(simulate_forward(sys, uhat, N_f=308).outputs).all()
    with pytest.raises(error):
        forward_step(sys, np.array([1e308]), values[0])


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_chain_matches_sequential_matvecs(rng, dim):
    # every odd/even split of the pairwise reduction, and the empty stack
    for n in range(71):
        P = rng.uniform(-1, 1, (n, dim, dim)) / dim + np.eye(dim)
        z = rng.uniform(-1, 1, dim)
        states = _chain(P, z)
        assert states.shape == (n, dim)
        expected = []
        for k in range(n):
            z = P[k] @ z
            expected.append(z)
        expected = np.array(expected).reshape(n, dim)
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        assert np.max(np.abs(states - expected), initial=0.0) <= 1e-13 * scale, n


@pytest.mark.parametrize("n, L_blocks", [(1, 1.5), (3, 2.2), (8, 3.4)],
                         ids=["1-1.5-strict_norm", "3-2.2-strict_norm", "8-3.4-strict_norm"])
def test_simulate_matches_step_loops(rng, n, L_blocks):
    # oracle: the public one-step maps, applied one step at a time
    L = int(L_blocks * _block_steps(n))
    mats = [rng.uniform(-1, 1, (n, n)) / n for _ in range(3)]
    sys = StateAffineSystem(
        LinearRepresentation(mats, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)))
    uhat = random_uhat(rng, m=2, L=L, delta=2.0 / L, scale=4.0 / L)
    fwd = simulate_forward(sys, uhat)
    z = sys.rep.gamma.copy()
    expected = [z]
    for n_step in range(L):
        z = forward_step(sys, z, uhat.values[n_step])
        expected.append(z)
    expected = np.array(expected)
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.max(np.abs(fwd.states - expected)) <= 1e-13 * scale
    assert np.max(np.abs(fwd.outputs - expected @ sys.rep.lam)) <= 1e-13 * scale

    terminal = rng.uniform(-1, 1, n)
    back = simulate_backward(sys, uhat, terminal_state=terminal)
    z = terminal
    expected = [z]
    for n_step in range(L - 1, -1, -1):
        z = backward_step(sys, z, uhat.values[n_step])
        expected.append(z)
    expected = np.array(expected[::-1])
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.max(np.abs(back.states - expected)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# triangular realization of a single word
# ---------------------------------------------------------------------------

def test_triangular_word_realization(rng):
    """A chain of integrators realizes one iterated sum per state: state k
    holds the sum over the last k letters of the word."""
    word = (1, 0, 1)          # outermost letter first
    n = len(word) + 1
    mats = [np.zeros((n, n)) for _ in range(2)]
    # state k+1 integrates channel word[len(word)-1-k] against state k
    for k, letter in enumerate(reversed(word)):
        mats[letter][k + 1, k] = 1.0
    gamma = np.zeros(n)
    gamma[0] = 1.0
    lam = np.zeros(n)
    lam[-1] = 1.0
    sys = StateAffineSystem(LinearRepresentation(mats, gamma, lam))
    uhat = random_uhat(rng, m=1, L=9)
    traj = simulate_forward(sys, uhat)
    expected = iterated_sum_trajectory(word, uhat)
    assert np.allclose(traj.outputs, expected, atol=1e-13)
    # intermediate states hold the suffix sums
    assert np.allclose(traj.states[:, 1], iterated_sum_trajectory(word[-1:], uhat), atol=1e-13)
    assert np.allclose(traj.states[:, 2], iterated_sum_trajectory(word[-2:], uhat), atol=1e-13)


# ---------------------------------------------------------------------------
# continuous bilinear bridge
# ---------------------------------------------------------------------------

def test_ct_bilinear_exponential():
    times, outputs = ct_bilinear_simulate(geometric_rep(), constant_input(4.0, 0.5))
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.5)
    assert outputs[0] == pytest.approx(1.0)
    assert outputs[-1] == pytest.approx(math.exp(2.0), rel=1e-10)


def test_ct_bilinear_tracks_time_varying_input():
    # dz/dt = u(t) z with u = a sin(w t): z(t) = exp(a (1 - cos(w t)) / w)
    a, w = 1.5, 7.0
    u = ContinuousInput([SinusoidChannel(a, w)], 2.0)
    times, outputs = ct_bilinear_simulate(geometric_rep(), u, steps=400)
    expected = np.exp(a * (1.0 - np.cos(w * times)) / w)
    assert np.max(np.abs(outputs / expected - 1.0)) < 1e-9


def test_ct_bilinear_rejects_explosion():
    rep = LinearRepresentation(
        [np.array([[0.0]]), np.array([[100.0]])],
        np.array([1.0]),
        np.array([1.0]),
    )
    with pytest.raises(NonFinite):
        ct_bilinear_simulate(rep, constant_input(100.0, 10.0), steps=50)


def staged_rk4(rep, u, T, steps):
    """The classical k1..k4 stages, one step at a time: the slow route that
    the one-step propagators of ct_bilinear_simulate replace."""
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    stage_times = np.linspace(0.0, T, 2 * steps + 1)
    weights = np.column_stack([np.ones_like(stage_times)]
                              + [u.value(j, stage_times) for j in range(1, rep.m + 1)])
    z = np.array(rep.gamma, dtype=float)
    outputs = np.empty(steps + 1)
    outputs[0] = float(rep.lam @ z)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            field = rep.letter_sum(weights[2 * k])
            field_mid = rep.letter_sum(weights[2 * k + 1])
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


def random_channel(rng, kind, T):
    if kind == "sinusoid":
        return SinusoidChannel(rng.uniform(0.5, 2.0), rng.uniform(1.0, 20.0), rng.uniform(0, 3))
    if kind == "piecewise_constant":
        breaks = np.sort(rng.uniform(0.0, T, size=3))
        return PiecewiseConstantChannel(breaks.tolist(), rng.uniform(-2, 2, size=4).tolist())
    times = np.linspace(0.0, T, 9)
    return SampledChannel(times, rng.uniform(-2, 2, size=9))


@pytest.mark.parametrize(
    "m, n, kinds",
    [
        (1, 1, ("sinusoid",)),
        (1, 8, ("piecewise_constant",)),
        (2, 3, ("sampled", "sinusoid")),
        (2, 8, ("sinusoid", "piecewise_constant")),
        (2, 5, ("piecewise_constant", "sampled")),
    ],
)
def test_ct_bilinear_matches_staged_rk4(rng, m, n, kinds):
    T = 1.0
    mats = [rng.uniform(-1, 1, (n, n)) * (1.5 / n) for _ in range(m + 1)]
    rep = LinearRepresentation(mats, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    u = ContinuousInput([random_channel(rng, kind, T) for kind in kinds], T)
    block = _block_steps(n)
    for steps in sorted({1, 7, block - 1, block, block + 1, 2001, 4097}):
        times, outputs = ct_bilinear_simulate(rep, u, steps=steps)
        ref_times, ref_outputs = staged_rk4(rep, u, T, steps)
        assert np.array_equal(times, ref_times)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ref_outputs))))
        assert np.max(np.abs(outputs - ref_outputs)) <= tol, steps


TRIANGULAR_REP = LinearRepresentation(
    [np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 0.8]])],
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]),
)


@pytest.mark.parametrize(
    "rep, level, steps",
    [
        # overflow near t = 7.0 and 4.7, in the first time block of each; the
        # classical stages overflow a step before the propagated state would
        (geometric_rep(), 100.0, 6000),
        (TRIANGULAR_REP, 150.0, 3000),
        # the stages overflow at step 4096, mid-block
        (geometric_rep(), 103.05, 6000),
        # the first two again, overflowing in the second time block
        (geometric_rep(), 100.0, 24000),
        (TRIANGULAR_REP, 150.0, 12000),
        # the stages overflow at step 16384, the last of the first block, while
        # the propagated state stays finite until the next block
        (geometric_rep(), 103.04, 24000),
    ],
)
def test_ct_bilinear_nonfinite_names_first_time(rep, level, steps):
    u = constant_input(level, 10.0)
    with pytest.raises(NonFinite) as expected:
        staged_rk4(rep, u, 10.0, steps)
    with pytest.raises(NonFinite) as exc:
        ct_bilinear_simulate(rep, u, steps=steps)
    assert str(exc.value) == str(expected.value)


def test_ct_bilinear_memory_stays_flat(rng):
    # no (steps + 1, n) state array: only the stage weights grow with steps
    n = 8
    mats = [rng.uniform(-1, 1, (n, n)) / n for _ in range(2)]
    rep = LinearRepresentation(mats, np.ones(n), np.ones(n))
    u = ContinuousInput([SinusoidChannel(1.0, 3.0)], 1.0)
    tracemalloc.start()
    try:
        times, outputs = ct_bilinear_simulate(rep, u, steps=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outputs.shape == (10**5 + 1,)
    assert peak < 9.5 * 2**20


def test_resolvent_converges_to_bilinear_first_order():
    # the implicit step is a first-order integrator: halving Delta halves the
    # endpoint error
    target = math.exp(2.0)
    errors = []
    for L in (50, 100, 200, 400):
        uhat = discretize(constant_input(4.0, 0.5), L)
        out = simulate_forward(StateAffineSystem(geometric_rep()), uhat).outputs[-1]
        errors.append(abs(out - target))
    for e1, e2 in zip(errors, errors[1:]):
        assert e1 / e2 == pytest.approx(2.0, rel=0.15)


# ---------------------------------------------------------------------------
# one-step identity
# ---------------------------------------------------------------------------

def test_one_step_identity_randoms(rng):
    worst = 0.0
    for _ in range(20):
        c = random_polynomial_series(rng, m=2, max_len=3, n_terms=5)
        uhat = discretize(random_pc_input(rng, m=2, T=1.0), 6)
        N = int(rng.integers(0, 6))
        J = int(rng.integers(1, 5))
        worst = max(worst, one_step_identity_check(c, uhat, N, J))
    assert worst < 1e-12


def test_one_step_identity_domain():
    c = random_polynomial_series(np.random.default_rng(0), m=1)
    uhat = discretize(constant_input(1.0, 1.0), 4)
    with pytest.raises(DomainError):
        one_step_identity_check(c, uhat, 4, 2)  # needs N+1 <= L
    with pytest.raises(DomainError):
        one_step_identity_check(c, uhat, 0, -1)
    # J = 0 keeps only the empty word on both sides: exactly zero residual
    assert one_step_identity_check(c, uhat, 0, 0) == 0.0
