"""Input channels, discretization rules, and signal norms.

scipy.integrate.quad serves as the independent quadrature oracle throughout;
the library itself never imports scipy.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fliess.algebra import DomainError
from fliess.signals import (
    CatenatedChannel,
    ConstantChannel,
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
    SampledChannel,
    SinusoidChannel,
    catenate,
    constant_input,
    discretize,
    l1_norm,
)

from conftest import random_pc_input
from oracles import discretize_per_step, scalar_channel


def quad_increment(f, a, b):
    val, _ = quad(f, a, b, limit=200)
    return val


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_constant_channel():
    ch = ConstantChannel(-2.5)
    assert ch.value(0.3) == -2.5
    assert ch.increment(0.0, 2.0) == -5.0
    assert ch.abs_increment(0.0, 2.0) == 5.0
    assert ch.breakpoints() == ()


def test_sinusoid_increment_matches_quadrature():
    ch = SinusoidChannel(1.5, 20.0, phase=0.4)
    f = lambda t: 1.5 * math.sin(20.0 * t + 0.4)
    for a, b in [(0.0, 0.5), (0.1, 0.13), (0.0, 3.0)]:
        assert ch.increment(a, b) == pytest.approx(quad_increment(f, a, b), abs=1e-12)


def test_sinusoid_abs_increment_crosses_zeros():
    ch = SinusoidChannel(2.0, 20.0)
    f = lambda t: abs(2.0 * math.sin(20.0 * t))
    # (0, 0.5) contains three zeros of sin(20t); quad needs them split out
    pieces = [0.0] + [k * math.pi / 20.0 for k in (1, 2, 3)] + [0.5]
    expected = sum(quad_increment(f, a, b) for a, b in zip(pieces, pieces[1:]))
    assert ch.abs_increment(0.0, 0.5) == pytest.approx(expected, abs=1e-12)
    # no interior zero: plain |integral|
    assert ch.abs_increment(0.01, 0.02) == pytest.approx(
        abs(ch.increment(0.01, 0.02)), abs=1e-15
    )


def test_piecewise_constant_channel():
    ch = PiecewiseConstantChannel([1.0, 2.0], [1.0, -3.0, 2.0])
    assert ch.value(0.5) == 1.0
    assert ch.value(1.0) == -3.0  # right-continuous at breakpoints
    assert ch.value(2.5) == 2.0
    assert ch.increment(0.5, 2.5) == pytest.approx(0.5 * 1.0 + 1.0 * (-3.0) + 0.5 * 2.0)
    assert ch.abs_increment(0.5, 2.5) == pytest.approx(0.5 + 3.0 + 1.0)
    assert ch.breakpoints() == (1.0, 2.0)


def test_piecewise_constant_validation():
    with pytest.raises(DomainError):
        PiecewiseConstantChannel([2.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        PiecewiseConstantChannel([1.0], [0.0])


def test_sampled_channel_interpolates_and_integrates():
    ch = SampledChannel([0.0, 1.0, 3.0], [0.0, 2.0, -2.0])
    assert ch.value(0.5) == pytest.approx(1.0)
    assert ch.value(2.0) == pytest.approx(0.0)
    # trapezoid on the polyline is exact
    assert ch.increment(0.0, 3.0) == pytest.approx(1.0 + 0.0)
    # |line| needs the root at t=2 split out
    assert ch.abs_increment(1.0, 3.0) == pytest.approx(1.0 + 1.0)
    f = lambda t: abs(np.interp(t, [0.0, 1.0, 3.0], [0.0, 2.0, -2.0]))
    assert ch.abs_increment(0.0, 3.0) == pytest.approx(
        quad_increment(f, 0.0, 2.0) + quad_increment(f, 2.0, 3.0), abs=1e-10
    )


def test_sampled_channel_validation():
    with pytest.raises(DomainError):
        SampledChannel([0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        SampledChannel([1.0, 0.5], [0.0, 0.0])


def test_catenated_channel_switches_at_tau():
    first = ConstantChannel(1.0)
    second = SinusoidChannel(1.0, 2.0)
    ch = CatenatedChannel(first, second, 0.5)
    assert ch.value(0.25) == 1.0
    # after tau the second channel runs on its own clock
    assert ch.value(0.75) == pytest.approx(math.sin(2.0 * 0.25))
    assert ch.increment(0.0, 1.0) == pytest.approx(
        0.5 + quad_increment(lambda t: math.sin(2.0 * t), 0.0, 0.5), abs=1e-12
    )


ARRAY_CHANNELS = {
    "constant": ConstantChannel(-1.7),
    "sinusoid": SinusoidChannel(1.3, 23.0, phase=0.4),
    "sinusoid_negative_omega": SinusoidChannel(-0.8, -17.0, phase=2.1),
    "sinusoid_zero_omega": SinusoidChannel(2.0, 0.0, phase=-0.3),
    "piecewise_constant": PiecewiseConstantChannel([0.1, 0.35, 0.5, 0.9],
                                                   [0.4, -1.2, 2.0, 0.0, -0.6]),
    # samples inside [0.2, 0.8], so intervals also reach the held ends
    "sampled": SampledChannel([0.2, 0.3, 0.41, 0.55, 0.6, 0.72, 0.8],
                              [0.5, -1.0, 0.75, 0.2, -0.3, 1.5, -0.9]),
    "catenated": CatenatedChannel(
        SampledChannel([0.0, 0.2, 0.45], [1.0, -0.5, 0.3]), SinusoidChannel(0.9, 11.0), 0.45),
    "catenated_steps": CatenatedChannel(
        PiecewiseConstantChannel([0.3], [-1.0, 2.0]), ConstantChannel(0.5), 0.6),
}


def _random_intervals(rng, ch, n=600):
    """Interval ends [a, b]: widths from 1e-6 to 1 anywhere in [-0.1, 1.1],
    ends exactly on the channel's knots (for a catenation, on tau), and a == b."""
    width = 10.0 ** rng.uniform(-6.0, 0.0, n)
    a = rng.uniform(-0.1, 1.1, n)
    b = a + width
    knots = np.array(ch.breakpoints())
    if knots.size:
        a[:100] = rng.choice(knots, 100)
        b[:100] = a[:100] + width[:100]
        b[100:200] = rng.choice(knots, 100)
        a[100:200] = b[100:200] - width[100:200]
    b[200:230] = a[200:230]
    return a, b


@pytest.mark.parametrize("kind", sorted(ARRAY_CHANNELS))
def test_array_integrals_match_the_scalar_oracle(kind, rng):
    ch = ARRAY_CHANNELS[kind]
    a, b = _random_intervals(rng, ch)
    inc, mag = ch.increment(a, b), ch.abs_increment(a, b)
    assert inc.shape == mag.shape == a.shape
    oracle = scalar_channel(ch)
    want_inc = np.array([oracle.increment(x, y) for x, y in zip(a, b)])
    want_mag = np.array([oracle.abs_increment(x, y) for x, y in zip(a, b)])
    assert np.all(np.abs(inc - want_inc) <= 1e-15 * want_mag)
    assert np.all(np.abs(mag - want_mag) <= 1e-14 * want_mag)
    # scalar ends give the same numbers as the array elements
    for k in (0, 150, 210, 400):
        assert ch.increment(float(a[k]), float(b[k])) == inc[k]
        assert ch.abs_increment(float(a[k]), float(b[k])) == mag[k]


@pytest.mark.parametrize("L", [1, 7, 64, 1000])
def test_discretize_exact_is_the_per_step_oracle_bitwise(L, rng):
    u = random_pc_input(rng, m=2, T=0.8, max_pieces=6)
    # up to 41 pieces in one step: summed in time order, as one loop would
    many = PiecewiseConstantChannel(np.linspace(0.01, 0.79, 40), rng.uniform(-1.0, 1.0, 41))
    u = ContinuousInput([ConstantChannel(-0.3), *u.channels, many,
                         ARRAY_CHANNELS["catenated_steps"]], 0.8)
    assert np.array_equal(discretize(u, L).values, discretize_per_step(u, L))


def test_sampled_channel_is_exact_at_its_samples(rng):
    times = np.sort(rng.uniform(0.0, 1.0, 30))
    samples = rng.uniform(-1.0, 1.0, 30)
    ch = SampledChannel(times, samples)
    assert np.array_equal(ch.value(times), samples)
    # trapezoid on the samples themselves, with no rounding of the line in between
    assert np.array_equal(ch.increment(times[:-1], times[1:]),
                          0.5 * (samples[:-1] + samples[1:]) * np.diff(times))


def test_large_batches_of_intervals_are_split(rng):
    # 1200 intervals against 4001 pieces exceed the work-array bound
    ch = SampledChannel(np.linspace(0.0, 1.0, 4000), rng.uniform(-1.0, 1.0, 4000))
    a = rng.uniform(0.0, 1.0, (40, 30))
    b = a + rng.uniform(0.0, 0.01, a.shape)
    for method in (ch.increment, ch.abs_increment):
        whole = method(a, b)
        assert whole.shape == a.shape
        assert np.array_equal(whole, [method(x, y) for x, y in zip(a, b)])


def test_discretize_makes_one_increment_call_per_channel(monkeypatch):
    u = ContinuousInput([ARRAY_CHANNELS[k] for k in ("sinusoid", "sampled", "catenated")], 1.0)
    calls = []
    for ch in u.channels:
        monkeypatch.setattr(ch, "increment",
                            lambda a, b, f=ch.increment: calls.append(np.shape(a)) or f(a, b))
    for L in (3, 3000):
        calls.clear()
        discretize(u, L)
        assert calls == [(L,)] * 3


# ---------------------------------------------------------------------------
# continuous inputs
# ---------------------------------------------------------------------------

def test_continuous_input_basics():
    u = ContinuousInput([SinusoidChannel(1.0, 20.0)], 0.5, label="sin(20t)")
    assert u.m == 1
    assert u.T == 0.5
    assert u.value(0, 0.3) == 1.0              # drift channel
    assert u.increment(0, 0.1, 0.4) == pytest.approx(0.3)
    assert u.increment(1, 0.0, u.T) == pytest.approx((1.0 - math.cos(10.0)) / 20.0)
    assert u.label == "sin(20t)"


def test_continuous_input_validation():
    with pytest.raises(DomainError):
        ContinuousInput([], 0.0)
    with pytest.raises(DomainError):
        ContinuousInput([], -1.0)


def test_breakpoints_are_interior_union():
    u = ContinuousInput(
        [
            PiecewiseConstantChannel([0.25, 0.5], [1.0, 2.0, 3.0]),
            PiecewiseConstantChannel([0.5, 0.9], [0.0, 1.0, 0.0]),
        ],
        1.0,
    )
    assert u.breakpoints() == (0.25, 0.5, 0.9)


def test_constant_input_builders():
    u = constant_input(4.0, 0.5)
    assert u.m == 1
    assert u.value(1, 0.2) == 4.0
    v = constant_input([1.0, -2.0], 1.0)
    assert v.m == 2
    assert v.increment(2, 0.0, v.T) == pytest.approx(-2.0)


def test_catenate_inputs():
    u = constant_input(1.0, 0.5)
    v = constant_input(-1.0, 0.75)
    w = catenate(u, v, 0.5)
    assert w.T == pytest.approx(1.25)
    assert w.value(1, 0.25) == 1.0
    assert w.value(1, 1.0) == -1.0
    assert w.increment(1, 0.0, 1.25) == pytest.approx(0.5 - 0.75)
    with pytest.raises(DomainError):
        catenate(u, v, 0.75)  # tau beyond u's horizon
    with pytest.raises(DomainError):
        catenate(u, constant_input([1.0, 2.0], 0.5), 0.25)  # m mismatch


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_exact_columns(rng):
    u = random_pc_input(rng, m=2, T=1.0)
    uhat = discretize(u, 8)
    assert uhat.L == 8
    assert uhat.delta == pytest.approx(1.0 / 8)
    assert np.allclose(uhat.channel(0), uhat.delta)
    for i in (1, 2):
        for N in range(1, 9):
            a, b = (N - 1) / 8, N / 8
            assert uhat.values[N - 1, i] == pytest.approx(
                u.increment(i, a, b), abs=1e-15
            )


def test_discretize_trapezoid_sinusoid_closed_form():
    # one-panel trapezoid of sin(omega t) over [(N-1)D, ND] equals
    # D*cos(omega*D/2)*sin(omega*(N-1/2)*D)
    omega, L, T = 20.0, 50, 0.5
    u = ContinuousInput([SinusoidChannel(1.0, omega)], T)
    uhat = discretize(u, L, rule="trapezoid")
    delta = T / L
    for N in (1, 7, 24, 50):
        expected = delta * math.cos(omega * delta / 2) * math.sin(omega * (N - 0.5) * delta)
        assert uhat.values[N - 1, 1] == pytest.approx(expected, abs=1e-15)


def test_discretize_trapezoid_equals_exact_for_constant():
    u = constant_input(3.0, 0.5)
    a = discretize(u, 10, rule="exact")
    b = discretize(u, 10, rule="trapezoid")
    assert np.allclose(a.values, b.values, atol=1e-16)


def test_discretize_validation():
    u = constant_input(1.0, 1.0)
    with pytest.raises(DomainError):
        discretize(u, 0)
    with pytest.raises(DomainError):
        discretize(u, 10, rule="simpson")
    # the rule is checked even when there is no channel to apply it to
    with pytest.raises(DomainError, match="bogus"):
        discretize(ContinuousInput([], 1.0), 4, rule="bogus")


def test_discrete_input_invariants():
    u = constant_input(2.0, 1.0)
    uhat = discretize(u, 4)
    assert uhat.T == pytest.approx(1.0)
    assert uhat.sup_norm() == pytest.approx(0.5)          # all channels, incl. drift
    assert uhat.sup_norm([1]) == pytest.approx(0.5)
    assert uhat.sup_norm() == uhat.sup_norm([0, 1])          # default: every channel
    pre = uhat.prefix(2)
    assert pre.L == 2 and pre.delta == uhat.delta
    assert np.array_equal(pre.values, uhat.values[:2])
    with pytest.raises(DomainError):
        uhat.prefix(5)
    with pytest.raises((ValueError, RuntimeError)):
        uhat.values[0, 0] = 99.0  # frozen storage
    # the storage is a frozen copy: the caller's array stays writable
    a = np.full((3, 2), 0.1)
    frozen = DiscreteInput(1, 3, 0.1, a)
    assert a.flags.writeable
    a[0, 1] = 5.0
    assert frozen.values[0, 1] == 0.1


def test_discrete_input_drift_column_checked():
    values = np.full((4, 2), 0.25)
    DiscreteInput(m=1, L=4, delta=0.25, values=values)
    bad = values.copy()
    bad[2, 0] = 0.3
    with pytest.raises(DomainError):
        DiscreteInput(m=1, L=4, delta=0.25, values=bad)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_l1_norm_sine():
    u = ContinuousInput([SinusoidChannel(1.0, 20.0)], 0.5)
    pieces = [0.0] + [k * math.pi / 20.0 for k in (1, 2, 3)] + [0.5]
    expected = sum(
        quad_increment(lambda t: abs(math.sin(20.0 * t)), a, b)
        for a, b in zip(pieces, pieces[1:])
    )
    assert l1_norm(u) == pytest.approx(expected, abs=1e-12)


def test_l1_norm_is_max_over_channels():
    u = constant_input([1.0, -3.0], 0.5)
    assert l1_norm(u) == pytest.approx(1.5)


def test_l1_norm_drift_only():
    assert l1_norm(ContinuousInput([], 1.0, label="drift")) == 0.0
