"""Iterated integrals, iterated sums, and the truncated series evaluations
built on them."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from fliess.algebra import (
    Alphabet,
    CapExceeded,
    DomainError,
    LinearRepresentation,
    Polynomial,
    SeriesSpec,
    enumerate_words_upto,
)
import fliess.operators as operators
from fliess.operators import (
    _BLOCK_FLOATS,
    chen_truncation,
    dt_fliess_trajectory,
    fliess_truncated,
    iterated_integral,
    iterated_sum,
    iterated_sum_trajectory,
)
from fliess.signals import (
    CatenatedChannel,
    ContinuousInput,
    PiecewiseConstantChannel,
    QuadratureFailure,
    SampledChannel,
    SinusoidChannel,
    catenate,
    constant_input,
    discretize,
)

from conftest import random_pc_input, random_polynomial_series
from oracles import iterated_integral_pc, iterated_sum_cumsum, iterated_sum_partition, shuffle


# ---------------------------------------------------------------------------
# iterated integrals (adaptive quadrature route)
# ---------------------------------------------------------------------------

def test_empty_word_integral_is_one():
    u = constant_input(2.0, 1.0)
    assert iterated_integral((), u) == 1.0
    assert iterated_integral((), u, t=0.0) == 1.0


def test_drift_powers():
    u = ContinuousInput([], 2.0)
    for k in range(1, 5):
        for t in (0.5, 1.7):
            assert iterated_integral((0,) * k, u, t=t) == pytest.approx(
                t**k / math.factorial(k), rel=1e-11
            )


def test_single_letter_is_plain_integral():
    u = ContinuousInput([SinusoidChannel(1.0, 20.0)], 0.5)
    assert iterated_integral((1,), u) == pytest.approx(
        (1.0 - math.cos(10.0)) / 20.0, abs=1e-12
    )


def test_mixed_word_closed_form():
    # integral of tau*sin(20 tau) over [0, 1/2]
    u = ContinuousInput([SinusoidChannel(1.0, 20.0)], 0.5)
    expected = math.sin(10.0) / 400.0 - math.cos(10.0) / 40.0
    assert iterated_integral((1, 0), u) == pytest.approx(expected, abs=1e-12)


def test_integral_respects_shuffle_identity():
    # E_{w1}E_{w2} = sum of shuffle coefficients times E_w
    u = ContinuousInput([SinusoidChannel(2.0, 5.0)], 0.8)
    w1, w2 = (1,), (0, 1)
    lhs = iterated_integral(w1, u) * iterated_integral(w2, u)
    rhs = sum(
        cw * iterated_integral(w, u) for w, cw in shuffle(w1, w2).terms.items()
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_integral_domain_checks():
    u = constant_input(1.0, 0.5)
    with pytest.raises(DomainError):
        iterated_integral((1,), u, t=0.7)
    with pytest.raises(DomainError):
        iterated_integral((2,), u)


def test_quadrature_failure_when_refinements_exhausted():
    u = ContinuousInput([SinusoidChannel(1.0, 500.0)], 1.0)
    layers = operators._word_layers(SeriesSpec(Alphabet(1), polynomial=Polynomial({(1, 1): 1.0})), 2)
    with pytest.raises(QuadratureFailure):
        operators._romberg(layers, u, None, 1e-14, lambda ends: ends[-1][:, 0], max_refinements=1)


def test_many_times_domain_error_names_the_time():
    u = constant_input([1.0, 0.5], 0.5)
    c = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1, 2): 1.0}))
    with pytest.raises(DomainError, match=r"evaluation time 0\.7 outside \[0, 0\.5\]") as exc:
        fliess_truncated(c, u, 2, t=np.array([0.1, 0.7, 0.3]))
    assert "0.1" not in str(exc.value) and "0.3" not in str(exc.value)


def test_quadrature_failure_names_the_worst_sample():
    # the second half replays the first with the opposite sign on the same
    # panels, so the panel-rule errors of E_1 cancel at T and peak at 0.5
    u = ContinuousInput([CatenatedChannel(SinusoidChannel(1.0, 500.0),
                                          SinusoidChannel(1.0, 500.0, math.pi), 0.5)], 1.0)
    layers = operators._word_layers(SeriesSpec(Alphabet(1), polynomial=Polynomial({(1,): 1.0})), 1)
    with pytest.raises(QuadratureFailure, match=r"at t=0\.5 did not reach"):
        operators._romberg(layers, u, np.array([0.0, 0.5, 1.0]), 1e-10,
                           lambda ends: ends[-1][:, 0], max_refinements=1)
    # the sample at T alone converges within the same two levels
    at_T = operators._romberg(layers, u, np.array([1.0]), 1e-10, lambda ends: ends[-1][:, 0],
                              max_refinements=1)
    assert at_T[0] == pytest.approx(0.0, abs=1e-12)


def test_romberg_reads_every_sample_once_per_level(monkeypatch):
    u = ContinuousInput([SinusoidChannel(0.8, 9.0), SinusoidChannel(-0.5, 4.0, 0.3)], 0.6)
    c = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1,): 0.5, (1, 2): -1.0, (2, 0, 1): 2.0}))
    layers = operators._word_layers(c, 3)
    levels = []
    graded = operators._graded
    monkeypatch.setattr(operators, "_graded",
                        lambda *args, **kwargs: levels.append(1) or graded(*args, **kwargs))
    reads = []

    def read(ends):
        reads.append(ends)
        return ends[-1][:, 0]

    times = np.array([0.0, 0.05, 0.3, 0.31, 0.6])
    values = operators._romberg(layers, u, times, 1e-10, read)
    # one graded run and one read of every sample per level
    assert len(reads) == len(levels) > 1
    for ends in reads:
        assert [e.shape for e in ends] == [(len(times), w.size) for w in layers[1]]
        # the sample at t = 0 reads [V_0, 0, ...]
        assert [list(e[0]) for e in ends] == [[1.0]] + [[0.0] * w.size for w in layers[1][1:]]
    one_at_a_time = [operators._romberg(layers, u, t, 1e-10, lambda ends: ends[-1][:, 0])[0]
                     for t in times]
    assert values == pytest.approx(one_at_a_time, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# piecewise-constant fast path
# ---------------------------------------------------------------------------

def test_pc_constant_input_closed_form():
    u = constant_input([3.0, -2.0], 0.7)
    for eta in [(1,), (1, 2), (2, 0, 1), (1, 1, 2, 0)]:
        levels = {0: 1.0, 1: 3.0, 2: -2.0}
        prod = 1.0
        for letter in eta:
            prod *= levels[letter]
        expected = prod * 0.7 ** len(eta) / math.factorial(len(eta))
        assert iterated_integral_pc(eta, u) == pytest.approx(expected, rel=1e-13)


def test_pc_matches_quadrature_on_random_inputs(rng):
    for _ in range(10):
        u = random_pc_input(rng, m=2, T=1.0)
        for eta in [(1,), (2, 1), (1, 0, 2)]:
            assert iterated_integral_pc(eta, u) == pytest.approx(
                iterated_integral(eta, u), abs=1e-11
            )


def test_pc_rejects_smooth_channels():
    u = ContinuousInput([SinusoidChannel(1.0, 2.0)], 1.0)
    with pytest.raises(DomainError):
        iterated_integral_pc((1,), u)


# ---------------------------------------------------------------------------
# Chen series truncation
# ---------------------------------------------------------------------------

def test_chen_coefficients_are_iterated_integrals(rng):
    u = random_pc_input(rng, m=1, T=0.9)
    p = chen_truncation(u, 3)
    assert p.coefficient(()) == 1.0
    assert p.degree() <= 3
    for w in enumerate_words_upto(Alphabet(1), 3):
        assert p.coefficient(w) == pytest.approx(
            iterated_integral_pc(w, u), abs=1e-13
        )


def test_chen_catenation_identity(rng):
    # response to u-then-v equals the catenation product P[v] . P[u]
    for _ in range(5):
        lu, lv = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        Tu, Tv = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
        u, v = constant_input(lu, Tu), constant_input(lv, Tv)
        w = catenate(u, v, Tu)
        J = 3
        lhs = chen_truncation(w, J)
        rhs = chen_truncation(v, J).cat_product(chen_truncation(u, J), max_len=J)
        assert lhs.allclose(rhs, tol=1e-12)


# ---------------------------------------------------------------------------
# iterated sums
# ---------------------------------------------------------------------------

def test_sum_closed_forms():
    uhat = discretize(constant_input(1.0, 1.0), 8)
    d = uhat.delta
    for N in range(0, 9):
        assert iterated_sum((), uhat, N) == 1.0
        assert iterated_sum((0,), uhat, N) == pytest.approx(N * d)
        assert iterated_sum((0, 0), uhat, N) == pytest.approx(d * d * math.comb(N + 1, 2))
        assert iterated_sum((0, 0, 0), uhat, N) == pytest.approx(d**3 * math.comb(N + 2, 3))


def test_sum_matches_partition_enumeration(rng):
    """Recursive evaluation against brute-force summation over non-increasing
    index assignments, small exhaustive sweep."""
    uhat = discretize(random_pc_input(rng, m=1, T=1.0), 5)
    for length in range(1, 4):
        for eta in product(range(2), repeat=length):
            for N in range(0, 6):
                assert iterated_sum(eta, uhat, N) == pytest.approx(
                    iterated_sum_partition(eta, uhat, N), abs=1e-13
                )


def test_partition_outermost_letter_gets_largest_index():
    # hand expansion for a length-2 word: S_{x1 x0}(2) with distinct values
    values = np.array([[0.5, 10.0], [0.5, 1000.0]])
    uhat_vals = np.column_stack([np.full(2, 0.5), values[:, 1]])
    from fliess.signals import DiscreteInput

    uhat = DiscreteInput(m=1, L=2, delta=0.5, values=uhat_vals)
    # S_{x1x0}(2) = sum_{2 >= k1 >= k2 >= 1} u1(k1) u0(k2)
    expected = 10.0 * 0.5 + 1000.0 * 0.5 + 1000.0 * 0.5
    assert iterated_sum_partition((1, 0), uhat, 2) == pytest.approx(expected)
    assert iterated_sum((1, 0), uhat, 2) == pytest.approx(expected)


def test_partition_cap():
    uhat = discretize(constant_input(1.0, 1.0), 30)
    with pytest.raises(CapExceeded):
        iterated_sum_partition((0, 0, 0, 0, 0), uhat, cap=100)


def test_sum_trajectory_consistent():
    uhat = discretize(constant_input(2.0, 1.0), 6)
    traj = iterated_sum_trajectory((1, 0), uhat)
    assert traj.shape == (7,)
    for N in range(7):
        assert traj[N] == pytest.approx(iterated_sum((1, 0), uhat, N))
    assert iterated_sum_trajectory((), uhat).tolist() == [1.0] * 7


def test_sum_trajectory_matches_the_cumsum_loop_bitwise(rng):
    """The graded recursion on a monomial against one cumulative sum per
    letter, at every N; L = 70 000 spans two time blocks of the recursion."""
    assert _BLOCK_FLOATS < 70_000
    for trial in range(60):
        m = int(rng.integers(1, 4))
        L = 70_000 if trial < 2 else int(rng.integers(1, 400))
        u = random_pc_input(rng, m=m, T=float(rng.uniform(0.1, 3.0)), max_pieces=6, scale=2.0)
        uhat = discretize(u, L)
        eta = tuple(int(l) for l in rng.integers(0, m + 1, size=int(rng.integers(0, 6))))
        traj = iterated_sum_trajectory(eta, uhat)
        assert traj.tobytes() == iterated_sum_cumsum(eta, uhat).tobytes()
        N = int(rng.integers(0, L + 1))
        assert (iterated_sum_trajectory(eta, uhat, N).tobytes()
                == iterated_sum_cumsum(eta, uhat, N).tobytes())
        assert iterated_sum(eta, uhat, N) == traj[N]


# ---------------------------------------------------------------------------
# discrete-time series evaluation
# ---------------------------------------------------------------------------

def _word_sum_cases(rng):
    for _ in range(4):
        c = random_polynomial_series(rng, m=2, max_len=3, n_terms=5)
        yield c, discretize(random_pc_input(rng, m=2, T=1.0), 6), 3
    # a callback over three letters at J = 8: the widest layer holds 3**8
    # words, so the recursion runs in time blocks shorter than L
    c = SeriesSpec(
        Alphabet(2),
        callback=lambda w: math.sin(1.0 + sum((k + 1) * (l + 1) for k, l in enumerate(w))),
    )
    uhat = discretize(random_pc_input(rng, m=2, T=1.0), 30)
    assert _BLOCK_FLOATS // 3**8 < uhat.L
    yield c, uhat, 8


def test_dt_fliess_matches_word_sum(rng):
    for c, uhat, J in _word_sum_cases(rng):
        traj = dt_fliess_trajectory(c, uhat, J)
        sums = {w: iterated_sum_trajectory(w, uhat) for w in enumerate_words_upto(Alphabet(2), J)}
        for N in (0, uhat.L // 2, uhat.L):
            direct = sum(c.coefficient(w) * s[N] for w, s in sums.items())
            assert traj[N] == pytest.approx(direct, abs=1e-12)


# heavy cancellation: on two channels a factor 1 + 1e-9 apart, the two 1e6
# terms cancel to about 1e-3
CANCELLING = {(1,): 1e6, (2,): -1e6, (1, 2): 1.0}


def _assert_layer_sum_accuracy(value, parts):
    """|value - fsum(parts)| within 8 (#words) eps sum |parts|: the accuracy
    of a plain left-to-right sum of the layer contributions."""
    bound = 8 * len(parts) * np.finfo(float).eps * math.fsum(map(abs, parts))
    assert abs(value - math.fsum(parts)) <= bound


def test_dt_fliess_plain_layer_sum_under_cancellation(rng):
    c = SeriesSpec(Alphabet(2), polynomial=Polynomial(CANCELLING))
    for _ in range(10):
        breaks = np.unique(rng.uniform(0.0, 1.0, size=3)).tolist()
        levels = rng.uniform(-1.0, 1.0, size=len(breaks) + 1)
        u = ContinuousInput([PiecewiseConstantChannel(breaks, levels.tolist()),
                             PiecewiseConstantChannel(breaks, (levels * (1 + 1e-9)).tolist())], 1.0)
        uhat = discretize(u, 40)
        traj = dt_fliess_trajectory(c, uhat, 2)
        sums = {w: iterated_sum_cumsum(w, uhat) for w in CANCELLING}
        for N in range(uhat.L + 1):
            _assert_layer_sum_accuracy(traj[N], [cw * sums[w][N] for w, cw in CANCELLING.items()])


def test_fliess_truncated_plain_layer_sum_under_cancellation(rng):
    # dyadic breakpoints and 12-bit levels keep every panel-rule layer value
    # exact, so the comparison measures the layer sum alone (on general data
    # the rounding of E_1 and E_2 themselves, times 1e6, exceeds this bound)
    c = SeriesSpec(Alphabet(2), polynomial=Polynomial(CANCELLING))
    times = np.arange(9) / 8
    for _ in range(10):
        breaks = (np.unique(rng.integers(1, 8, size=3)) / 8).tolist()
        levels = rng.integers(-2**12, 2**12 + 1, size=len(breaks) + 1) / 2**12
        u = ContinuousInput([PiecewiseConstantChannel(breaks, levels.tolist()),
                             PiecewiseConstantChannel(breaks, (levels * (1 + 2.0**-30)).tolist())],
                            1.0)
        for t, y in zip(times, fliess_truncated(c, u, 2, t=times)):
            _assert_layer_sum_accuracy(
                y, [cw * iterated_integral_pc(w, u, t=float(t)) for w, cw in CANCELLING.items()])


def _block_cases(rng):
    """A polynomial, a callback and a representation over two letters."""
    yield random_polynomial_series(rng, m=2, max_len=3, n_terms=5)
    yield SeriesSpec(
        Alphabet(2),
        callback=lambda w: math.sin(1.0 + sum((k + 1) * (l + 1) for k, l in enumerate(w))),
    )
    mats = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(3)]
    yield SeriesSpec(Alphabet(2), representation=LinearRepresentation(
        mats, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)))


def _abs_layer_sum(vs, layers):
    """sum_j |vs[j]| . |w_j|, the scale of the rounding of a layer sum."""
    return operators._layer_sum([np.abs(v) for v in vs], [np.abs(w) for w in layers[1]])


def test_graded_results_do_not_depend_on_the_block_size(rng, monkeypatch):
    """Blocks of one to four rows against one block for the whole grid: every
    block boundary is a carry row, where an off-by-one would show.  At
    Romberg level l the sample t = k/4 is node 2**(l+1) k, so it sits on a
    block boundary for blocks of one and two rows, and of four from level 1."""
    eps = np.finfo(float).eps
    u = ContinuousInput([SinusoidChannel(0.8, 9.0), SinusoidChannel(-0.5, 4.0, 0.3)], 1.0)
    uhat = discretize(u, 13)
    times = np.arange(5) / 4
    J = 3
    for c in _block_cases(rng):
        layers = operators._word_layers(c, J)
        traj = dt_fliess_trajectory(c, uhat, J)
        values = fliess_truncated(c, u, J, t=times)
        traj_scale = np.concatenate([
            _abs_layer_sum(vs, layers)[k > 0:]
            for k, vs in enumerate(operators._graded(layers, uhat.values, panel=False))])
        values_scale = operators._romberg(layers, u, times, 1e-10,
                                          lambda ends: _abs_layer_sum(ends, layers))
        assert traj.shape == (uhat.L + 1,)
        for rows in (1, 2, 3, 4):
            monkeypatch.setattr(operators, "_BLOCK_FLOATS", layers[3] * rows)
            assert np.all(np.abs(dt_fliess_trajectory(c, uhat, J) - traj) <= 8 * eps * traj_scale)
            small = fliess_truncated(c, u, J, t=times)
            assert np.all(np.abs(small - values) <= 8 * eps * values_scale)
            monkeypatch.undo()


def test_word_layer_weights_are_the_series_coefficients():
    """The layer weights skip SeriesSpec.coefficient; each must still equal
    it, on suffix-only words (weight 0) and on a callback's words."""
    poly = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1, 2, 0): 0.5, (2, 1): -1.5, (): 2.0}))
    layers = [[()], [(0,), (1,)], [(2, 0), (2, 1)], [(1, 2, 0)]]
    _, weights, _, _, words = operators._word_layers(poly, 3)
    assert words == layers
    assert [w.tolist() for w in weights] == [[poly.coefficient(w) for w in layer]
                                             for layer in layers]
    assert weights[1].tolist() == [0.0, 0.0]
    callback = SeriesSpec(Alphabet(2), callback=lambda w: float(len(w)) - 0.25 * sum(w),
                          support_letters={0, 2})
    _, weights, _, _, words = operators._word_layers(callback, 3)
    for j, layer_weights in enumerate(weights):
        assert words[j] == list(product((0, 2), repeat=j))
        assert layer_weights.tolist() == [callback.coefficient(w) for w in words[j]]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_dt_fliess_representation_matches_word_route(m, rng):
    """The matrix action on a representation against the same series read
    word by word through a callback, with and without declared support."""
    for trial in range(6):
        n = int(rng.integers(1, 6))
        J = int(rng.integers(0, 7))
        mats = [rng.uniform(-1, 1, size=(n, n)) for _ in range(m + 1)]
        rep = LinearRepresentation(mats, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        support = None
        if trial % 2:
            size = int(rng.integers(1, m + 2))
            support = {int(x) for x in rng.choice(m + 1, size=size, replace=False)}
        uhat = discretize(random_pc_input(rng, m=m, T=1.0), 12)
        by_matrix = dt_fliess_trajectory(
            SeriesSpec(Alphabet(m), representation=rep, support_letters=support), uhat, J)
        by_words = dt_fliess_trajectory(
            SeriesSpec(Alphabet(m), callback=rep.coefficient, support_letters=support), uhat, J)
        scale = max(1.0, float(np.max(np.abs(by_words))))
        assert np.max(np.abs(by_matrix - by_words)) <= 1e-12 * scale


def test_dt_fliess_representation_memory_stays_flat(rng):
    n, L = 8, 10**5
    mats = [rng.uniform(-1, 1, size=(n, n)) / n for _ in range(2)]
    c = SeriesSpec(Alphabet(1), representation=LinearRepresentation(mats, np.ones(n), np.ones(n)))
    uhat = discretize(constant_input(0.5, 1.0), L)
    tracemalloc.start()
    try:
        traj = dt_fliess_trajectory(c, uhat, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.shape == (L + 1,)
    assert peak < 16 * 2**20


def test_dt_fliess_truncated_result_fields():
    c = SeriesSpec(Alphabet(1), polynomial=Polynomial({(): 2.0, (1,): 1.0}))
    uhat = discretize(constant_input(3.0, 1.0), 4)
    res = dt_fliess_trajectory(c, uhat, J=2)[-1]
    assert isinstance(res, float)
    assert res == pytest.approx(2.0 + 3.0)  # 2 + sum of increments


def test_dt_fliess_trajectory_starts_at_empty_coefficient():
    c = SeriesSpec(Alphabet(1), polynomial=Polynomial({(): -1.5, (1, 1): 2.0}))
    uhat = discretize(constant_input(1.0, 1.0), 3)
    traj = dt_fliess_trajectory(c, uhat, J=4)
    assert traj[0] == pytest.approx(-1.5)


def test_dt_fliess_support_restriction_matches_full_alphabet():
    # series supported on letter 1 only: restricting evaluation to that
    # letter must not change values
    c1 = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1,): 1.0, (1, 1): 0.5}))
    c2 = SeriesSpec(
        Alphabet(2),
        callback=lambda w: {(1,): 1.0, (1, 1): 0.5}.get(w, 0.0),
    )
    uhat = discretize(constant_input([2.0, -1.0], 1.0), 5)
    t1 = dt_fliess_trajectory(c1, uhat, 2)
    t2 = dt_fliess_trajectory(c2, uhat, 2)  # callback: full alphabet sweep
    assert np.allclose(t1, t2, atol=1e-13)


def test_dt_fliess_cap():
    c = SeriesSpec(Alphabet(2), callback=lambda w: 1.0)
    uhat = discretize(constant_input([1.0, 1.0], 1.0), 4)
    with pytest.raises(CapExceeded):
        dt_fliess_trajectory(c, uhat, J=15)


# ---------------------------------------------------------------------------
# continuous truncated evaluation
# ---------------------------------------------------------------------------

def test_fliess_truncated_polynomial_series():
    # F = 1 + 2 E_{x1}: on u = 3 over [0, 0.5] gives 1 + 2*1.5
    c = SeriesSpec(Alphabet(1), polynomial=Polynomial({(): 1.0, (1,): 2.0}))
    u = constant_input(3.0, 0.5)
    res = fliess_truncated(c, u, J=4)
    assert isinstance(res, float)
    assert res == pytest.approx(4.0, abs=1e-12)


def test_fliess_truncated_callback_series():
    # sum over drift powers: callback 1 on x0^j reproduces exp(t) truncated
    c = SeriesSpec(Alphabet(0), callback=lambda w: 1.0)
    u = ContinuousInput([], 1.0)
    res = fliess_truncated(c, u, J=12)
    assert res == pytest.approx(math.e, abs=1e-9)


def test_polynomial_evaluates_only_its_support_words():
    # all words of length <= 25 over three letters would exceed the cap; the
    # support words and their suffixes are three
    c = SeriesSpec(Alphabet(2), polynomial=Polynomial({(1, 2): 1.0, (): 1.0}))
    u = ContinuousInput([SinusoidChannel(1.0, 3.0), SinusoidChannel(0.5, 7.0)], 1.0)
    uhat = discretize(u, 40)
    assert fliess_truncated(c, u, 25) == fliess_truncated(c, u, 2)
    assert dt_fliess_trajectory(c, uhat, 25)[-1] == dt_fliess_trajectory(c, uhat, 2)[-1]


# ---------------------------------------------------------------------------
# layered Romberg route against the per-word route it replaced
# ---------------------------------------------------------------------------

def _per_word_romberg(eta, u, t, tol=1e-12, max_refinements=14):
    """E_eta[u](t) by one Romberg run per word: the cumulative panel rule,
    innermost letter first, on breakpoint-aligned grids, extrapolated until
    consecutive diagonal entries agree."""
    if not eta:
        return 1.0
    edges = [0.0, *(b for b in u.breakpoints() if b < t), t]
    base_splits = 1
    while (len(edges) - 1) * base_splits < 8:
        base_splits *= 2
    prev_row = []
    for level in range(max_refinements + 1):
        splits = base_splits << level
        nodes = np.concatenate([*(np.linspace(a, b, splits + 1)[:-1]
                                  for a, b in zip(edges[:-1], edges[1:])), [t]])
        widths = np.diff(nodes)
        mids = nodes[:-1] + 0.5 * widths
        g = np.ones_like(nodes)
        for letter in reversed(eta):
            uvals = 1.0 if letter == 0 else np.asarray(u.value(letter, mids), dtype=float)
            g = np.concatenate(([0.0], np.cumsum(uvals * (0.5 * (g[:-1] + g[1:])) * widths)))
        row = [float(g[-1])]
        for j, lower in enumerate(prev_row, start=1):
            row.append(row[j - 1] + (row[j - 1] - lower) / (4.0**j - 1.0))
        if prev_row and abs(row[-1] - prev_row[-1]) <= max(tol, 1e-14 * abs(row[-1])):
            return row[-1]
        prev_row = row
    raise AssertionError(f"per-word Romberg did not converge on {eta}")


def _oracle_input(kind, rng):
    T = 0.8
    smooth = ContinuousInput(
        [SinusoidChannel(0.8, 6.0, 0.3),
         SampledChannel(np.linspace(0.0, T, 7), rng.uniform(-1.0, 1.0, 7))], T)
    pc = random_pc_input(rng, m=2, T=T)
    return {"smooth": smooth, "piecewise_constant": pc,
            "catenated": catenate(smooth, pc, 0.35)}[kind]


def _oracle_series(rng):
    yield random_polynomial_series(rng, m=2, max_len=4, n_terms=8)
    def wave(w):
        return math.sin(1.0 + sum((k + 1) * (l + 1) for k, l in enumerate(w)))

    yield SeriesSpec(Alphabet(2), callback=wave)
    yield SeriesSpec(Alphabet(2), callback=wave, support_letters={0, 2})
    n = 3
    mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(3)]
    rep = LinearRepresentation(mats, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    yield SeriesSpec(Alphabet(2), representation=rep)


@pytest.mark.parametrize("kind", ["smooth", "piecewise_constant", "catenated"])
def test_layered_romberg_matches_per_word_romberg(kind, rng):
    u = _oracle_input(kind, rng)
    J = 4
    cache = {}

    def oracle(w, t):
        if (w, t) not in cache:
            cache[w, t] = _per_word_romberg(w, u, t)
        return cache[w, t]

    for t in (u.T, 0.6 * u.T):
        for c in _oracle_series(rng):
            words = enumerate_words_upto(c.evaluation_letters(), J)
            expected = math.fsum(c.coefficient(w) * oracle(w, t) for w in words)
            assert fliess_truncated(c, u, J, t=t) == pytest.approx(expected, abs=1e-9)
        chen = chen_truncation(u, 3, t=t)
        for w in enumerate_words_upto(Alphabet(2), 3):
            assert chen.coefficient(w) == pytest.approx(oracle(w, t), abs=1e-9)
        for w in [(), (2,), (1, 0), (2, 1, 2), (0, 1, 2, 1)]:
            assert iterated_integral(w, u, t=t) == pytest.approx(oracle(w, t), abs=1e-9)
    # one sweep for many times, unsorted, against one scalar call per time
    T = u.T
    times = np.array([0.61 * T, 0.0, T, u.breakpoints()[0], 0.61 * T + 2e-12 * T, 0.37 * T])
    for c in _oracle_series(rng):
        values = fliess_truncated(c, u, J, t=times)
        assert values.shape == times.shape
        for ti, value in zip(times, values):
            assert value == pytest.approx(fliess_truncated(c, u, J, t=ti),
                                          rel=0, abs=1e-12 * max(1.0, abs(value)))


def test_chen_truncation_memory_stays_flat(monkeypatch):
    # at omega = 1000 Romberg runs to level 11, 16384 panels; the top layer
    # of 3**6 words over the whole grid would take about 95 MB at once
    panels = []
    graded = operators._graded

    def counting(layers, rows, panel):
        panels.append(len(rows))
        return graded(layers, rows, panel)

    monkeypatch.setattr(operators, "_graded", counting)
    u = ContinuousInput([SinusoidChannel(1.0, 1000.0), SinusoidChannel(1.0, 700.0)], 1.0)
    tracemalloc.start()
    try:
        p = chen_truncation(u, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(panels) > 11 and max(panels) >= 16384
    # words up to length 6 through the carries of every time block
    e1, e2 = p.coefficient((1,)), p.coefficient((2,))
    assert e1 == pytest.approx((1.0 - math.cos(1000.0)) / 1000.0, abs=1e-12)
    assert p.coefficient((1, 2)) + p.coefficient((2, 1)) == pytest.approx(e1 * e2, abs=1e-12)
    # E_1 E_00 = E_100 + E_010 + E_001, with E_00(1) = 1/2
    assert sum(p.coefficient(w) for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == pytest.approx(
        e1 / 2, abs=1e-12)
    assert p.coefficient((0,) * 6) == pytest.approx(1.0 / 720.0, abs=1e-12)
    assert peak < 16 * 2**20
