"""Top-level acceptance gate: one test per numbered criterion, so that
``pytest -v tests/test_acceptance.py`` prints one pass/fail line each.

Criterion 8 checks that the error estimates are achievable, one error source
at a time, as ``fliess.bounds`` keeps them apart.  On the constant-input
(worst-case) table rows the truncation tail is hit exactly, and the step
error meets the first-order-in-1/L estimate up to a relative excess that
halves each time L doubles.  It does not check the sum ``e_hat + e_tail``
of the statement-mode columns to 10% at L = 50: neither the paper nor the
method promises that.  The dropped second-order terms in 1/L are positive
and not small at L/J <= 5, and the statement closed form falls below the
first-order sum at finite J (criterion 9); the published first row itself
is 13% off (y_hat = 2.0412, y = 2, e_hat + e = 0.0355 + 0.00098).
"""

import dataclasses
import math
import time
from itertools import product

import numpy as np
import pytest

from fliess.algebra import Alphabet, Growth, GrowthClass
from fliess.bounds import BoundInputs, dt_tail_bound, lc_bounds
from fliess.harness import gc_geometric, reproduce_table, run_experiment, table_configs
from fliess.operators import (
    chen_truncation,
    dt_fliess_trajectory,
    iterated_integral,
    iterated_sum,
)
from fliess.realization import StateAffineSystem, simulate_forward
from fliess.signals import (
    ContinuousInput,
    DiscreteInput,
    SinusoidChannel,
    catenate,
    constant_input,
    discretize,
)

from conftest import random_pc_input, random_polynomial_series
from oracles import (
    iterated_integral_pc,
    iterated_sum_partition,
    one_step_identity_check,
    single_integral_error_bound,
)


def test_criterion_1_lc_table_reproduction():
    t0 = time.perf_counter()
    result = reproduce_table("lc")
    elapsed = time.perf_counter() - t0
    assert result.passed, "\n".join(result.lines())
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"


def test_criterion_2_gc_table_reproduction():
    t0 = time.perf_counter()
    result = reproduce_table("gc")
    elapsed = time.perf_counter() - t0
    assert result.passed, "\n".join(result.lines())
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"
    # the J=20 tail entry specifically: 14 orders of magnitude down, still
    # within 10% relative
    cfg, _ = table_configs("gc")[1]
    tail = run_experiment(cfg).e_tail
    assert abs(tail / 4.5119e-14 - 1.0) <= 0.10


def test_criterion_3_single_integral_rate():
    eta = (1, 0)
    u = ContinuousInput([SinusoidChannel(1.0, 20.0)], 0.5)
    exact = math.sin(10.0) / 400.0 - math.cos(10.0) / 40.0
    assert iterated_integral(eta, u) == pytest.approx(exact, abs=1e-12)

    errors = {}
    for L in (64, 128, 256):
        uhat = discretize(u, L)
        errors[L] = abs(iterated_sum(eta, uhat) - exact)
        bound = single_integral_error_bound(len(eta), 0.5, L, norm_u=1.0)
        assert errors[L] <= 1.10 * bound, (
            f"L={L}: error {errors[L]:.3e} above 110% of bound {bound:.3e}"
        )
    for L in (64, 128):
        ratio = errors[L] / errors[2 * L]
        assert 1.6 <= ratio <= 2.4, f"halving L={L}->{2*L} gave ratio {ratio:.3f}"


def test_criterion_4_oracle_equivalence(rng):
    # recursive iterated sums against brute-force partition enumeration,
    # exhaustive over short words and prefixes
    for m in range(3):
        values = np.column_stack(
            [np.full(6, 0.25), rng.uniform(-0.8, 0.8, size=(6, m))]
        )
        uhat = DiscreteInput(m=m, L=6, delta=0.25, values=values)
        for length in range(1, 5):
            for eta in product(range(m + 1), repeat=length):
                for N in range(0, 7):
                    a = iterated_sum(eta, uhat, N)
                    b = iterated_sum_partition(eta, uhat, N)
                    assert abs(a - b) <= 1e-12, f"{eta=} {N=}: {a} vs {b}"

    # closed-form piecewise evaluation against the adaptive quadrature oracle
    for _ in range(100):
        u = random_pc_input(rng, m=2, T=1.0)
        length = int(rng.integers(1, 4))
        eta = tuple(int(l) for l in rng.integers(0, 3, size=length))
        assert iterated_integral_pc(eta, u) == pytest.approx(
            iterated_integral(eta, u), abs=1e-9
        )


def test_criterion_5_chen_identity(rng):
    for _ in range(50):
        lu = rng.uniform(-1.5, 1.5, size=2)
        lv = rng.uniform(-1.5, 1.5, size=2)
        Tu = float(rng.uniform(0.2, 1.0))
        Tv = float(rng.uniform(0.2, 1.0))
        u, v = constant_input(lu, Tu), constant_input(lv, Tv)
        lhs = chen_truncation(catenate(u, v, Tu), 3)
        rhs = chen_truncation(v, 3).cat_product(chen_truncation(u, 3), max_len=3)
        for w in set(lhs.terms) | set(rhs.terms):
            assert lhs.coefficient(w) == pytest.approx(
                rhs.coefficient(w), abs=1e-9
            ), f"word {w} under levels {lu}, {lv}"


def test_criterion_6_realization_exactness():
    builtin = gc_geometric()
    sys = StateAffineSystem(builtin.series.representation)
    growth = GrowthClass(Growth.GC, 1.0, 1.0)
    for L in (50, 100):  # constant-input rows 1 and 3 of the second table
        uhat = discretize(constant_input(1.0, 2.0), L)
        forward = simulate_forward(sys, uhat).outputs
        closed = np.concatenate(
            ([1.0], np.cumprod(1.0 / (1.0 - uhat.values[:, 1])))
        )
        assert np.max(np.abs(forward - closed)) <= 1e-12

        truncated = dt_fliess_trajectory(builtin.series, uhat, 20)
        R_hat = uhat.sup_norm([1])
        # the forward state sums every word; the dropped tail bounds the gap
        # (1e-13 absolute allowance for float64 accumulation: the inequality
        # is an equality in exact arithmetic for this input)
        for N in range(L + 1):
            gap = abs(forward[N] - truncated[N])
            bound = dt_tail_bound(growth, 0, R_hat, N, 20)
            assert gap <= bound + 1e-13, f"L={L} N={N}: {gap:.3e} > {bound:.3e}"


def test_criterion_7_one_step_identity(rng):
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 3))
        c = random_polynomial_series(rng, m=m, max_len=3, n_terms=6)
        L = int(rng.integers(2, 9))
        values = np.column_stack(
            [np.full(L, 1.0 / L), rng.uniform(-1.0, 1.0, size=(L, m))]
        )
        uhat = DiscreteInput(m=m, L=L, delta=1.0 / L, values=values)
        N = int(rng.integers(0, L))
        J = int(rng.integers(1, 6))
        worst = max(worst, one_step_identity_check(c, uhat, N, J))
    assert worst < 1e-10, f"worst one-step residual {worst:.3e}"


def _truncated_output(cfg):
    """y^J = sum_{j<=J} (c, x1^j) z^j / j!: the continuous output truncated
    at word length J, for a constant input with running integral z."""
    z = cfg.input.increment(1, 0.0, cfg.T)
    return math.fsum(
        cfg.series.coefficient((1,) * j) * z**j / math.factorial(j)
        for j in range(cfg.J + 1)
    )


def _first_order(cfg):
    """The config with e_hat taken as the first-order sum itself: exact_sum
    for LC series; GC series have a single mode."""
    if cfg.series.growth.kind is Growth.LC:
        return dataclasses.replace(cfg, bound_mode="exact_sum")
    return cfg


def _step_excess(cfg):
    """rho = |y_hat^J - y^J| / e_hat - 1 under the first-order estimate."""
    r = run_experiment(_first_order(cfg))
    return abs(r.y_hat - _truncated_output(cfg)) / r.e_hat - 1.0


def test_criterion_8_bound_achievability():
    eps = np.finfo(float).eps
    rows = []
    failures = []
    sweeps = {}
    for which in ("lc", "gc"):
        for case, (cfg, _) in enumerate(table_configs(which), 1):
            r = run_experiment(cfg)
            measured = abs(r.y_hat - r.y)
            bound = r.e_hat + r.e_tail
            row = (
                f"{which} case {case} L={cfg.L} J={cfg.J}: "
                f"measured {measured:.6f} vs e_hat+e {bound:.6f} "
                f"(ratio {measured / bound:.4f})"
            )
            if "sin" in r.u_label:
                # (e) cancelling increments: strictly inside the certificate
                rows.append(row + " [sin]")
                if not measured < bound:
                    failures.append(f"{which} case {case}: not below e_hat+e")
                continue

            y_J = _truncated_output(cfg)
            # (a) the tail estimate is hit exactly by a constant input
            tail = abs(r.y - y_J)
            tail_ok = abs(tail - r.e_tail) <= 1e-9 * r.e_tail + 8 * eps * abs(r.y)
            # (b) the step error meets the first-order estimate, except where
            # (c) the L/J regime warning says the asymptotics do not apply
            rho = _step_excess(cfg)
            warned = any(w.startswith("L/J") for w in r.warnings)
            rows.append(
                row + f" [const] tail/e {tail / r.e_tail:.8g}, "
                f"step/first-order {1.0 + rho:.4f}"
                + (" (L/J warned)" if warned else "")
            )
            if not tail_ok:
                failures.append(f"{which} case {case}: tail {tail:.6e} != e {r.e_tail:.6e}")
            # regime_check warns below 5 steps per truncation order
            if warned != (cfg.L / cfg.J < 5):
                failures.append(f"{which} case {case}: L/J warning is {warned}")
            if not warned and abs(rho) > 0.10:
                failures.append(f"{which} case {case}: step error not within 10%")
            sweeps.setdefault((which, cfg.T, cfg.J), cfg)

    # (d) the excess over the first-order estimate is itself O(1/L)
    for (which, T, J), cfg in sweeps.items():
        rho = [_step_excess(dataclasses.replace(cfg, L=L)) for L in (50, 100, 200, 400)]
        halving = [b / a for a, b in zip(rho, rho[1:])]
        rows.append(
            f"{which} T={T} J={J} rho(L=50..400) "
            + " ".join(f"{x:.4f}" for x in rho)
            + ", rho(2L)/rho(L) "
            + " ".join(f"{x:.3f}" for x in halving)
        )
        if not (all(x > 0 for x in rho) and all(0.4 <= x <= 0.6 for x in halving)):
            failures.append(f"{which} T={T} J={J}: excess over e_hat not O(1/L)")

    assert not failures, (
        "error estimates not achieved per source:\n  "
        + "\n  ".join(failures)
        + "\nall rows:\n  "
        + "\n  ".join(rows)
    )


def test_criterion_9_lc_formula_discrepancy():
    b = BoundInputs(K=1.0, M=1.0, m=0, L=50, J=10, norm_uhat=0.01, Rbar=0.5)
    statement = lc_bounds(b, "statement").e_hat
    exact = lc_bounds(b, "exact_sum").e_hat
    # independent direct summation of the per-order step errors
    direct = math.fsum(
        j * (j - 1) * 0.5**j / (2 * 50) for j in range(2, 11)
    )
    assert exact == pytest.approx(direct, abs=1e-12)
    assert abs(statement - 0.0355) <= 1e-4
    assert abs(exact - 0.0387) <= 1e-4
    assert statement != pytest.approx(exact, abs=1e-3)
