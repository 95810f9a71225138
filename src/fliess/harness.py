"""Experiment orchestration: JSON configs, the two built-in example series,
regression tables with embedded expected values, and CSV emission.

The built-in series are the two canonical convergence examples:

* ``lc_factorial`` — coefficients k! on the words x_1^k (locally convergent;
  K = M = 1).  Its exact response to an input with running integral z(T) is
  1/(1 - z(T)) for z(T) < 1.
* ``gc_geometric`` — coefficients 1 on the words x_1^k (globally convergent;
  K = M = 1), realized by the one-dimensional rational system A_0 = 0,
  A_1 = 1, gamma = lam = 1.  Its exact response is e^{z(T)}.

A report row carries the columns (u, T, L, Delta, J, ||uhat||_inf, s, s_hat,
y(T), yhat^J(L), yhat^J(L)-y(T), e_hat(J), e(J)).  Floats are printed with
six significant digits; identical configs produce bit-identical CSV.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    Alphabet,
    CapExceeded,
    DomainError,
    Growth,
    GrowthClass,
    LinearRepresentation,
    Polynomial,
    SeriesSpec,
)
from .bounds import (
    EXP_ARG_MAX,
    BoundInputs,
    BoundReport,
    Divergent,
    bound_inputs,
    gc_bounds,
    lc_bounds,
    regime_warnings,
)
from .operators import dt_fliess_trajectory, fliess_truncated
from .realization import (
    NonFinite,
    PolicyViolation,
    StateAffineSystem,
    ct_bilinear_simulate,
    simulate_forward,
)
from .signals import (
    Channel,
    ConstantChannel,
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
    SampledChannel,
    SinusoidChannel,
    discretize,
)

REPORT_COLUMNS = (
    "u", "T", "L", "Delta", "J", "norm_uhat", "s", "s_hat",
    "y", "y_hat", "diff", "e_hat", "e_tail",
)


@dataclass(frozen=True)
class BuiltinSystem:
    name: str
    series: SeriesSpec
    #: exact output from the input's running integral z(t), elementwise over arrays
    analytic_output: Callable[[np.ndarray], np.ndarray]


def lc_factorial() -> BuiltinSystem:
    """Coefficients (c, x_1^k) = k!; locally convergent with K = M = 1."""

    def coeff(w):
        return float(math.factorial(len(w))) if all(letter == 1 for letter in w) else 0.0

    series = SeriesSpec(
        Alphabet(1),
        callback=coeff,
        growth=GrowthClass(Growth.LC, 1.0, 1.0),
        support_letters={1},
        label="lc_factorial",
    )

    def output(z):
        if np.max(z) >= 1.0:
            raise DomainError(f"1/(1-z) undefined: running integral z = {np.max(z):g} >= 1")
        return 1.0 / (1.0 - z)

    return BuiltinSystem("lc_factorial", series, output)


def gc_geometric() -> BuiltinSystem:
    """Coefficients (c, x_1^k) = 1; globally convergent with K = M = 1 and a
    one-dimensional rational realization."""
    rep = LinearRepresentation([np.zeros((1, 1)), np.ones((1, 1))], [1.0], [1.0])
    series = SeriesSpec(
        Alphabet(1),
        representation=rep,
        growth=GrowthClass(Growth.GC, 1.0, 1.0),
        support_letters={1},
        label="gc_geometric",
    )

    def output(z):
        if np.max(z) > EXP_ARG_MAX:
            raise DomainError(f"y = e^z overflows: running integral z = {np.max(z):g}")
        return np.exp(z)

    return BuiltinSystem("gc_geometric", series, output)


_BUILTINS = {"lc_factorial": lc_factorial, "gc_geometric": gc_geometric}


@dataclass(frozen=True)
class ExperimentConfig:
    series: SeriesSpec
    input: ContinuousInput
    L: int
    J: int
    bound_mode: str = "statement"
    increments: str = "exact"
    include_realization: bool = False
    label: str = ""
    #: set for builtin systems: exact output from the running integral
    analytic_output: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.L < 1 or self.J < 0:
            raise DomainError("need L >= 1 and J >= 0")
        if self.bound_mode not in ("statement", "exact_sum"):
            raise DomainError(f"unknown bound_mode {self.bound_mode!r}")
        if self.increments not in ("exact", "trapezoid"):
            raise DomainError(f"unknown increment rule {self.increments!r}")
        if self.series.alphabet.m != self.input.m:
            raise DomainError(
                f"series alphabet m={self.series.alphabet.m} does not match "
                f"input with m={self.input.m} channels"
            )
        if self.series.growth is None:
            raise DomainError("the series needs a declared growth class for bounds")
        if self.include_realization and self.series.representation is None:
            raise DomainError("realization output requires a linear representation")


@dataclass(frozen=True)
class ExperimentReport:
    u_label: str
    T: float
    L: int
    delta: float
    J: int
    norm_uhat: float
    s: float
    s_hat: float
    y: float
    y_hat: float
    e_hat: float
    e_tail: float
    bound_mode: str
    y_route: str
    warnings: tuple[str, ...] = ()
    realization_output: Optional[float] = None

    @property
    def diff(self) -> float:
        return self.y_hat - self.y

    def values(self) -> list:
        return [
            self.u_label, self.T, self.L, self.delta, self.J, self.norm_uhat,
            self.s, self.s_hat, self.y, self.y_hat, self.diff,
            self.e_hat, self.e_tail,
        ]

    def row(self) -> list[str]:
        return [v if isinstance(v, str) else format_float(v) for v in self.values()]


#: every float cell of the CSV output: six significant digits
_FLOAT_FORMAT = ".6g"


def format_float(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), _FLOAT_FORMAT)


def _format_column(values) -> list[str]:
    """format_float of every float of ``values``, in one pass."""
    return list(map(format, np.asarray(values, dtype=float).tolist(),
                    itertools.repeat(_FLOAT_FORMAT)))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _finite(value, path: str):
    """``float(value)``, or nested lists of them, rejecting booleans, NaN and
    infinities (also when given as strings such as ``"inf"``) by the field's
    path (e.g. ``input.channels.0.level``)."""
    if isinstance(value, (list, tuple)):
        return [_finite(v, f"{path}.{i}") for i, v in enumerate(value)]
    if isinstance(value, bool) or not math.isfinite(x := float(value)):
        raise DomainError(f"{path} must be a finite number, got {value!r}")
    return x


def _typed(doc: dict, key: str, default, kind: type, path: str = ""):
    value = doc.get(key, default)
    if not isinstance(value, kind):
        field = f"{path}.{key}" if path else key
        raise DomainError(f"{field} must be a {kind.__name__}, got {value!r}")
    return value


def _integer(doc: dict, key: str, path: str = "") -> int:
    field = f"{path}.{key}" if path else key
    value = _finite(doc[key], field)
    if not value.is_integer():
        raise DomainError(f"{field} must be an integer, got {doc[key]!r}")
    return int(value)


def _parse_growth(doc: dict, path: str) -> GrowthClass:
    try:
        kind = Growth(doc["kind"])
    except (KeyError, ValueError) as exc:
        raise DomainError(f"growth kind must be one of {[g.value for g in Growth]}") from exc
    return GrowthClass(kind, _finite(doc.get("K", 1.0), f"{path}.K"),
                       _finite(doc.get("M", 1.0), f"{path}.M"))


def _parse_system(doc: dict) -> tuple[SeriesSpec, Optional[Callable[[float], float]], str]:
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in _BUILTINS:
            raise DomainError(f"unknown builtin {name!r}; have {sorted(_BUILTINS)}")
        b = _BUILTINS[name]()
        return b.series, b.analytic_output, name
    if "polynomial" in doc:
        spec, path = doc["polynomial"], "system.polynomial"
        terms = {tuple(t["word"]): _finite(t["coeff"], f"{path}.terms.{i}.coeff")
                 for i, t in enumerate(spec["terms"])}
        series = SeriesSpec(
            Alphabet(_integer(spec, "m", path)),
            polynomial=Polynomial(terms),
            growth=_parse_growth(spec["growth"], f"{path}.growth"),
            label=_typed(spec, "label", "polynomial", str, path),
        )
        return series, None, series.label
    if "representation" in doc:
        spec, path = doc["representation"], "system.representation"
        rep = LinearRepresentation(
            [np.array(a, dtype=float) for a in _finite(spec["matrices"], f"{path}.matrices")],
            np.array(_finite(spec["gamma"], f"{path}.gamma"), dtype=float),
            np.array(_finite(spec["lam"], f"{path}.lam"), dtype=float),
        )
        support = spec.get("support_letters")
        series = SeriesSpec(
            Alphabet(rep.m),
            representation=rep,
            growth=_parse_growth(spec["growth"], f"{path}.growth"),
            support_letters=set(support) if support is not None else None,
            label=_typed(spec, "label", "representation", str, path),
        )
        return series, None, series.label
    raise DomainError("system must give one of: builtin, polynomial, representation")


def _parse_channel(doc: dict, path: str) -> tuple[Channel, str]:
    """A channel and its label in the report's input column."""
    if not isinstance(doc, dict):
        raise DomainError(f"{path} must be a dict, got {doc!r}")
    kind = doc.get("kind")
    if kind == "constant":
        level = _finite(doc["level"], f"{path}.level")
        return ConstantChannel(level), format_float(level)
    if kind == "sinusoid":
        a = _finite(doc.get("amplitude", 1.0), f"{path}.amplitude")
        omega = _finite(doc["omega"], f"{path}.omega")
        prefix = "" if a == 1.0 else f"{format_float(a)}*"
        return (SinusoidChannel(a, omega, _finite(doc.get("phase", 0.0), f"{path}.phase")),
                f"{prefix}sin({format_float(omega)}t)")
    if kind == "piecewise_constant":
        return PiecewiseConstantChannel(_finite(doc["breakpoints"], f"{path}.breakpoints"),
                                        _finite(doc["values"], f"{path}.values")), kind
    if kind == "sampled":
        return SampledChannel(_finite(doc["times"], f"{path}.times"),
                              _finite(doc["values"], f"{path}.values")), kind
    raise DomainError(f"unknown channel kind {kind!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a decoded JSON document.  Raises
    DomainError on any missing, mistyped, out-of-range, non-finite or (for L,
    J, m) non-integral field; numbers given as strings are read as numbers."""
    try:
        series, analytic, sys_label = _parse_system(doc["system"])
        channels = doc["input"]["channels"]
        if not isinstance(channels, list):
            raise DomainError(f"input.channels must be a list, got {channels!r}")
        parsed = [_parse_channel(ch, f"input.channels.{i}") for i, ch in enumerate(channels)]
        u = ContinuousInput([ch for ch, _ in parsed], _finite(doc["T"], "T"),
                            label=", ".join(label for _, label in parsed))
        cfg = ExperimentConfig(
            series=series,
            input=u,
            L=_integer(doc, "L"),
            J=_integer(doc, "J"),
            bound_mode=doc.get("bound_mode", "statement"),
            increments=doc.get("increments", "exact"),
            include_realization=_typed(doc, "include_realization", False, bool),
            label=_typed(doc, "label", sys_label, str),
            analytic_output=analytic,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"bad config document: {exc!r}") from exc
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def _annotate(exc: Exception, column: str):
    exc.args = (f"{column}: {exc.args[0] if exc.args else repr(exc)}",)
    return exc


def compute_bounds(cfg: ExperimentConfig) -> BoundReport:
    """Bound columns for a config, with norms and letter counts taken over
    the series' effective alphabet."""
    return _bounds(cfg, discretize(cfg.input, cfg.L, rule=cfg.increments))[1]


def _bounds(cfg: ExperimentConfig, uhat: DiscreteInput) -> tuple[BoundInputs, BoundReport]:
    g = cfg.series.growth
    b = bound_inputs(cfg.series, cfg.input, uhat, cfg.J)
    try:
        if g.kind is Growth.LC:
            report = lc_bounds(b, cfg.bound_mode)
        else:
            # FACTORIAL_DECAY coefficients also satisfy the GC premise
            report = gc_bounds(b)
    except Divergent as exc:
        raise _annotate(exc, "e_hat/e_tail columns")
    warnings = tuple(regime_warnings(g.kind, b)) + report.regime_warnings
    return b, replace(report, regime_warnings=warnings)


def _continuous_output(cfg: ExperimentConfig,
                       times: np.ndarray) -> tuple[np.ndarray, str, list[str]]:
    """y at each of ``times``, the route that computed it, and its warnings.
    The routes: a builtin's exact output from the running integral; one RK4
    pass on a fine uniform grid for a representation, interpolated linearly
    between its nodes; a polynomial's series truncated at its degree, which
    is exact; a callback series truncated at J.  The series routes make one
    Romberg sweep.  The interpolation is not below CSV precision everywhere:
    on configs/geometric_resolvent.json at resolution 200, 7 of 249 cells
    differ from exp(t) in the sixth digit (relative error up to 1.25e-7).
    ROADMAP item 2 replaces this route; it changes the benchmark's golden
    trajectories, so it waits for a benchmark change."""
    if cfg.analytic_output is not None:
        return cfg.analytic_output(cfg.input.channel(1).increment(0.0, times)), "analytic", []
    if cfg.series.representation is not None:
        # a trajectory's times include the L + 1 step nodes, so this is >= 4L
        steps = max(4 * (times.size - 1), 2000)
        grid, outputs = ct_bilinear_simulate(cfg.series.representation, cfg.input, steps=steps)
        return np.interp(times, grid, outputs), "rk4", []
    if cfg.series.polynomial is not None:
        order = max(cfg.series.polynomial.degree(), 0)
        return fliess_truncated(cfg.series, cfg.input, order, t=times), f"finite@{order}", []
    warning = f"y column: no exact route for a callback series; truncated at J={cfg.J}"
    return (fliess_truncated(cfg.series, cfg.input, cfg.J, t=times), f"truncated@{cfg.J}",
            [warning])


def _columns(cfg: ExperimentConfig, uhat: DiscreteInput, times: np.ndarray):
    """In column order: y at ``times`` with its route and warnings, then y_hat
    and (if configured, else None) the forward realization's output at every
    step N = 0..L.  A failing step column's error names the column."""
    y, y_route, warnings = _continuous_output(cfg, times)
    try:
        y_hat = dt_fliess_trajectory(cfg.series, uhat, cfg.J)
    except CapExceeded as exc:
        raise _annotate(exc, "y_hat column")
    realization = None
    if cfg.include_realization:
        try:
            realization = simulate_forward(StateAffineSystem(cfg.series.representation),
                                           uhat).outputs
        except (PolicyViolation, NonFinite) as exc:
            raise _annotate(exc, "realization column")
    return y, y_route, warnings, y_hat, realization


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Evaluate one config into a full report row: exact reference output,
    truncated discrete approximation, and both bound columns."""
    uhat = discretize(cfg.input, cfg.L, rule=cfg.increments)
    bound_inputs, bounds_report = _bounds(cfg, uhat)
    (y,), y_route, warnings, y_hat, realization = _columns(cfg, uhat, np.array([cfg.input.T]))
    return ExperimentReport(
        u_label=cfg.input.label or "u",
        T=cfg.input.T,
        L=cfg.L,
        delta=cfg.input.T / cfg.L,
        J=cfg.J,
        norm_uhat=bound_inputs.norm_uhat,
        s=bounds_report.s,
        s_hat=bounds_report.s_hat,
        y=float(y),
        y_hat=float(y_hat[-1]),
        e_hat=bounds_report.e_hat,
        e_tail=bounds_report.e_tail,
        bound_mode=cfg.bound_mode,
        y_route=y_route,
        warnings=tuple(warnings) + bounds_report.regime_warnings,
        realization_output=None if realization is None else float(realization[-1]),
    )


# ---------------------------------------------------------------------------
# regression tables
# ---------------------------------------------------------------------------

def _table_config(builtin: str, channel: dict, T: float, L: int, J: int) -> ExperimentConfig:
    return parse_config({
        "system": {"builtin": builtin},
        "input": {"channels": [channel]},
        "T": T, "L": L, "J": J,
        "bound_mode": "statement",
        "increments": "trapezoid",
        "label": f"{builtin} L={L} J={J}",
    })


_CONST = {"kind": "constant", "level": 1.0}
_SIN20 = {"kind": "sinusoid", "amplitude": 1.0, "omega": 20.0}
_SIN10 = {"kind": "sinusoid", "amplitude": 1.0, "omega": 10.0}

# (channel, T, L, J, expected columns)
_LC_TABLE = (
    (_CONST, 0.5, 50, 10,
     dict(norm_uhat=0.0100, s=0.5000, s_hat=0.5000, y=2.0000, y_hat=2.0412,
          e_hat=0.0355, e_tail=9.7656e-4)),
    (_CONST, 0.5, 50, 20,
     dict(norm_uhat=0.0100, s=0.5000, s_hat=0.5000, y=2.0000, y_hat=2.0448,
          e_hat=0.0400, e_tail=9.5367e-7)),
    (_CONST, 0.5, 100, 10,
     dict(norm_uhat=0.0050, s=0.5000, s_hat=0.5000, y=2.0000, y_hat=2.0192,
          e_hat=0.0177, e_tail=9.7656e-4)),
    (_SIN20, 0.5, 50, 10,
     dict(norm_uhat=0.0099, s=0.5000, s_hat=0.4975, y=1.1009, y_hat=1.1041,
          e_hat=0.0347, e_tail=9.7656e-4)),
    (_SIN20, 0.5, 50, 20,
     dict(norm_uhat=0.0099, s=0.5000, s_hat=0.4975, y=1.1009, y_hat=1.1041,
          e_hat=0.0390, e_tail=9.5367e-7)),
    (_SIN20, 0.5, 100, 10,
     dict(norm_uhat=0.0050, s=0.5000, s_hat=0.4994, y=1.1011, y_hat=1.1028,
          e_hat=0.0176, e_tail=9.7656e-4)),
)

_GC_TABLE = (
    (_CONST, 2.0, 50, 10,
     dict(norm_uhat=0.0400, s=2.0000, s_hat=2.0000, y=7.3891, y_hat=7.6989,
          e_hat=0.2956, e_tail=6.1390e-5)),
    (_CONST, 2.0, 50, 20,
     dict(norm_uhat=0.0400, s=2.0000, s_hat=2.0000, y=7.3891, y_hat=7.6991,
          e_hat=0.2956, e_tail=4.5119e-14)),
    (_CONST, 2.0, 100, 10,
     dict(norm_uhat=0.0200, s=2.0000, s_hat=2.0000, y=7.3891, y_hat=7.5403,
          e_hat=0.1478, e_tail=6.1390e-5)),
    (_SIN10, 2.0, 50, 10,
     dict(norm_uhat=0.0392, s=2.0000, s_hat=1.9601, y=1.0601, y_hat=1.0803,
          e_hat=0.2728, e_tail=6.1390e-5)),
    (_SIN10, 2.0, 50, 20,
     dict(norm_uhat=0.0392, s=2.0000, s_hat=1.9601, y=1.0601, y_hat=1.0803,
          e_hat=0.2728, e_tail=4.5119e-14)),
    (_SIN10, 2.0, 100, 10,
     dict(norm_uhat=0.0199, s=2.0000, s_hat=1.9899, y=1.0607, y_hat=1.0711,
          e_hat=0.1448, e_tail=6.1390e-5)),
)

_TABLES = {"lc": ("lc_factorial", _LC_TABLE), "gc": ("gc_geometric", _GC_TABLE)}


@dataclass(frozen=True)
class CellCheck:
    column: str
    computed: float
    expected: float
    tolerance: str
    passed: bool


@dataclass(frozen=True)
class RowResult:
    case: int
    report: ExperimentReport
    checks: tuple[CellCheck, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)


@dataclass(frozen=True)
class TableResult:
    which: str
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def lines(self) -> list[str]:
        out = [f"table {self.which}: {'PASS' if self.passed else 'FAIL'}"]
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            out.append(
                f"  case {r.case} [{status}] u={r.report.u_label} L={r.report.L} "
                f"J={r.report.J}: y_hat={format_float(r.report.y_hat)} "
                f"e_hat={format_float(r.report.e_hat)} e_tail={format_float(r.report.e_tail)}"
            )
            for ch in r.checks:
                if not ch.passed:
                    out.append(
                        f"    {ch.column}: computed {format_float(ch.computed)} vs expected "
                        f"{format_float(ch.expected)} (tolerance {ch.tolerance})"
                    )
        return out


def _abs_check(column: str, computed: float, expected: float, tol: float) -> CellCheck:
    return CellCheck(column, computed, expected, f"abs {tol:g}",
                     abs(computed - expected) <= tol)


def _tail_check(computed: float, expected: float) -> CellCheck:
    # the tail column spans eleven orders of magnitude across the rows, so
    # its tolerance is chosen by the size of the expected entry
    if expected >= 1e-4:
        return _abs_check("e_tail", computed, expected, 1e-3)
    if expected >= 1e-10:
        rel = abs(computed - expected) / expected
        return CellCheck("e_tail", computed, expected, "rel 1%", rel <= 0.01)
    rel = abs(computed - expected) / expected
    return CellCheck("e_tail", computed, expected, "rel 10%", rel <= 0.10)


def compare_row(report: ExperimentReport, expected: dict) -> tuple[CellCheck, ...]:
    return (
        _abs_check("norm_uhat", report.norm_uhat, expected["norm_uhat"], 1e-4),
        _abs_check("s", report.s, expected["s"], 1e-4),
        _abs_check("s_hat", report.s_hat, expected["s_hat"], 1e-4),
        _abs_check("y", report.y, expected["y"], 2e-3),
        _abs_check("y_hat", report.y_hat, expected["y_hat"], 1e-3),
        _abs_check("e_hat", report.e_hat, expected["e_hat"], 1e-3),
        _tail_check(report.e_tail, expected["e_tail"]),
    )


def table_configs(which: str) -> list[tuple[ExperimentConfig, dict]]:
    if which not in _TABLES:
        raise DomainError(f"table must be 'lc' or 'gc', got {which!r}")
    builtin, rows = _TABLES[which]
    return [(_table_config(builtin, ch, T, L, J), expected)
            for ch, T, L, J, expected in rows]


def reproduce_table(which: str) -> TableResult:
    """Run the six embedded configs of the chosen regression table and
    compare the report columns against the published values.  Failures are
    reported, never raised."""
    rows = []
    for case, (cfg, expected) in enumerate(table_configs(which), start=1):
        report = run_experiment(cfg)
        rows.append(RowResult(case, report, compare_row(report, expected)))
    return TableResult(which, tuple(rows))


# ---------------------------------------------------------------------------
# trajectory emission
# ---------------------------------------------------------------------------

def emit_trajectory(cfg: ExperimentConfig, resolution: int = 200) -> list[list[str]]:
    """Rows (including header) of the plot-data CSV: the continuous response
    sampled at ``resolution`` uniform points, merged with the discrete
    approximation at its step times NΔ.  A uniform sample within 1e-12 T of
    its nearest step time is dropped for that step.  The merged grid is built
    and every column formatted as whole arrays; off-grid cells are blank."""
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    uhat = discretize(cfg.input, cfg.L, rule=cfg.increments)
    T, L = cfg.input.T, cfg.L
    steps = np.arange(L + 1) * T / L
    samples = np.arange(resolution) * T / (resolution - 1)
    samples = samples[np.abs(samples - steps[np.rint(samples * L / T).astype(int)]) > 1e-12 * T]
    times = np.concatenate((steps, samples))
    order = np.argsort(times, kind="stable")
    times = times[order]
    # each row's step, or -1 for a sample off the grid: the blank cell
    node = np.concatenate((np.arange(L + 1), np.full(samples.size, -1)))[order]

    curve, _, _, y_hat, realization = _columns(cfg, uhat, times)
    header = ["t", "y", "N", "y_hat"]
    # the cells of the step columns, per step N = 0..L
    step_cells = [list(map(str, range(L + 1))), _format_column(y_hat)]
    if realization is not None:
        header.append("y_realization")
        step_cells.append(_format_column(realization))
    columns = [_format_column(times), _format_column(curve)]
    columns += [np.array(cells + [""], dtype=object)[node].tolist() for cells in step_cells]
    return [header] + list(map(list, zip(*columns)))


def write_csv(rows: Sequence[Sequence[str]], stream) -> None:
    csv.writer(stream, lineterminator="\n").writerows(rows)
