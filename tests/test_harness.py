"""Experiment configs, report assembly, regression-table comparison, CSV
emission, and the command-line surface."""

import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fliess.harness as harness
import fliess.operators as operators
from fliess import cli
from fliess.algebra import (
    Alphabet,
    DomainError,
    Growth,
    GrowthClass,
    Polynomial,
    SeriesSpec,
)
from fliess.harness import (
    REPORT_COLUMNS,
    ExperimentConfig,
    compare_row,
    emit_trajectory,
    format_float,
    gc_geometric,
    lc_factorial,
    load_config,
    parse_config,
    report_csv,
    reproduce_table,
    run_experiment,
    table_configs,
    write_csv,
)
from fliess.operators import fliess_truncated
from fliess.signals import (
    ConstantChannel,
    ContinuousInput,
    PiecewiseConstantChannel,
    SampledChannel,
    SinusoidChannel,
    constant_input,
    discretize,
)

from oracles import emit_trajectory_per_row, iterated_integral_pc


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_DOC = {
    "system": {"builtin": "lc_factorial"},
    "input": {"channels": [{"kind": "constant", "level": 1.0}]},
    "T": 0.5,
    "L": 20,
    "J": 5,
}


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# builtin systems
# ---------------------------------------------------------------------------

def test_lc_factorial_builtin():
    b = lc_factorial()
    assert b.series.coefficient(()) == 1.0
    assert b.series.coefficient((1, 1, 1)) == pytest.approx(6.0)
    assert b.series.coefficient((0, 1)) == 0.0
    assert b.analytic_output(0.5) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        b.analytic_output(1.0)  # outside the operator's radius


def test_gc_geometric_builtin():
    g = gc_geometric()
    assert g.series.representation is not None
    assert g.series.coefficient((1, 1)) == pytest.approx(1.0)
    assert g.series.coefficient((1, 0)) == 0.0
    assert g.analytic_output(2.0) == pytest.approx(math.exp(2.0))


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------

def test_run_experiment_report_invariants():
    cfg = parse_config(BASE_DOC)
    r = run_experiment(cfg)
    assert r.delta * r.L == pytest.approx(r.T)
    # scaling columns recomputed independently (effective m = 0 here)
    uhat = discretize(cfg.input, cfg.L)
    assert r.norm_uhat == pytest.approx(uhat.sup_norm([1]))
    assert r.s_hat == pytest.approx(1.0 * 1 * cfg.L * r.norm_uhat)
    assert r.s == pytest.approx(max(0.5, cfg.T))
    assert r.y == pytest.approx(2.0)
    assert r.diff == pytest.approx(r.y_hat - r.y)
    assert r.y_route == "analytic"
    assert r.bound_mode == "statement"
    row = r.row()
    assert len(row) == len(REPORT_COLUMNS)
    assert all(isinstance(cell, str) for cell in row)


def test_run_experiment_polynomial_routes_finite_sum():
    doc = {
        "system": {
            "polynomial": {
                "m": 1,
                "terms": [
                    {"word": [], "coeff": 1.0},
                    {"word": [1], "coeff": 2.0},
                ],
                "growth": {"kind": "LC", "K": 2.0, "M": 1.0},
            }
        },
        "input": {"channels": [{"kind": "constant", "level": 0.5}]},
        "T": 0.5,
        "L": 10,
        "J": 3,
    }
    r = run_experiment(parse_config(doc))
    assert r.y_route == "finite@1"
    assert r.y == pytest.approx(1.0 + 2.0 * 0.25)


def test_run_experiment_callback_route_warns():
    c = SeriesSpec(
        Alphabet(0),
        callback=lambda w: 1.0,
        growth=GrowthClass(Growth.GC, 1.0, 1.0),
    )
    cfg = ExperimentConfig(series=c, input=ContinuousInput([], 0.5), L=10, J=6)
    r = run_experiment(cfg)
    assert r.y_route == "truncated@6"
    assert any("truncat" in w for w in r.warnings)
    assert r.y == pytest.approx(sum(0.5**j / math.factorial(j) for j in range(7)))


def test_experiment_config_validation():
    b = lc_factorial()
    u = constant_input(1.0, 0.5)
    with pytest.raises(DomainError):
        ExperimentConfig(series=b.series, input=u, L=0, J=5)
    with pytest.raises(DomainError):
        ExperimentConfig(series=b.series, input=u, L=10, J=5, bound_mode="best")
    with pytest.raises(DomainError):
        ExperimentConfig(series=b.series, input=constant_input([1.0, 2.0], 0.5), L=10, J=5)
    # realization output needs a representation; the LC builtin has none
    with pytest.raises(DomainError):
        ExperimentConfig(series=b.series, input=u, L=10, J=5, include_realization=True)


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config(BASE_DOC)
    assert cfg.bound_mode == "statement"
    assert cfg.increments == "exact"
    assert cfg.L == 20 and cfg.J == 5
    assert cfg.label == "lc_factorial"


def test_parse_config_representation_system():
    doc = {
        "system": {
            "representation": {
                "matrices": [[[0.0]], [[1.0]]],
                "gamma": [1.0],
                "lam": [1.0],
                "growth": {"kind": "GC"},
                "support_letters": [1],
            }
        },
        "input": {"channels": [{"kind": "constant", "level": 1.0}]},
        "T": 2.0,
        "L": 50,
        "J": 10,
        "include_realization": True,
    }
    cfg = parse_config(doc)
    r = run_experiment(cfg)
    assert r.y_route == "rk4"
    assert r.y == pytest.approx(math.exp(2.0), rel=1e-9)
    assert r.realization_output == pytest.approx((1 - 0.04) ** -50, rel=1e-12)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("T"),
        lambda d: d.pop("system"),
        lambda d: d["system"].update({"builtin": "heat_kernel"}),
        lambda d: d["input"]["channels"][0].update({"kind": "triangle"}),
        lambda d: d.update({"L": "many"}),
        lambda d: d.update({"J": -3}),
        lambda d: d.update({"increments": "simpson"}),
    ],
)
def test_parse_config_rejects_bad_documents(mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    with pytest.raises(DomainError):
        parse_config(doc)


def test_parse_config_bad_growth():
    doc = {
        "system": {
            "polynomial": {
                "m": 0,
                "terms": [{"word": [], "coeff": 1.0}],
                "growth": {"kind": "bounded"},
            }
        },
        "input": {"channels": []},
        "T": 1.0,
        "L": 5,
        "J": 2,
    }
    with pytest.raises(DomainError):
        parse_config(doc)


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(OSError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# tables and the comparator
# ---------------------------------------------------------------------------

def test_compare_row_self_test():
    cfg, expected = table_configs("lc")[0]
    report = run_experiment(cfg)
    checks = compare_row(report, expected)
    assert all(c.passed for c in checks)
    # a 1e-2 perturbation of any expected cell must be caught
    perturbed = dict(expected)
    perturbed["y"] = expected["y"] + 1e-2
    checks = compare_row(report, perturbed)
    failed = [c for c in checks if not c.passed]
    assert [c.column for c in failed] == ["y"]


def test_reproduce_table_report_lines():
    result = reproduce_table("lc")
    lines = result.lines()
    assert lines[0] == "table lc: PASS"
    assert len([l for l in lines if "case" in l]) == 6
    with pytest.raises(DomainError):
        reproduce_table("xy")


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_report_csv_deterministic():
    cfg = parse_config(BASE_DOC)
    r1, r2 = run_experiment(cfg), run_experiment(cfg)
    text1, text2 = report_csv([r1]), report_csv([r2])
    assert text1 == text2
    header, row = text1.strip().split("\n")
    assert header == ",".join(REPORT_COLUMNS)
    assert row.split(",")[1] == "0.5"


def test_emit_trajectory_shape_and_alignment():
    doc = dict(BASE_DOC, L=10, J=4)
    rows = emit_trajectory(parse_config(doc), resolution=21)
    assert rows[0] == ["t", "y", "N", "y_hat"]
    body = rows[1:]
    on_grid = [r for r in body if r[2] != ""]
    off_grid = [r for r in body if r[2] == ""]
    assert len(on_grid) == 11                      # all step nodes present
    assert [r[3] for r in off_grid] == [""] * len(off_grid)
    assert on_grid[0][0] == "0" and on_grid[0][2] == "0"
    assert on_grid[-1][2] == "10"
    # t values never decrease
    ts = [float(r[0]) for r in body]
    assert ts == sorted(ts)


def test_emit_trajectory_zero_input_is_flat():
    doc = json.loads(json.dumps(BASE_DOC))
    doc["input"]["channels"][0]["level"] = 0.0
    rows = emit_trajectory(parse_config(doc), resolution=11)
    ys = {r[1] for r in rows[1:]}
    yhats = {r[3] for r in rows[1:] if r[3] != ""}
    assert ys == {"1"} and yhats == {"1"}


def test_emit_trajectory_realization_column():
    doc = {
        "system": {"builtin": "gc_geometric"},
        "input": {"channels": [{"kind": "constant", "level": 1.0}]},
        "T": 2.0,
        "L": 20,
        "J": 8,
        "include_realization": True,
    }
    rows = emit_trajectory(parse_config(doc), resolution=5)
    assert rows[0][-1] == "y_realization"
    grid = [r for r in rows[1:] if r[2] != ""]
    assert len(grid) == 21
    # the resolvent output differs from the order-8 truncation by at most
    # the dropped-words tail (plus the 6-digit printing granularity)
    from fliess.bounds import dt_tail_bound

    for r in grid:
        N = int(r[2])
        bound = dt_tail_bound(GrowthClass(Growth.GC, 1.0, 1.0), 0, 0.1, N, 8)
        assert abs(float(r[3]) - float(r[4])) <= bound + 1e-5


@pytest.mark.parametrize("realization", [False, True])
def test_emit_trajectory_matches_the_per_row_merge(realization):
    # T = 0.7 adds samples within ulps of a step time (a quarter of the way
    # at L = 100, resolution 333) to those that land on one exactly
    on_step = near_step = 0
    for L, resolution, T in itertools.product((1, 7, 50, 100), (2, 3, 8, 101, 200, 333),
                                              (0.3, 1.0, 2.0, 0.7)):
        cfg = parse_config({
            "system": {"builtin": "gc_geometric"},
            "input": {"channels": [{"kind": "sinusoid", "amplitude": 0.4, "omega": 3.0}]},
            "T": T, "L": L, "J": 3, "include_realization": realization,
        })
        rows = emit_trajectory(cfg, resolution)
        assert rows == emit_trajectory_per_row(cfg, resolution), (L, resolution, T)
        samples = np.arange(resolution) * T / (resolution - 1)
        gap = np.abs(samples - np.round(samples * L / T) * T / L)
        on_step += int(np.sum(gap == 0.0))
        near_step += int(np.sum((gap > 0.0) & (gap <= 1e-12 * T)))
    assert on_step > 0 and near_step > 0


def _record_curve_times(monkeypatch) -> list:
    """Route the harness's fliess_truncated calls through a wrapper; the
    returned list collects the times of each call."""
    seen = []
    original = harness.fliess_truncated

    def recording(c, u, J, t=None, **kwargs):
        seen.append(t)
        return original(c, u, J, t=t, **kwargs)

    monkeypatch.setattr(harness, "fliess_truncated", recording)
    return seen


@pytest.mark.parametrize("system", ["polynomial", "callback"])
@pytest.mark.parametrize("channels", ["smooth", "piecewise_constant"])
def test_trajectory_curve_is_one_sweep_matching_the_report(system, channels, monkeypatch):
    T = 0.25
    if channels == "smooth":
        chans = [SinusoidChannel(0.8, 9.0),
                 SampledChannel(np.linspace(0.0, T, 5), [0.3, -0.6, 0.9, 0.1, -0.4])]
    else:
        chans = [ConstantChannel(-0.7), PiecewiseConstantChannel([0.06, 0.19], [1.0, -0.5, 0.25])]
    if system == "polynomial":
        terms = {(): 1.0, (1,): 0.5, (1, 2): -1.0, (2, 0, 1): 2.0}
        series = SeriesSpec(Alphabet(2), polynomial=Polynomial(terms),
                            growth=GrowthClass(Growth.LC, 2.0, 1.0))
        order = 3  # the degree: the exact route
    else:
        series = SeriesSpec(Alphabet(2), callback=lambda w: 1.0 / (1 + len(w)),
                            growth=GrowthClass(Growth.LC, 1.0, 1.0))
        order = 4  # J
    cfg = ExperimentConfig(series=series, input=ContinuousInput(chans, T), L=12, J=4)
    layer_calls = []
    word_layers = operators._word_layers
    monkeypatch.setattr(operators, "_word_layers",
                        lambda *args: layer_calls.append(args) or word_layers(*args))
    curve_times = _record_curve_times(monkeypatch)
    rows = emit_trajectory(cfg, resolution=17)[1:]
    # one set of word layers for the y_hat column and one for the whole curve
    assert len(layer_calls) == 2
    (times,) = curve_times
    assert len(times) == len(rows)
    per_sample = [format_float(fliess_truncated(series, cfg.input, order, t=float(t)))
                  for t in times]
    assert [row[1] for row in rows] == per_sample
    assert rows[-1][1] == format_float(run_experiment(cfg).y)


def test_sparse_polynomial_config_trajectory_is_exact(monkeypatch):
    cfg = load_config(str(CONFIGS / "sparse_polynomial.json"))
    curve_times = _record_curve_times(monkeypatch)
    rows = emit_trajectory(cfg, resolution=7)[1:]
    (times,) = curve_times
    for t, row in zip(times, rows, strict=True):
        exact = math.fsum(c * iterated_integral_pc(w, cfg.input, t=float(t))
                          for w, c in cfg.series.polynomial)
        assert row[1] == format_float(exact)


@pytest.mark.parametrize("name, route", [
    ("factorial_constant", "analytic"),
    ("geometric_resolvent", "rk4"),
    ("sinusoid_drive", "analytic"),
    ("sparse_polynomial", "finite@4"),
])
def test_trajectory_last_cell_is_the_report_y(name, route):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    report = run_experiment(cfg)
    assert report.y_route == route
    assert emit_trajectory(cfg, resolution=200)[-1][1] == report.row()[REPORT_COLUMNS.index("y")]


def test_negative_statement_certificate_warns_on_stderr(tmp_path, capsys):
    doc = json.loads((CONFIGS / "sparse_polynomial.json").read_text())
    doc["bound_mode"] = "statement"
    report = run_experiment(parse_config(doc))
    assert report.e_hat < 0
    assert any("e_hat = -1.98" in w and "exact_sum" in w for w in report.warnings)
    assert cli.main(["run", write_doc(tmp_path, doc)]) == 0
    out, err = capsys.readouterr()
    assert out == report_csv([report])
    assert "warning: e_hat = -1.98" in err
    assert cli.main(["bounds", write_doc(tmp_path, doc)]) == 0
    assert "warning: e_hat = -1.98" in capsys.readouterr().err


def test_write_csv_uses_plain_newlines():
    buf = io.StringIO()
    write_csv([["a", "b"], ["1", "2"]], buf)
    assert buf.getvalue() == "a,b\n1,2\n"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_run(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(REPORT_COLUMNS))
    out_file = tmp_path / "row.csv"
    assert cli.main(["run", path, "--csv", str(out_file)]) == 0
    assert out_file.read_text().startswith(",".join(REPORT_COLUMNS))
    # the file holds exactly what the same command prints
    assert out_file.read_bytes() == out.encode()


def test_cli_table_pass(capsys):
    assert cli.main(["table", "gc"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_table_comparison_failure(monkeypatch, capsys):
    import fliess.harness as harness

    monkeypatch.setitem(harness._LC_TABLE[0][4], "y_hat", 3.0)
    assert cli.main(["table", "lc"]) == 1
    assert "fail" in capsys.readouterr().out.lower()


def test_cli_trajectory(tmp_path, capsys):
    path = write_doc(tmp_path, dict(BASE_DOC, L=10, J=4))
    out_file = tmp_path / "traj.csv"
    assert cli.main(["trajectory", path, "--resolution", "10", "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("t,y,N,y_hat")
    assert cli.main(["trajectory", path]) == 0
    assert capsys.readouterr().out.startswith("t,y,N,y_hat")
    # the file holds exactly what the same command prints
    assert cli.main(["trajectory", path, "--resolution", "10"]) == 0
    assert out_file.read_bytes() == capsys.readouterr().out.encode()


def test_cli_trajectory_runs_where_the_lc_bounds_diverge(tmp_path, capsys):
    # s = max(||u||_1, T) = 1.5 >= 1, yet 1/(1 - z) exists at z = 0.75
    doc = dict(BASE_DOC, T=1.5, input={"channels": [{"kind": "constant", "level": 0.5}]})
    path = write_doc(tmp_path, doc)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith("error: e_hat/e_tail columns: s = 1.5 >= 1")
    assert cli.main(["trajectory", path]) == 0
    assert capsys.readouterr().out.startswith("t,y,N,y_hat")


def test_cli_bounds(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    assert cli.main(["bounds", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "s,s_hat,e_hat,e_tail,mode"
    assert "lc/statement" in out


def test_cli_bounds_cells_match_the_report_row(tmp_path, capsys):
    # both commands format their float cells with the one CSV format
    path = write_doc(tmp_path, dict(BASE_DOC, T=0.3, L=7, J=3))
    assert cli.main(["run", path]) == 0
    header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
    report = dict(zip(header, row))
    assert cli.main(["bounds", path]) == 0
    header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
    bounds = dict(zip(header, row))
    assert bounds["mode"] == "lc/statement"
    for column in ("s", "s_hat", "e_hat", "e_tail"):
        assert bounds[column] == report[column]


@pytest.mark.parametrize(
    "doc_mutation",
    [
        {"system": {"builtin": "unknown_thing"}},
        {"L": 0},
        # LC bound divergence: s_hat = 1*1*20*(4*0.025) = 2 >= 1
        {"input": {"channels": [{"kind": "constant", "level": 4.0}]}},
    ],
)
def test_cli_config_errors_exit_2(tmp_path, doc_mutation, capsys):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(doc_mutation)
    path = write_doc(tmp_path, doc)
    assert cli.main(["run", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc_mutation, field",
    [
        ({"L": 10.7}, "L"),
        ({"J": 3.9}, "J"),
        ({"T": math.inf}, "T"),
        ({"T": math.nan}, "T"),
        ({"input": {"channels": [{"kind": "constant", "level": math.nan}]}}, "channels.0.level"),
        ({"input": {"channels": [{"kind": "sinusoid", "omega": math.inf}]}}, "channels.0.omega"),
        ({"input": {"channels": [{"kind": "piecewise_constant", "breakpoints": [0.2],
                                  "values": [1.0, math.nan]}]}}, "channels.0.values.1"),
        ({"input": {"channels": [{"kind": "sampled", "times": [0.0, math.inf],
                                  "values": [0.0, 1.0]}]}}, "channels.0.times.1"),
        ({"input": {"channels": [{"kind": "piecewise_constant", "breakpoints": [math.nan],
                                  "values": [1.0, -1.0]}]}}, "channels.0.breakpoints.0"),
        ({"system": {"polynomial": {"m": 1, "terms": [{"word": [1], "coeff": 1.0}],
                                    "growth": {"kind": "GC", "K": math.nan}}}}, "growth.K"),
        ({"system": {"polynomial": {"m": 1, "terms": [{"word": [1], "coeff": math.inf}],
                                    "growth": {"kind": "GC"}}}}, "terms.0.coeff"),
        # numbers given as strings are converted, then checked the same way
        ({"input": {"channels": [{"kind": "constant", "level": "nan"}]}}, "channels.0.level"),
        ({"T": "inf"}, "T"),
        ({"system": {"representation": {"matrices": [[[0.0]], [["nan"]]], "gamma": [1.0],
                                        "lam": [1.0], "growth": {"kind": "GC"}}}},
         "representation.matrices.1.0.0"),
        ({"system": {"polynomial": {"m": 1.5, "terms": [{"word": [1], "coeff": 1.0}],
                                    "growth": {"kind": "GC"}}}}, "polynomial.m"),
    ],
)
def test_cli_rejects_bad_numbers_exit_2(tmp_path, doc_mutation, field, capsys):
    # json writes NaN and Infinity literals, which the config loader reads back
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(doc_mutation)
    path = write_doc(tmp_path, doc)
    assert cli.main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be" in captured.err


REP_SYSTEM = {"representation": {"matrices": [[[0.0]], [[1.0]]], "gamma": [1.0], "lam": [1.0],
                                  "growth": {"kind": "GC"}}}
POLY_SYSTEM = {"polynomial": {"m": 1, "terms": [{"word": [1], "coeff": 1.0}],
                              "growth": {"kind": "GC"}}}


@pytest.mark.parametrize(
    "doc_mutation, message",
    [
        ({"label": math.nan}, "label must be a str"),
        ({"label": 3}, "label must be a str"),
        ({"include_realization": math.nan}, "include_realization must be a bool"),
        ({"include_realization": 1}, "include_realization must be a bool"),
        ({"system": {"polynomial": dict(POLY_SYSTEM["polynomial"], label=math.nan)}},
         "system.polynomial.label must be a str"),
        ({"system": {"representation": dict(REP_SYSTEM["representation"],
                                            support_letters=[math.nan])}},
         "support letter nan outside"),
        ({"system": {"polynomial": dict(POLY_SYSTEM["polynomial"],
                                        terms=[{"word": [math.nan], "coeff": 1.0}])}},
         "letter nan outside"),
        ({"system": {"representation": dict(REP_SYSTEM["representation"],
                                            support_letters=[0.5])}},
         "support letter 0.5 is not an integer"),
        ({"system": {"polynomial": dict(POLY_SYSTEM["polynomial"],
                                        terms=[{"word": [0.5], "coeff": 1.0}])}},
         "letter 0.5 is not an integer"),
        ({"system": {"polynomial": dict(POLY_SYSTEM["polynomial"],
                                        terms=[{"word": [1.0], "coeff": 1.0}])}},
         "letter 1.0 is not an integer"),
        ({"system": {"polynomial": dict(POLY_SYSTEM["polynomial"],
                                        terms=[{"word": [True], "coeff": 1.0}])}},
         "letter True is not an integer"),
        ({"input": {"channels": ["constant"]}}, "input.channels.0 must be a dict"),
        ({"input": {"channels": {"kind": "constant", "level": 1}}},
         "input.channels must be a list"),
    ],
)
def test_cli_rejects_non_numbers_in_typed_fields_exit_2(tmp_path, doc_mutation, message, capsys):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(doc_mutation)
    assert cli.main(["run", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


GC_800 = {"system": {"builtin": "gc_geometric"},
          "input": {"channels": [{"kind": "constant", "level": 800.0}]},
          "T": 1.0, "L": 20, "J": 4}


@pytest.mark.parametrize("L", [20, 2000])
@pytest.mark.parametrize("command, message", [("run", "e_hat column: e^s_hat overflows"),
                                              ("bounds", "e_hat column: e^s_hat overflows"),
                                              ("trajectory", "y = e^z overflows")])
def test_cli_gc_overflow_exits_2_naming_the_column(tmp_path, L, command, message, capsys):
    # e^800 overflows double precision: in e^{s_hat} and in the exact output
    assert cli.main([command, write_doc(tmp_path, dict(GC_800, L=L))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_cli_gc_tail_overflow_exits_2(tmp_path, capsys):
    # whole periods per step: every increment is ~0, so s_hat is small, but
    # s = ||u||_1 = 4000/pi and the tail sum overflows
    doc = dict(GC_800, input={"channels": [{"kind": "sinusoid", "amplitude": 2000.0,
                                            "omega": 40.0 * math.pi}]})
    assert cli.main(["bounds", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: e_tail column: e^s overflows at s = 1273.24")


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_gc_tail_past_the_factorial_range(tmp_path, command, capsys):
    # J + 1 = 401: neither s^(J+1) nor (J+1)! fits in a double
    doc = dict(GC_800, input={"channels": [{"kind": "constant", "level": 5.0}]},
               T=2.0, L=50, J=400)
    assert cli.main([command, write_doc(tmp_path, doc)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    e_tail = float(row.split(",")[header.split(",").index("e_tail")])
    assert math.isfinite(e_tail)


@pytest.mark.parametrize("command", ["run", "trajectory"])
def test_cli_word_cap_exits_2_naming_the_column(tmp_path, command, capsys):
    # J + 1 words of x_1^k exceed the default word cap of the callback series
    doc = dict(BASE_DOC, L=10, J=10_000_001)
    assert cli.main([command, write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: y_hat column: 10000002 words")


OVERFLOWING_REALIZATION = {
    "system": {"representation": {"matrices": [[[0.0]], [[1.0]]], "gamma": [1.0],
                                  "lam": [1.0], "growth": {"kind": "GC"}}},
    "input": {"channels": [{"kind": "constant", "level": 306.0}]},
    "T": 1.0, "L": 340, "J": 3, "include_realization": True,
}


@pytest.mark.parametrize("command", ["run", "trajectory"])
def test_cli_overflowing_realization_exits_2_naming_the_step(tmp_path, command, capsys):
    # each resolvent step multiplies the state by 10, which overflows at step
    # 309; the bounds (s = 612) and the RK4 curve (e^306) stay finite
    assert cli.main([command, write_doc(tmp_path, OVERFLOWING_REALIZATION)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: realization column: step 309: state non-finite")


def test_analytic_curve_makes_one_increment_call(monkeypatch):
    calls = []
    for L, resolution in ((4, 2), (400, 500)):
        cfg = parse_config(dict(BASE_DOC, L=L))
        ch = cfg.input.channels[0]
        monkeypatch.setattr(ch, "increment",
                            lambda a, b, f=ch.increment: calls.append(np.shape(b)) or f(a, b))
        calls.clear()
        rows = emit_trajectory(cfg, resolution)
        # one call for the increments, one for the curve at every time
        assert calls == [(L,), (len(rows) - 1,)]


def test_cli_accepts_finite_numbers_given_as_strings(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    assert cli.main(["run", path]) == 0
    expected = capsys.readouterr().out
    doc = dict(BASE_DOC, T="0.5", L="20",
               input={"channels": [{"kind": "constant", "level": "1.0"}]})
    assert cli.main(["run", write_doc(tmp_path, doc, "strings.json")]) == 0
    assert capsys.readouterr().out == expected


def test_cli_missing_and_malformed_files(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2,")
    assert cli.main(["run", str(bad)]) == 2
    capsys.readouterr()


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(dict(BASE_DOC, label="x")).encode().replace(b'"x"', b'"\xff"'))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config is not valid JSON: 'utf-8' codec can't decode")


def test_cli_warnings_go_to_stderr(tmp_path, capsys):
    # GC system far outside the discrete radius still runs, with advice
    doc = {
        "system": {"builtin": "gc_geometric"},
        "input": {"channels": [{"kind": "constant", "level": 30.0}]},
        "T": 2.0,
        "L": 20,
        "J": 4,
    }
    path = write_doc(tmp_path, doc)
    assert cli.main(["run", path]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err
