"""The three benchmark workloads: seeded config generators, the timed case
body that calls the public ``fliess`` API, and the per-case oracles.

A workload is a pool of generated cases.  ``run`` is the timed region of one
case and touches only ``fliess``; ``check`` runs afterwards, outside the timed
region, and returns a list of problems (empty when the case is correct).
Every oracle is computed here, independently of the routine it checks,
except where a check compares two public routes of the program against each
other (noted at the check).

Structural parameters (word counts, grid sizes, dimensions) are fixed slot
by slot, so that case cost does not depend on the seed; the seed draws the
matrices, coefficients, words, frequencies and samples.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fliess as fl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SHIPPED_CONFIGS = ("factorial_constant", "geometric_resolvent", "sinusoid_drive")


@dataclasses.dataclass
class Case:
    """One generated config, parsed during set-up.  ``oracle`` caches the
    expected values the first time the case is checked."""

    label: str
    kind: str
    cfg: Any = None
    extra: dict = dataclasses.field(default_factory=dict)
    oracle: dict | None = None


def fmt(v: float) -> str:
    return f"{float(v):.6g}"


def trajectory_digest(rows) -> str:
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# paper_tables: both regression tables and the three shipped configs
# ---------------------------------------------------------------------------

class PaperTables:
    """Rounds of reproduce_table("lc"), reproduce_table("gc") and the three
    shipped configs through run_experiment + emit_trajectory(200).  The seed
    only orders the round."""

    name = "paper_tables"
    resolution = 200

    def __init__(self):
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def generate(self, seed: int) -> list[dict]:
        items = [{"table": "lc"}, {"table": "gc"}]
        for name in SHIPPED_CONFIGS:
            doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
            items.append({"config": name, "doc": doc})
        order = np.random.default_rng(seed).permutation(len(items))
        return [items[i] for i in order]

    def warmup_doc(self) -> dict:
        doc = json.loads((ROOT / "configs" / "geometric_resolvent.json").read_text())
        return {"config": "geometric_resolvent", "doc": doc}

    def prepare(self, item: dict) -> Case:
        if "table" in item:
            return Case(f"table:{item['table']}", "table", extra={"which": item["table"]})
        return Case(f"config:{item['config']}", "config", fl.parse_config(item["doc"]),
                    extra={"name": item["config"]})

    def run(self, case: Case):
        if case.kind == "table":
            return fl.reproduce_table(case.extra["which"])
        return fl.run_experiment(case.cfg), fl.emit_trajectory(case.cfg, self.resolution)

    def check(self, case: Case, out) -> list[str]:
        if case.kind == "table":
            which = case.extra["which"]
            problems = [] if out.passed else [f"table {which}: a cell is outside its tolerance"]
            rows = [r.report.row() for r in out.rows]
            if rows != self.golden["tables"][which]:
                problems.append(f"table {which}: rows differ from the golden rows")
            return problems
        name = case.extra["name"]
        report, traj = out
        golden = self.golden["configs"][name]
        problems = []
        if report.row() != golden["row"]:
            problems.append(f"{name}: report row {report.row()} != golden {golden['row']}")
        if trajectory_digest(traj) != golden["trajectory_sha256"]:
            problems.append(f"{name}: trajectory CSV differs from the golden trajectory")
        return problems

    def perturbations(self) -> dict[str, Callable]:
        def table_y_hat(out):
            if not hasattr(out, "rows"):
                return None
            row = out.rows[0]
            report = dataclasses.replace(row.report, y_hat=row.report.y_hat * (1 + 1e-4))
            return dataclasses.replace(out, rows=(dataclasses.replace(row, report=report),)
                                       + out.rows[1:])

        def config_y_hat(out):
            if hasattr(out, "rows"):
                return None
            report, traj = out
            return dataclasses.replace(report, y_hat=report.y_hat * (1 + 1e-4)), traj

        def config_trajectory(out):
            if hasattr(out, "rows"):
                return None
            report, traj = out
            last = list(traj[-1])
            last[1] = fmt(float(last[1]) * (1 + 1e-4))
            return report, traj[:-1] + [last]

        return {"table y_hat": table_y_hat, "config y_hat": config_y_hat,
                "config trajectory cell": config_trajectory}


# ---------------------------------------------------------------------------
# rep_realization: random linear representations with a realization column
# ---------------------------------------------------------------------------

# (m, dim, L, J); m = 2 slots evaluate over q = 3 letters, so J = 8 there
# enumerates 9841 words per call.  A run is whole passes over the pool, so
# with 11 slots p50 falls inside the sixth-slowest slot and p90 inside the
# q = 3, J = 8 pair that forms the slow tail.
REP_SLOTS = (
    (1, 4, 200, 6), (1, 7, 200, 6), (1, 6, 200, 7), (1, 8, 200, 7),
    (1, 4, 200, 8), (2, 4, 200, 6), (1, 6, 300, 6), (2, 8, 200, 6),
    (1, 4, 1000, 6), (2, 6, 200, 8), (2, 4, 200, 8),
)


def _sinusoid(rng) -> dict:
    return {"kind": "sinusoid", "amplitude": float(rng.uniform(0.5, 1.5)),
            "omega": float(rng.uniform(2.0, 12.0)), "phase": float(rng.uniform(0.0, 2 * math.pi))}


def _piecewise(rng, T: float, level: float, k: int = 3) -> dict:
    breaks = np.sort(rng.uniform(0.1 * T, 0.9 * T, size=k))
    return {"kind": "piecewise_constant", "breakpoints": breaks.tolist(),
            "values": rng.uniform(-level, level, size=k + 1).tolist()}


def rep_doc(rng, slot: int) -> dict:
    m, dim, L, J = REP_SLOTS[slot]
    mats = []
    for _ in range(m + 1):
        a = rng.normal(size=(dim, dim))
        mats.append(a * (rng.uniform(0.5, 1.5) / np.abs(a).sum(axis=1).max()))
    gamma = rng.normal(size=dim)
    lam = rng.normal(size=dim)
    # |lam A_eta gamma| <= |lam|_1 |gamma|_inf prod |A_i|_inf, so the GC class
    # with these constants holds for every word
    K = float(np.abs(lam).sum() * np.abs(gamma).max())
    M = float(max(np.abs(a).sum(axis=1).max() for a in mats))
    if m == 2:
        channels = [_sinusoid(rng), _piecewise(rng, 1.0, 1.5)]
    else:
        channels = [_sinusoid(rng) if slot % 2 == 0 else _piecewise(rng, 1.0, 1.5)]
    return {
        "system": {"representation": {
            "matrices": [a.tolist() for a in mats], "gamma": gamma.tolist(),
            "lam": lam.tolist(), "growth": {"kind": "GC", "K": K, "M": M}}},
        "input": {"channels": channels},
        "T": 1.0, "L": L, "J": J, "include_realization": True,
        "label": f"rep slot {slot}",
    }


def graded_y_hat(rep, uhat, J: int) -> float:
    """Truncated discrete functional of a representation by the graded state
    recursion V_j(N) = V_j(N-1) + B(N) V_{j-1}(N), V_0 = gamma, with
    B(N) = sum_i A_i uhat_i(N); independent of word enumeration."""
    A = np.array(rep.matrices)
    B = np.einsum("ki,iab->kab", uhat.values, A)
    v = np.broadcast_to(rep.gamma, (uhat.L + 1, rep.dim))
    total = v[-1].copy()
    for _ in range(J):
        step = np.einsum("kab,kb->ka", B, v[1:])
        v = np.vstack([np.zeros(rep.dim), np.cumsum(step, axis=0)])
        total += v[-1]
    return float(rep.lam @ total)


class RepRealization:
    """run_experiment + emit_trajectory + a forward/backward realization
    round trip on seeded random linear representations."""

    name = "rep_realization"
    resolution = 20

    def generate(self, seed: int) -> list[dict]:
        return [rep_doc(np.random.default_rng([seed, slot]), slot)
                for slot in range(len(REP_SLOTS))]

    def warmup_doc(self) -> dict:
        return rep_doc(np.random.default_rng([0, 0]), 0)

    def prepare(self, doc: dict) -> Case:
        return Case(doc["label"], "rep", fl.parse_config(doc))

    def run(self, case: Case):
        cfg = case.cfg
        report = fl.run_experiment(cfg)
        traj = fl.emit_trajectory(cfg, self.resolution)
        uhat = fl.discretize(cfg.input, cfg.L, rule=cfg.increments)
        system = fl.StateAffineSystem(cfg.series.representation)
        fwd = fl.simulate_forward(system, uhat)
        bwd = fl.simulate_backward(system, uhat, terminal_state=fwd.states[-1])
        return report, traj, fwd, bwd

    def _oracle(self, case: Case) -> dict:
        cfg = case.cfg
        uhat = fl.discretize(cfg.input, cfg.L, rule=cfg.increments)
        m_eff, letters = fl.effective_alphabet(cfg.series)
        tail = fl.dt_tail_bound(cfg.series.growth, m_eff, uhat.sup_norm(letters), cfg.L, cfg.J)
        return {"tail": tail,
                "y_hat": graded_y_hat(cfg.series.representation, uhat, cfg.J)}

    def check(self, case: Case, out) -> list[str]:
        if case.oracle is None:
            case.oracle = self._oracle(case)
        o = case.oracle
        report, traj, fwd, bwd = out
        problems = []
        if not _close(report.y_hat, o["y_hat"], 1e-9):
            problems.append(f"y_hat {report.y_hat!r} != graded recursion {o['y_hat']!r}")
        gap = abs(report.realization_output - report.y_hat)
        if not gap <= o["tail"] + 1e-13:
            problems.append(f"|y_realization - y_hat| = {gap:g} exceeds dt_tail_bound {o['tail']:g}")
        scale = max(1.0, float(np.abs(fwd.states).max()))
        if not float(np.abs(bwd.states - fwd.states).max()) <= 1e-9 * scale:
            problems.append("backward recursion from the terminal state misses the forward states")
        last = traj[-1]
        # trajectory and report come from separate public calls on one config
        if last[3] != fmt(report.y_hat) or last[4] != fmt(report.realization_output):
            problems.append(f"trajectory end {last} disagrees with the report")
        return problems

    def perturbations(self) -> dict[str, Callable]:
        def y_hat(out):
            report, *rest = out
            return (dataclasses.replace(report, y_hat=report.y_hat * (1 + 1e-6)), *rest)

        def realization(out):
            report, *rest = out
            shift = 10.0 * (abs(report.y_hat) + 1.0)
            return (dataclasses.replace(report, realization_output=report.y_hat + shift), *rest)

        def backward(out):
            report, traj, fwd, bwd = out
            states = bwd.states.copy()
            states[0, 0] += 1e-6 * max(1.0, float(np.abs(states).max()))
            return report, traj, fwd, dataclasses.replace(bwd, states=states)

        return {"y_hat": y_hat, "realization output": realization, "backward states": backward}


# ---------------------------------------------------------------------------
# word_series: sparse polynomial series and long-grid lc_factorial
# ---------------------------------------------------------------------------

# ("poly", support words, max degree, L, channel pair, chen order) or
# ("lc_factorial", L, J, chen order).  "smooth" channels are a sinusoid and a
# sampled channel, whose integrals go through Romberg; "steps" channels are a
# constant and a piecewise-constant channel, which take the exact
# piecewise-constant route.  With 17 slots and whole passes, p50 falls inside
# the middle slot of a cluster of similar polynomial cases and p90 inside the
# pair of L = 1000 lc_factorial slots.
WORD_SLOTS = (
    ("poly", 5, 3, 20, "smooth", 4), ("poly", 10, 4, 24, "smooth", 3),
    ("poly", 10, 5, 20, "smooth", 3), ("poly", 16, 6, 20, "smooth", 2),
    ("poly", 20, 6, 20, "smooth", 3), ("poly", 6, 4, 32, "smooth", 4),
    ("poly", 10, 6, 20, "smooth", 2), ("poly", 12, 5, 20, "smooth", 3),
    ("poly", 10, 5, 20, "smooth", 3), ("poly", 8, 6, 20, "steps", 4),
    ("poly", 16, 5, 24, "steps", 4), ("poly", 12, 6, 20, "steps", 3),
    ("poly", 20, 6, 32, "steps", 4), ("poly", 5, 5, 20, "steps", 4),
    ("lc_factorial", 1000, 8, 4), ("lc_factorial", 1000, 8, 4), ("lc_factorial", 2000, 8, 4),
)

WORD_T = 0.25  # keeps s and s_hat below 1 for up to three letters with |u| <= 1


def word_doc(rng, slot: int) -> dict:
    """The support words and frequencies are fixed by the slot, since the
    Romberg work depends on them; the seed draws coefficients, amplitudes,
    samples, levels and breakpoints."""
    spec = WORD_SLOTS[slot]
    omega = 4.0 + 12.0 * slot / len(WORD_SLOTS)
    if spec[0] == "lc_factorial":
        _, L, J, chen = spec
        return {"system": {"builtin": "lc_factorial"},
                "input": {"channels": [{"kind": "sinusoid", "amplitude": float(rng.uniform(0.5, 1.0)),
                                        "omega": omega}]},
                "T": 0.5, "L": L, "J": J, "label": f"word slot {slot}", "chen": chen}
    _, nwords, degree, L, channels, chen = spec
    # the first word holds all three letters, so evaluation always ranges over q = 3
    words = [tuple(k % 3 for k in range(degree))]
    letters = np.random.default_rng(slot)
    while len(words) < nwords:
        word = tuple(int(x) for x in letters.integers(0, 3, size=2 + len(words) % (degree - 1)))
        if word not in words:
            words.append(word)
    terms = {w: float(rng.uniform(-1.0, 1.0)) for w in words}
    if channels == "smooth":
        times = np.linspace(0.0, WORD_T, 9)
        chans = [{"kind": "sinusoid", "amplitude": float(rng.uniform(0.5, 1.0)), "omega": omega},
                 {"kind": "sampled", "times": times.tolist(),
                  "values": rng.uniform(-1.0, 1.0, size=times.size).tolist()}]
    else:
        chans = [{"kind": "constant", "level": float(rng.uniform(-1.0, 1.0))},
                 _piecewise(rng, WORD_T, 1.0)]
    return {"system": {"polynomial": {
                "m": 2, "terms": [{"word": list(w), "coeff": c} for w, c in terms.items()],
                "growth": {"kind": "LC", "K": 1.0, "M": 1.0}}},
            "input": {"channels": chans},
            "T": WORD_T, "L": L, "J": degree, "label": f"word slot {slot}", "chen": chen}


def iterated_sums(words, uhat) -> dict:
    """S_w[uhat](L) for each word by the cumulative recursion, innermost
    letter first."""
    out = {}
    for w in words:
        s = np.ones(uhat.L + 1)  # S_w(N) for N = 0..L
        for letter in reversed(w):
            s = np.concatenate(([0.0], np.cumsum(uhat.values[:, letter] * s[1:])))
        out[w] = float(s[-1])
    return out


def channel_integral(doc: dict, T: float) -> float:
    kind = doc["kind"]
    if kind == "constant":
        return doc["level"] * T
    if kind == "sinusoid":
        a, w, p = doc["amplitude"], doc["omega"], doc.get("phase", 0.0)
        return a / w * (math.cos(p) - math.cos(w * T + p))
    if kind == "sampled":
        t, v = np.array(doc["times"]), np.array(doc["values"])
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
    edges = np.concatenate(([0.0], doc["breakpoints"], [T]))
    return float(np.sum(np.array(doc["values"]) * np.diff(edges)))


class WordSeries:
    """run_experiment + emit_trajectory(20) + chen_truncation on sparse
    polynomial series and on lc_factorial over long grids."""

    name = "word_series"
    resolution = 20

    def generate(self, seed: int) -> list[dict]:
        return [word_doc(np.random.default_rng([seed, slot]), slot)
                for slot in range(len(WORD_SLOTS))]

    def warmup_doc(self) -> dict:
        return word_doc(np.random.default_rng([0, 0]), 0)

    def prepare(self, doc: dict) -> Case:
        doc = dict(doc)
        chen = doc.pop("chen")
        kind = "lc" if "builtin" in doc["system"] else "poly"
        return Case(doc["label"], kind, fl.parse_config(doc),
                    extra={"chen": chen, "channels": doc["input"]["channels"], "T": doc["T"]})

    def run(self, case: Case):
        cfg = case.cfg
        report = fl.run_experiment(cfg)
        traj = fl.emit_trajectory(cfg, self.resolution)
        chen = fl.chen_truncation(cfg.input, case.extra["chen"])
        return report, traj, chen

    def _oracle(self, case: Case) -> dict:
        cfg = case.cfg
        uhat = fl.discretize(cfg.input, cfg.L, rule=cfg.increments)
        T = case.extra["T"]
        integrals = [T] + [channel_integral(ch, T) for ch in case.extra["channels"]]
        if case.kind == "lc":
            sums = iterated_sums([(1,) * k for k in range(cfg.J + 1)], uhat)
            y_hat = math.fsum(math.factorial(len(w)) * s for w, s in sums.items())
            return {"y_hat": y_hat, "y": 1.0 / (1.0 - integrals[1]), "integrals": integrals}
        poly = cfg.series.polynomial
        sums = iterated_sums([w for w, _ in poly], uhat)
        y_hat = math.fsum(c * sums[w] for w, c in poly)
        return {"y_hat": y_hat, "y": None, "integrals": integrals}

    def check(self, case: Case, out) -> list[str]:
        if case.oracle is None:
            case.oracle = self._oracle(case)
        o = case.oracle
        report, traj, chen = out
        problems = []
        if not _close(report.y_hat, o["y_hat"], 1e-9):
            problems.append(f"y_hat {report.y_hat!r} != sum of iterated sums {o['y_hat']!r}")
        if o["y"] is not None and not _close(report.y, o["y"], 1e-12):
            problems.append(f"y {report.y!r} != 1/(1-z) = {o['y']!r}")
        last = traj[-1]
        # trajectory and report come from separate public calls on one config
        if last[1] != fmt(report.y) or last[3] != fmt(report.y_hat):
            problems.append(f"trajectory end {last} disagrees with the report")
        integrals = o["integrals"]
        if chen.coefficient(()) != 1.0:
            problems.append("chen_truncation: empty word does not carry 1")
        for a, ea in enumerate(integrals):
            if not _close(chen.coefficient((a,)), ea, 1e-9):
                problems.append(f"chen_truncation: E_{a} = {chen.coefficient((a,))!r} != {ea!r}")
            for b, eb in enumerate(integrals):
                shuffled = chen.coefficient((a, b)) + chen.coefficient((b, a))
                if case.extra["chen"] >= 2 and not _close(shuffled, ea * eb, 1e-8):
                    problems.append(f"chen_truncation: shuffle identity fails on ({a},{b})")
        return problems

    def perturbations(self) -> dict[str, Callable]:
        def y_hat(out):
            report, *rest = out
            return (dataclasses.replace(report, y_hat=report.y_hat * (1 + 1e-6) + 1e-6), *rest)

        def chen_letter(out):
            report, traj, chen = out
            terms = dict(chen.terms)
            terms[(1,)] = terms.get((1,), 0.0) + 1e-6
            return report, traj, fl.Polynomial(terms)

        def trajectory(out):
            report, traj, chen = out
            last = list(traj[-1])
            last[3] = fmt(float(last[3]) * (1 + 1e-4) + 1e-6)
            return report, traj[:-1] + [last], chen

        return {"y_hat": y_hat, "chen_truncation E_1": chen_letter, "trajectory cell": trajectory}


WORKLOADS = {w.name: w for w in (PaperTables, RepRealization, WordSeries)}
