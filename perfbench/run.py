"""rdspill benchmark: three CLI workloads, timed from outside.

Usage::

    python3 perfbench/run.py --workload simulate|analyze|study|all \
        --seed N --seconds S --trace 0|1

Every pass of a workload runs ``python -m rdspill.cli ...`` in fresh child
processes, one at a time (closed loop, one client). A fresh process per
pass matters: the package keeps module-level caches (population solves,
lambda tables), so repeating a command in-process would time a different
program. Peak RSS comes from ``os.wait4`` on each child, because
``RUSAGE_CHILDREN`` is a high-water mark over all children ever reaped.

A run: build the inputs from the seed (untimed), time ``--version``
children for ``setup_s``, run one warm-up pass that is discarded, then run
timed passes for about ``--seconds``. With ``--trace 1`` it alternates untraced
and traced passes; traced passes run ``perfbench/traced_cli.py``, which
wraps the layer functions and records spans, and the run prints per-layer
metrics instead of end-to-end ones.

Every pass is checked: exit codes, the workload's accuracy gates (with
tolerances, never digests, so solver changes may move the last bits) and
byte-identical artifacts across all passes of the run, traced ones
included. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

# setup_s is the median of `--version` children spread over the run (some
# before the warm-up, more after every pass), so it samples the same
# machine conditions as the passes do
STARTS_FIRST = 3
STARTS_PER_PASS = 2
CHILD_TIMEOUT_S = 150.0     # one child may not take longer than this
RUN_BUDGET_S = 165.0        # no new pass starts if it could end after this

MB = 1024.0  # ru_maxrss is in KiB on Linux


def _model(noise_sd: float) -> dict:
    """The README model: tau_d = 1, delta(0) = 0.4, gamma(0) = 0.5, so
    tau_tot = (1 + 0.5) / (1 - 0.4) = 2.5 at every radius."""
    return {
        "m_plus": {"family": "polynomial", "coefficients": [1.0, 0.3]},
        "m_minus": {"family": "polynomial", "coefficients": [0.0, 0.2]},
        "delta": {"family": "constant", "coefficients": [0.4]},
        "gamma": {"family": "constant", "coefficients": [0.5]},
        "noise_sd": {"family": "constant", "coefficients": [noise_sd]},
    }


TAU_D = 1.0
TAU_TOT = 2.5
DELTA0, GAMMA0 = 0.4, 0.5
# tau_star(c = 1) for the README model, as the seed commit computes it; the
# local linear fit at r = h/2 lands here (1.159-1.163 over four seeds)
TAU_STAR_C1 = 1.1609879111073667
ESTIMAND_TOL = 1e-8
ESTIMATE_TOL = 0.05  # the acceptance suite's floor for Monte Carlo means


# ------------------------------------------------------------- children --


@dataclass
class Child:
    """One finished child process."""

    label: str
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    spans: list | None  # traced children only


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(label: str, cli_args: list[str], work: Path,
              traced: bool = False) -> Child:
    """Run one rdspill command to completion and reap it with wait4."""
    spans_path = work / "spans.json"
    if traced:
        argv = [sys.executable, str(TRACED_CLI), str(spans_path)] + cli_args
        spans_path.unlink(missing_ok=True)
    else:
        argv = [sys.executable, "-m", "rdspill.cli"] + cli_args
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        reaped = threading.Event()

        def kill_on_timeout():
            if not reaped.is_set():
                proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill_on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"{label}: exit {proc.returncode}: "
                         f"{err_path.read_text(errors='replace')[-2000:]}\n")
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text())
    return Child(label, wall_s, usage.ru_maxrss / MB, proc.returncode,
                 out_path.read_bytes(), spans)


# ------------------------------------------------------------- checks --


class Checks:
    """Operations attempted and failed, plus the messages to print."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.lines.append(f"FAIL {what}")
        return ok

    def count(self, ok: int, failures: list[str]) -> None:
        """Record ok + len(failures) operations judged elsewhere."""
        self.attempted += ok
        for what in failures:
            self.op(False, what)

    def note(self, line: str) -> None:
        if line not in self.lines:
            self.lines.append(line)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _close(value, target: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def _within(cell: dict) -> tuple[bool, float, float]:
    """The acceptance suite's rule for a Monte Carlo mean."""
    tol = max(3.0 * cell["se"], 0.05)
    return abs(cell["bias"]) <= tol, abs(cell["bias"]), tol


# ------------------------------------------------------------ workloads --


class Workload:
    """Inputs from a seed, the commands of one pass, and their checks."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def write_config(self, name: str, doc: dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return str(path)

    def prepare(self, checks: Checks) -> None:
        """Write the inputs; untimed."""

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        raise NotImplementedError

    def check(self, checks: Checks, children: list[Child]) -> None:
        raise NotImplementedError

    def extra_metrics(self, passes: list[dict]) -> dict:
        """Workload-specific end-to-end figures, printed but not gated."""
        return {}


class Simulate(Workload):
    """`rdspill simulate` on the README config: population fixed point at
    grid_n 4001 (three dense solves) plus the lambda table behind tau_star."""

    name = "simulate"
    N = 20_000

    def prepare(self, checks):
        self.config = self.write_config("simulate.json", {
            "model": _model(0.1),
            "estimator": {"kernel": "triangular", "h": 0.15, "r": 0.075},
            "simulate": {"n": self.N, "seed": self.seed, "r": 0.075,
                         "grid_n": 4001, "declared_regime": "r~h",
                         "h": 0.15},
        })
        self.out = self.work / "sample.csv"
        self.sidecar = self.work / "sample.estimands.json"

    def commands(self):
        return [("simulate", ["simulate", "--config", self.config,
                              "--out", str(self.out)])]

    def artifacts(self):
        return [self.out, self.sidecar]

    def check(self, checks, children):
        from rdspill.asymptotics import corollary_bounds_check

        side = _load_json(self.sidecar) or {}
        tau_d, tau_tot = side.get("tau_d"), side.get("tau_tot")
        star = side.get("tau_star")
        checks.op(_close(tau_d, TAU_D, ESTIMAND_TOL),
                  f"simulate: sidecar tau_d {tau_d} != {TAU_D} to 1e-8")
        checks.op(_close(tau_tot, TAU_TOT, ESTIMAND_TOL),
                  f"simulate: sidecar tau_tot {tau_tot} != {TAU_TOT} to 1e-8")
        verdict = None
        if all(isinstance(v, float) for v in (tau_d, star, tau_tot)):
            verdict = corollary_bounds_check(tau_d, star, tau_tot,
                                             DELTA0, GAMMA0)
        checks.op(verdict == "ordered-case-1",
                  f"simulate: (tau_d, tau_star, tau_tot) = "
                  f"({tau_d}, {star}, {tau_tot}) gives {verdict}")
        rows = self.out.read_bytes().count(b"\n") - 1 if self.out.exists() else 0
        checks.op(rows == self.N, f"simulate: {rows} CSV rows, expected {self.N}")


class Analyze(Workload):
    """`estimate --estimator all` then `crossval` on an n = 2e5 CSV drawn
    from the README model in set-up."""

    name = "analyze"
    N = 200_000
    CANDIDATES = [0.04, 0.075, 0.12]

    def prepare(self, checks):
        self.config = self.write_config("analyze.json", {
            "model": _model(0.1),
            "estimator": {"kernel": "triangular", "h": 0.15, "r": 0.075},
            "simulate": {"n": self.N, "seed": self.seed, "r": 0.075,
                         "grid_n": 4001},
            "crossval": {"candidates": self.CANDIDATES, "folds": 5,
                         "seed": self.seed},
        })
        self.data = self.work / "data.csv"
        made = run_child("prepare", ["simulate", "--config", self.config,
                                     "--out", str(self.data)], self.work)
        checks.op(made.code == 0, "analyze: generating the input CSV failed")
        self.est = self.work / "est.json"
        self.cv = self.work / "cv.json"
        self.cv_stdout = self.work / "cv.stdout"

    def commands(self):
        return [
            ("estimate", ["estimate", "--config", self.config,
                          "--data", str(self.data), "--out", str(self.est),
                          "--estimator", "all"]),
            ("crossval", ["crossval", "--config", self.config,
                          "--data", str(self.data), "--out", str(self.cv)]),
        ]

    def artifacts(self):
        return [self.est, self.cv, self.cv_stdout]

    def check(self, checks, children):
        # crossval prints its table; check 11 compares that output too
        self.cv_stdout.write_bytes(children[-1].stdout)
        est = _load_json(self.est) or {}
        records = {r.get("estimator"): r for r in est.get("records", [])}
        checks.op(sorted(records) == sorted(
            ["local_linear", "nadaraya_watson", "donut", "spillover"]),
            f"analyze: estimate records {sorted(records)}")
        ll = records.get("local_linear", {}).get("tau_d")
        sp = records.get("spillover", {}).get("tau_d")
        checks.op(_close(sp, TAU_D, ESTIMATE_TOL),
                  f"analyze: spillover tau_d_hat {sp} not within "
                  f"{ESTIMATE_TOL} of {TAU_D}")
        checks.op(_close(ll, TAU_STAR_C1, ESTIMATE_TOL),
                  f"analyze: local linear tau_hat {ll} not within "
                  f"{ESTIMATE_TOL} of tau_star(c=1) {TAU_STAR_C1:.6f}")
        checks.op(all(isinstance(r.get("tau_d"), float)
                      and math.isfinite(r["tau_d"]) for r in records.values()),
                  "analyze: non-finite estimate")
        checks.note(f"analyze: spillover tau_d_hat {sp} (target 1), "
                    f"local linear tau_hat {ll} (tau_star {TAU_STAR_C1:.6f})")
        cv = (_load_json(self.cv) or {}).get("crossval", {})
        table = cv.get("cv_table", [])
        checks.op(len(table) == len(self.CANDIDATES)
                  and all(row.get("feasible") for row in table)
                  and cv.get("r_plus") in self.CANDIDATES
                  and cv.get("r_minus") in self.CANDIDATES,
                  f"analyze: crossval result {cv}")

    def extra_metrics(self, passes):
        return {"estimate_s": ("s", [p["by_label"]["estimate"] for p in passes]),
                "crossval_s": ("s", [p["by_label"]["crossval"] for p in passes])}


class Study(Workload):
    """`rdspill experiment` on the acceptance check-6 plan (40 of 200
    replications), then on the check-7 plan (20 of 100 replications)."""

    name = "study"
    PHASE_REPS = 40
    CONSISTENCY_REPS = 20

    def prepare(self, checks):
        self.phase = self.write_config("phase.json", {"experiment": {
            "study": "phase_transition", "plan": {
                "model": _model(0.05),
                "regime_map": [
                    {"label": "r>>h", "target": "tau_d", "factor": 8.0,
                     "n_power": 0.0},
                    {"label": "r<<h", "target": "tau_tot", "factor": 1.0,
                     "n_power": -0.1},
                    {"label": "r~h", "target": "tau_star", "factor": 0.5,
                     "n_power": 0.0}],
                "n_grid": [100_000], "replications": self.PHASE_REPS,
                "seed": self.seed, "grid_n": 2001}}})
        self.consistency = self.write_config("consistency.json", {"experiment": {
            "study": "spillover_consistency", "plan": {
                "model": _model(0.05),
                "regime_map": [{"label": "r=h/2", "target": "tau_tot",
                                "factor": 0.5, "n_power": 0.0}],
                "n_grid": [10_000, 40_000, 160_000],
                "replications": self.CONSISTENCY_REPS,
                "seed": self.seed, "grid_n": 2001}}})
        self.phase_dir = self.work / "phase"
        self.consistency_dir = self.work / "consistency"
        self.reps = 3 * self.PHASE_REPS + 3 * self.CONSISTENCY_REPS

    def commands(self):
        return [
            ("phase", ["experiment", "--config", self.phase,
                       "--out", str(self.phase_dir)]),
            ("consistency", ["experiment", "--config", self.consistency,
                             "--out", str(self.consistency_dir)]),
        ]

    def artifacts(self):
        return [self.phase_dir / "phase_transition_report.json",
                self.phase_dir / "phase_transition_report.csv",
                self.consistency_dir / "spillover_consistency_report.json",
                self.consistency_dir / "spillover_consistency_report.csv"]

    def _cells(self, checks, path: Path) -> tuple[dict, dict]:
        report = _load_json(path) or {}
        cells = report.get("cells", [])
        failures = report.get("failures", [])
        checks.count(len(cells), [f"study: Monte Carlo cell failed: {f}"
                                  for f in failures])
        return {(c["regime"], c["quantity"], c["n"]): c for c in cells}, \
            report.get("summary", {})

    def check(self, checks, children):
        phase, _ = self._cells(
            checks, self.phase_dir / "phase_transition_report.json")
        for regime, tag in (("r>>h", "6a"), ("r~h", "6c")):
            cell = phase.get((regime, "tau_hat", 100_000))
            ok, gap, tol = _within(cell) if cell else (False, math.nan, math.nan)
            checks.op(ok, f"study: check {tag} ({regime}) |gap| {gap:.4g} "
                          f"> {tol:.4g}")
        # 6b fails by design: r = h n^-0.1 is still far from the r << h limit
        # at n = 1e5. The known gap is printed and not counted as a failure;
        # a pass is counted as one, because it would mean the math changed.
        cell = phase.get(("r<<h", "tau_hat", 100_000))
        if cell is None:
            checks.op(False, "study: check 6b cell missing")
        else:
            ok, gap, tol = _within(cell)
            checks.note(f"study: known 6b failure: r<<h mean "
                        f"{cell['mean']:.6f} vs tau_tot "
                        f"{cell['target_value']:.4f}, |gap| {gap:.4f} > "
                        f"{tol:.3f}")
            checks.op(not ok, "study: check 6b passed; the known failure "
                              "is gone, so the math changed")

        cons, summary = self._cells(
            checks, self.consistency_dir / "spillover_consistency_report.json")
        top = 160_000
        tau = cons.get(("r=h/2", "tau_d", top))
        checks.op(tau is not None and abs(tau["bias"]) <= 0.05,
                  f"study: check 7 tau_d bias at n={top} "
                  f"{tau and tau['bias']} > 0.05")
        # At 20 replications these are printed, not gated: the delta and
        # tau_tot means are heavy-tailed, and the 1-SE trend rule missed on
        # 1 of 40 seeds tried (seed 14) although every bias stayed < 0.01.
        trend = summary.get("trend", {}).get("tau_d")
        biases = ", ".join(
            f"n={n}: {cons[('r=h/2', 'tau_d', n)]['bias']:+.4f}"
            for n in (10_000, 40_000, top) if ("r=h/2", "tau_d", n) in cons)
        checks.note(f"study: check 7 tau_d bias ladder ({biases}); 1-SE "
                    f"trend rule {'holds' if trend else 'misses'} (not gated)")
        extra = [f"{q} bias {cons[('r=h/2', q, top)]['bias']:+.4f}"
                 for q in ("delta", "tau_tot") if ("r=h/2", q, top) in cons]
        checks.note(f"study: check 7 at n={top}: " + ", ".join(extra)
                    + " (printed, not gated at 20 replications)")

    def extra_metrics(self, passes):
        return {"reps_per_s": ("1/s", [self.reps / p["wall_s"] for p in passes])}


WORKLOADS = {w.name: w for w in (Simulate, Analyze, Study)}


# ------------------------------------------------------------- passes --


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(wl: Workload, checks: Checks, traced: bool) -> dict:
    """One closed-loop pass: the workload's commands, one child at a time."""
    children = []
    start = time.perf_counter()
    for label, cli_args in wl.commands():
        children.append(run_child(label, cli_args, wl.work, traced))
    wall_s = time.perf_counter() - start
    for child in children:
        checks.op(child.code == 0, f"{wl.name}: {child.label} exited {child.code}")
    wl.check(checks, children)
    return {"wall_s": wall_s,
            "peak_rss_mb": max(c.rss_mb for c in children),
            "by_label": {c.label: c.wall_s for c in children},
            "children": children,
            "digests": {str(p): _digest(p) for p in wl.artifacts()}}


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, busy) ticks of the whole machine from /proc/stat, if any.

    On a shared VM the hypervisor's steal time is the main source of
    run-to-run noise, so each run prints its share next to the timings.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


# ------------------------------------------------------------- layers --


def _layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """Per-layer figures of one traced pass, from its spans: name -> (value,
    unit). Layers a workload does not reach report 0."""
    spans = [s for c in traced["children"] for s in (c.spans or [])]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, key):
        return float(sum(s.get(key, 0) for s in by_name.get(name, [])))

    def self_s(name):
        return sum(s["dur_s"] - s["child_s"] for s in by_name.get(name, []))

    out = {}
    for name in ("quadrature.window_matrix", "quadrature.window_integrals",
                 "population.solve_population", "asymptotics.build_lambda_table",
                 "asymptotics.mu_profile", "asymptotics.interval_average",
                 "sampling.draw_sample", "sampling.parse_sample_csv",
                 "estimators.local_linear_rdd", "estimators.nadaraya_watson_rdd",
                 "estimators.donut_rdd", "estimators.local_spillover_regression"):
        out[f"{name}.calls"] = (float(len(by_name.get(name, []))), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    solve = "population.solve_population"
    out[f"{solve}.iterations"] = (total(solve, "iterations"), "count")
    out[f"{solve}.dense_bytes_computed"] = (
        total(solve, "dense_bytes_computed"), "bytes")
    out["asymptotics.build_lambda_table.nodes"] = (
        total("asymptotics.build_lambda_table", "nodes"), "nodes")
    for name in ("sampling.draw_sample", "sampling.parse_sample_csv"):
        out[f"{name}.rows"] = (total(name, "rows"), "rows")
    out["sampling.to_csv.self_s"] = (self_s("sampling.to_csv"), "s")
    ll = "estimators.local_linear_rdd"
    sorted_rows = total(ll, "rows_sorted")
    out[f"{ll}.useful_row_ratio"] = (
        total(ll, "rows_weighted") / sorted_rows if sorted_rows else 0.0,
        "ratio")
    for name in ("population.true_estimands", "asymptotics.tau_star",
                 "estimators.cross_validate_r",
                 "experiments.tau_star_for_model"):
        out[f"{name}.wall_s"] = (total(name, "dur_s"), "s")

    lookups = by_name.get("experiments.cache.get_or_solve", [])
    lookup_ids = {s["id"] for s in lookups}
    solves = sum(1 for s in by_name.get(solve, []) if s["parent"] in lookup_ids)
    out["experiments.cache.lookups"] = (float(len(lookups)), "count")
    out["experiments.cache.solves"] = (float(solves), "count")
    out["experiments.cache.hit_ratio"] = (
        1.0 - solves / len(lookups) if lookups else 0.0, "ratio")

    for sub in ("simulate", "estimate", "crossval", "experiment"):
        mine = [c for c in traced["children"]
                if c.spans and c.spans[0]["name"] == f"cli.{sub}"]
        out[f"cli.{sub}.wall_s"] = (total(f"cli.{sub}", "dur_s"), "s")
        out[f"cli.{sub}.peak_rss_mb"] = (
            max((c.rss_mb for c in mine), default=0.0), "MB")
    roots = [s for s in spans if s["parent"] is None]
    out["cli.self_s"] = (sum(s["dur_s"] - s["child_s"] for s in roots), "s")
    # time outside cli.main: interpreter start, imports, exit
    outside = traced["wall_s"] - sum(s["dur_s"] for s in roots)
    out["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    out["trace.unaccounted_s"] = (outside, "s")
    out["trace.unaccounted_share"] = (outside / traced["wall_s"], "ratio")
    return out


# ---------------------------------------------------------------- main --


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> tuple[Checks, dict, list[str]]:
    run_start = time.perf_counter()
    work = work_root / name
    work.mkdir(parents=True)
    checks = Checks()
    wl = WORKLOADS[name](work, seed)
    wl.prepare(checks)

    starts: list[float] = []

    def start_cli(count: int) -> None:
        for _ in range(count):
            child = run_child("version", ["--version"], work)
            checks.op(child.code == 0 and child.stdout.startswith(b"rdspill "),
                      f"{name}: --version exited {child.code}")
            starts.append(child.wall_s)

    start_cli(STARTS_FIRST)
    reference = run_pass(wl, checks, traced=False)  # warm-up, discarded
    start_cli(STARTS_PER_PASS)
    timed, traced_passes = [], []
    ticks_before = _cpu_ticks()
    timed_start = time.perf_counter()
    while True:
        timed.append(run_pass(wl, checks, traced=False))
        last = timed[-1]["wall_s"]
        if trace:
            traced_passes.append(run_pass(wl, checks, traced=True))
            last += traced_passes[-1]["wall_s"]
        start_cli(STARTS_PER_PASS)
        now = time.perf_counter()
        # stop at the pass count whose total lands closest to --seconds
        if now - timed_start + last / 2 >= seconds \
                or now - run_start + 1.5 * last > RUN_BUDGET_S:
            break

    ticks_after = _cpu_ticks()

    for p in timed + traced_passes:
        checks.op(p["digests"] == reference["digests"],
                  f"{name}: artifacts differ between passes")

    lines = []
    if ticks_before and ticks_after:
        steal = ticks_after[0] - ticks_before[0]
        busy = ticks_after[1] - ticks_before[1]
        lines.append(f"{name}: cpu steal {100.0 * steal / max(steal + busy, 1):.1f}% "
                     f"of busy time during the timed passes")
    metrics: dict = {}
    if trace:
        untraced_wall = _summary([p["wall_s"] for p in timed])[0]
        per_pass = [_layer_metrics(p, untraced_wall) for p in traced_passes]
        for key, (_, unit) in per_pass[0].items():
            value = statistics.median(p[key][0] for p in per_pass)
            metrics[key] = {"value": value, "unit": unit}
        lines.append(f"{name}: {len(traced_passes)} traced pass(es); per-layer "
                     f"medians below")
        for key, m in metrics.items():
            lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    else:
        series = {
            "wall_s": ("s", [p["wall_s"] for p in timed]),
            "setup_s": ("s", starts),
            "peak_rss_mb": ("MB", [p["peak_rss_mb"] for p in timed]),
        }
        gated = list(series)
        series.update(wl.extra_metrics(timed))
        for key, (unit, values) in series.items():
            med, q1, q3 = _summary(values)
            lines.append(f"{name}: {key} median {med:.6g} {unit} "
                         f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
            if key in gated:
                metrics[key] = {"value": med, "unit": unit}
    error_rate = checks.failed / max(checks.attempted, 1)
    lines.append(f"{name}: error_rate {error_rate:.6g} "
                 f"({checks.failed} failed of {checks.attempted} operations)")
    lines.extend(checks.lines)
    return checks, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdspill" / "cli.py").is_file():
        print(f"perfbench: no rdspill sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work" / f"run-{os.getpid()}"
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            checks, wl_metrics, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace), work_root)
            for line in lines:
                print(line, flush=True)
            correct = correct and checks.failed == 0
            attempted += checks.attempted
            failed += checks.failed
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
