"""perfbench/traced_cli.py wraps package functions by name from outside.

A refactor that drops or renames a wrapped name breaks traced benchmark runs
without failing any package test, so this runs the instrumentation itself,
in a child process because it patches module globals.
"""
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from traced_cli import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from rdspill import cli, experiments
cli.solve_population(experiments.benchmark_model(), 0.1, 401)
print(json.dumps(tracer.spans))
"""


def test_instrument_wraps_every_layer_name():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = {span["name"]: span for span in json.loads(proc.stdout)}
    # the solve goes through the wrapped names and yields the counts the
    # benchmark reads from its report
    assert spans["population.solve_population"]["iterations"] >= 1
    assert "quadrature.window_matrix" in spans
    assert "quadrature.window_integrals" in spans


STUDY_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from traced_cli import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from rdspill import experiments
plan = experiments.ExperimentPlan(
    model=experiments.benchmark_model(0.05),
    regime_map=(experiments.RegimeRule("r~h", "tau_star", 0.5, 0.0),),
    n_grid=(400,), replications=2, seed=1, grid_n=401)
experiments.run_phase_transition(plan)
print(json.dumps(tracer.spans))
"""


def test_instrument_sees_the_study_loop():
    # the study loop must reach these through the module names the tracer
    # wraps, or traced study runs report no draws, fits or cache lookups
    proc = subprocess.run([sys.executable, "-c", STUDY_CHILD, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = {}
    for span in json.loads(proc.stdout):
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    assert counts["sampling.draw_sample"] == 2
    assert counts["estimators.local_linear_rdd"] == 2
    assert counts["experiments.cache.get_or_solve"] >= 1
    assert counts["experiments.tau_star_for_model"] == 1
    # the quadrature layers run under their wrapped names too, and each
    # profile evaluation averages the table once per neighborhood piece
    for name in ("quadrature.window_matrix", "asymptotics.mu_profile",
                 "asymptotics.interval_average"):
        assert counts.get(name, 0) >= 1, name
    assert counts["asymptotics.interval_average"] == 2 * counts["asymptotics.mu_profile"]


CLI_CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from traced_cli import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from rdspill import cli
work = sys.argv[2]
config = os.path.join(work, "config.json")
data = os.path.join(work, "sim.csv")
for argv in (["simulate", "--out", data],
             ["estimate", "--data", data, "--out", os.path.join(work, "est.json"),
              "--estimator", "all"],
             ["crossval", "--data", data]):
    assert cli.main([argv[0], "--config", config, *argv[1:]]) == 0, argv
print(json.dumps(tracer.spans))
"""

CLI_CONFIG = {
    "model": {
        "m_plus": {"family": "polynomial", "coefficients": [1.0, 0.3]},
        "m_minus": {"family": "polynomial", "coefficients": [0.0, 0.2]},
        "delta": {"family": "constant", "coefficients": [0.4]},
        "gamma": {"family": "constant", "coefficients": [0.5]},
        "noise_sd": {"family": "constant", "coefficients": [0.1]},
    },
    "estimator": {"kernel": "triangular", "h": 0.2, "r": 0.1},
    "simulate": {"n": 3000, "seed": 7, "r": 0.1, "grid_n": 401,
                 "declared_regime": "r~h", "h": 0.2},
    "crossval": {"candidates": [0.05, 0.1], "folds": 2, "seed": 3},
}


def test_instrument_sees_every_cli_call(tmp_path):
    # the commands must call the names the tracer rebinds on cli; a name a
    # command binds by a local import escapes the wrap and reports no span
    (tmp_path / "config.json").write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", CLI_CHILD, str(PERFBENCH), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = {}
    for span in json.loads(proc.stdout.splitlines()[-1]):
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    for name in ("population.true_estimands", "experiments.tau_star_for_model",
                 "sampling.draw_sample", "estimators.local_linear_rdd",
                 "estimators.nadaraya_watson_rdd", "estimators.donut_rdd",
                 "estimators.local_spillover_regression",
                 "estimators.cross_validate_r"):
        assert counts.get(name) == 1, (name, counts)
    assert counts.get("sampling.parse_sample_csv") == 2  # estimate, then crossval
