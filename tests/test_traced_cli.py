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
experiments.run_phase_transition(plan, experiments.SolutionCache())
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
