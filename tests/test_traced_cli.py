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
cli.solve_population(experiments.benchmark_model(), 0.1, cli.CUTOFF, 401)
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
