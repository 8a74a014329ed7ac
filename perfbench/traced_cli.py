"""Run one ``rdspill`` CLI command with every layer boundary timed.

Usage::

    python perfbench/traced_cli.py SPANS.json <rdspill arguments...>

The package itself carries no instrumentation, so this script wraps the
public layer functions from outside before calling ``rdspill.cli.main``.
Each function is wrapped in the namespace of the module that calls it
(``from x import f`` binds a separate name in every importer), and methods
are wrapped on their class. Every call records a span with a parent id, so
a layer's self time is its duration minus its child spans. Counts come from
return values, never from the package's private state.

The wrappers pass arguments and results through untouched, so the command
writes the same artifacts as an untraced run; run.py checks that byte for
byte. Spans go to SPANS.json, never into the command's own outputs.
"""
from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """In-memory span recorder; spans nest on one stack (single thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = {"id": len(self.spans),
                      "parent": parent["id"] if parent else None,
                      "name": name, "child_s": 0.0}
            self.spans.append(record)
            self._stack.append(record)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["dur_s"] = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent["child_s"] += record["dur_s"]
            if counts is not None:
                record.update(counts(result, *args, **kwargs))
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), counts))


def _solve_counts(sol, *args, **kwargs):
    grid_n = len(sol.grid)
    dense = sol.solver_report["method"] == "dense"
    return {"iterations": int(sol.solver_report["iterations"]),
            # bytes of the N x N system the dense path builds, computed from N
            "dense_bytes_computed": grid_n * grid_n * 8 if dense else 0}


def _rdd_counts(est, sample, *args, **kwargs):
    return {"rows_sorted": int(sample.n),
            "rows_weighted": int(est.n_plus + est.n_minus)}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from rdspill import asymptotics, cli, estimators, experiments, population
    from rdspill import sampling

    for mod in (population, asymptotics):
        tracer.wrap(mod, "window_matrix", "quadrature.window_matrix")
        tracer.wrap(mod, "window_integrals", "quadrature.window_integrals")

    for mod in (cli, experiments, population):
        tracer.wrap(mod, "solve_population", "population.solve_population",
                    _solve_counts)
    tracer.wrap(cli, "true_estimands", "population.true_estimands")

    tracer.wrap(asymptotics, "build_lambda_table",
                "asymptotics.build_lambda_table",
                lambda table, *a, **k: {"nodes": len(table.a_grid)})
    tracer.wrap(experiments, "tau_star", "asymptotics.tau_star")
    tracer.wrap(asymptotics, "mu_profile", "asymptotics.mu_profile")
    tracer.wrap(asymptotics.LambdaTable, "interval_average",
                "asymptotics.interval_average")

    for mod in (cli, experiments):
        tracer.wrap(mod, "draw_sample", "sampling.draw_sample",
                    lambda sample, *a, **k: {"rows": int(sample.n)})
    tracer.wrap(cli, "parse_sample_csv", "sampling.parse_sample_csv",
                lambda zy, *a, **k: {"rows": int(zy[0].size)})
    tracer.wrap(sampling.Sample, "to_csv", "sampling.to_csv")

    # donut_rdd reaches local_linear_rdd through the estimators namespace
    for mod in (cli, experiments, estimators):
        tracer.wrap(mod, "local_linear_rdd", "estimators.local_linear_rdd",
                    _rdd_counts)
    for mod in (cli, experiments):
        for fn in ("nadaraya_watson_rdd", "donut_rdd",
                   "local_spillover_regression"):
            tracer.wrap(mod, fn, f"estimators.{fn}")
    tracer.wrap(cli, "cross_validate_r", "estimators.cross_validate_r")

    tracer.wrap(experiments.SolutionCache, "get_or_solve",
                "experiments.cache.get_or_solve")
    for mod in (cli, experiments):
        tracer.wrap(mod, "tau_star_for_model", "experiments.tau_star_for_model")
    # the CLI dispatches through this dict, which holds the runner objects
    for study in list(cli.STUDIES):
        cli.STUDIES[study] = tracer.span(f"experiments.{study}",
                                         cli.STUDIES[study])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py SPANS.json <rdspill arguments...>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from rdspill import cli

    run = tracer.span(f"cli.{cli_args[0]}", cli.main)
    code = run(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
