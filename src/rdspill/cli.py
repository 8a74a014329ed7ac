"""Command-line front end.

Subcommands: simulate, estimate, crossval, experiment. One JSON config
document drives all of them; the CLI validates shape, dispatches to library
operations, and persists results. It computes nothing itself.

Exit codes: 1 config problem, 2 solver failure, 3 malformed input
data, 4 estimation failure. All errors go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

import numpy as np

from .config import integer, list_of, read_section, real, text
from .errors import (
    ConfigError,
    DataError,
    EstimationError,
    RdspillError,
    SolverError,
)
from .estimators import (
    EstimatorConfig,
    _check_crossval,
    _check_spillover,
    _sort_rows,
    cross_validate_r,
    donut_rdd,
    local_linear_rdd,
    local_spillover_regression,
    nadaraya_watson_rdd,
    to_record,
)
from .experiments import STUDIES, VERSION, ExperimentPlan, hash_config, tau_star_for_model
from .funcspace import ModelSpec
from .kernels import KERNEL_NAMES
from .population import DEFAULT_GRID_N, solve_population, true_estimands
from .sampling import Sample, draw_sample, parse_sample_csv

TOP_LEVEL_KEYS = {"model", "estimator", "simulate", "estimate", "crossval",
                  "experiment"}
REGIME_LABELS = ("r>>h", "r<<h", "r~h")
# --estimator's choices and the fit each runs; "all" runs every fit in this order
ESTIMATOR_ALIASES = {
    "ll": "local_linear",
    "nw": "nadaraya_watson",
    "donut": "donut",
    "spillover": "spillover",
}


# ---------------------------------------------------------------- config --


def _load_config(path: str) -> dict:
    def refuse(constant):
        raise ConfigError(f"{path}: {constant} is refused; config numbers must be finite")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=refuse)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from None
    # each subcommand reads the sections it uses
    return read_section(doc, f"config {path}", {},
                        dict.fromkeys(TOP_LEVEL_KEYS, lambda sec: sec))


def _section(doc: dict, name: str, seed=None):
    """doc[name], with its seed replaced by a --seed flag's when one was given."""
    if name not in doc:
        raise ConfigError(f"config is missing the {name!r} section")
    sec = doc[name]
    return dict(sec, seed=seed) if seed is not None and isinstance(sec, dict) else sec


def _provenance(doc: dict, seed, rescale=None) -> dict:
    return {"version": VERSION, "config_hash": hash_config(doc),
            "seed": seed, "rescale": rescale}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check_out_dir(directory: str, created: bool = False) -> None:
    """Refuse, before any work, an output directory that does not exist, or,
    when the run creates it, one whose nearest existing ancestor is not a
    directory."""
    existing = os.path.abspath(directory or ".")
    while created and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        reason = "not a directory" if os.path.exists(existing) else "no such directory"
        raise ConfigError(f"cannot write into {directory!r}: {existing}: {reason}")


def _save(contents: dict) -> None:
    """Write each path's text, or call its writer(fh), into a new file beside
    the file the path resolves to (through any symlinks), with that file's
    permission bits when it exists; once all are written, move each over its
    resolved path in order. An OSError becomes a ConfigError after the new
    files are removed: a failed write leaves the previous run's files as they
    were, and a failed move removes the files this call moved, so no partial
    output is left."""
    fresh, moved = [], []
    targets = [os.path.realpath(path) for path in contents]
    try:
        for (path, content), target in zip(contents.items(), targets):
            head, name = os.path.split(target)
            temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            with open(temporary, "x", encoding="utf-8") as fh:
                fresh.append(temporary)
                with contextlib.suppress(FileNotFoundError):
                    os.chmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
                if callable(content):
                    content(fh)
                else:
                    fh.write(content)
        for temporary, path, target in zip(fresh, contents, targets):
            os.replace(temporary, target)
            moved.append(target)
    except OSError as err:
        for leftover in fresh + moved:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None


# ------------------------------------------------------------------ data --


def _parse_rescale(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(
            f"--rescale expects 'min,cutoff,max', got {text!r}")
    try:
        lo, cut, hi = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--rescale values must be numbers, got {text!r}") from None
    if not lo < cut < hi:
        raise ConfigError(
            f"--rescale needs min < cutoff < max, got {lo}, {cut}, {hi}")
    if not np.isfinite(hi - lo):  # an infinite bound, or a span that overflows
        raise ConfigError(f"--rescale needs a finite max - min, got {lo}, {cut}, {hi}")
    return lo, cut, hi


def _load_sample(args, half_width: float) -> tuple[Sample, int, dict | None]:
    """Read --data, applying the --rescale affine map when given: the rows
    with |Z| <= half_width in canonical order, the file's row count, the map.

    The map is z -> (z - cutoff) / max(max - cutoff, cutoff - min): the
    cutoff lands at 0 and the declared range fits inside [-1, 1]. Every row
    is then checked, after the parse's own checks, and the first outside
    [-1, 1] reported; the window is sorted once the parse's arrays are gone.
    """
    info = None if args.rescale is None else _parse_rescale(args.rescale)
    z, y = parse_sample_csv(args.data)
    if info is not None:
        lo, cut, hi = info
        scale = max(hi - cut, cut - lo)
        with np.errstate(over="ignore"):  # a z pushed past +-inf is out of range
            z -= cut
            z /= scale
        info = {"min": lo, "cutoff": cut, "max": hi, "scale": scale}
    if not (z.min() >= -1.0 and z.max() <= 1.0):
        bad = int(np.flatnonzero((z < -1.0) | (z > 1.0))[0])
        reason = (f"{z[bad]} outside [-1, 1]" if info is None
                  else "value outside the range declared by --rescale")
        raise DataError(f"{args.data}: row {bad + 2}, column z: {reason}")
    n = z.size
    keep = (z <= half_width) & (z >= -half_width)
    z, y = z[keep], y[keep]  # the parse's n-row arrays go here
    return Sample(*_sort_rows(z, y)), n, info


# ----------------------------------------------------------- subcommands --


def _sidecar_path(out: str) -> str:
    root = out[:-4] if out.endswith(".csv") else out
    return root + ".estimands.json"


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    model = ModelSpec.from_config(_section(doc, "model"))
    raw = _section(doc, "simulate", args.seed)
    sim = read_section(raw, "'simulate' section", {"n": integer, "r": real},
                       {"seed": integer, "grid_n": integer, "declared_regime": text,
                        "h": real, "kernel": text})
    if "seed" not in sim:
        raise ConfigError("no seed: set one in the 'simulate' section or pass --seed")
    effective = dict(doc, simulate=raw)
    n, seed, r = sim["n"], sim["seed"], sim["r"]
    grid_n = sim.get("grid_n", DEFAULT_GRID_N)
    declared = sim.get("declared_regime")
    if declared is not None and declared not in REGIME_LABELS:
        raise ConfigError(f"declared_regime must be one of {REGIME_LABELS}, got {declared!r}")
    if declared == "r~h":
        if not sim.get("h", 0.0) > 0.0:
            raise ConfigError("declaring the r~h regime requires a positive 'h' value")
        if not 0.0 < 2.0 * r / sim["h"] < 2.0:
            raise ConfigError(f"declaring the r~h regime requires 0 < 2r/h < 2, "
                              f"got r={r}, h={sim['h']}")
    elif "h" in sim or "kernel" in sim:
        raise ConfigError("'h' and 'kernel' in the 'simulate' section are read only "
                          "with \"declared_regime\": \"r~h\"")
    kernel = sim.get("kernel", "triangular")
    if kernel not in KERNEL_NAMES:
        raise ConfigError(f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}")
    _check_out_dir(os.path.dirname(args.out))
    sol = solve_population(model, r, grid_n)
    sample = draw_sample(sol, n, seed)
    estimands = true_estimands(model, r, grid_n)
    sidecar = {
        "n": n,
        "r": r,
        "tau_d": estimands["tau_d"],
        "tau_tot": estimands["tau_tot"],
        "provenance": _provenance(effective, seed),
    }
    if declared is not None:
        sidecar["declared_regime"] = declared
    if declared == "r~h":
        sidecar["tau_star"] = tau_star_for_model(model, 2.0 * r / sim["h"], kernel)
    # every value is computed before the first write, so a failure leaves no file
    _save({args.out: sample.to_csv, _sidecar_path(args.out): _json_text(sidecar)})
    print(f"wrote {args.out} ({n} rows) and {_sidecar_path(args.out)}")
    return 0


def _run_estimator(name: str, sample: Sample, cfg: EstimatorConfig,
                   pooling: str) -> dict:
    if name == "local_linear":
        return to_record(name, cfg, local_linear_rdd(sample, cfg))
    if name == "nadaraya_watson":
        return to_record(name, cfg, nadaraya_watson_rdd(sample, cfg))
    if name == "donut":
        return to_record(name, cfg, donut_rdd(sample, cfg))
    return to_record("spillover", cfg,
                     local_spillover_regression(sample, cfg, pooling))


def cmd_estimate(args) -> int:
    doc = _load_config(args.config)
    cfg = EstimatorConfig.from_config(_section(doc, "estimator"))
    pooling = read_section(doc.get("estimate", {}), "'estimate' section", {},
                           {"pooling": text}).get("pooling", "average")
    names = (tuple(ESTIMATOR_ALIASES.values()) if args.estimator == "all"
             else (ESTIMATOR_ALIASES[args.estimator],))
    _check_spillover(cfg if "spillover" in names else None, pooling)
    _check_out_dir(os.path.dirname(args.out))
    sample, n, rescale_info = _load_sample(args, cfg.h if cfg.r is None else cfg.h + cfg.r)
    records = [_run_estimator(name, sample, cfg, pooling) for name in names]
    payload = {
        "data": args.data,
        "n": n,
        "records": records,
        "provenance": _provenance(doc, None, rescale_info),
    }
    _save({args.out: _json_text(payload)})
    print(f"wrote {args.out} ({len(records)} record(s))")
    return 0


def cmd_crossval(args) -> int:
    doc = _load_config(args.config)
    cfg = EstimatorConfig.from_config(_section(doc, "estimator"))
    raw = _section(doc, "crossval", args.seed)
    cv = read_section(raw, "'crossval' section",
                      {"candidates": list_of(real), "folds": integer}, {"seed": integer})
    if "seed" not in cv:
        raise ConfigError("no seed: set one in the 'crossval' section or pass --seed")
    effective = dict(doc, crossval=raw)
    candidates = _check_crossval(cfg, cv["candidates"], cv["folds"])
    if args.out:
        _check_out_dir(os.path.dirname(args.out))
    sample, _, rescale_info = _load_sample(args, cfg.h + max(candidates))
    result = cross_validate_r(sample, cfg, candidates, folds=cv["folds"], seed=cv["seed"])
    print("r,feasible,mse_plus,mse_minus")
    for row in result["cv_table"]:
        feasible = "yes" if row["feasible"] else "no"
        mp = "" if row["mse_plus"] is None else "%.17g" % row["mse_plus"]
        mm = "" if row["mse_minus"] is None else "%.17g" % row["mse_minus"]
        print("%.17g,%s,%s,%s" % (row["r"], feasible, mp, mm))
    print("selected r_plus=%.17g r_minus=%.17g"
          % (result["r_plus"], result["r_minus"]))
    if args.out:
        _save({args.out: _json_text({
            "crossval": result,
            "provenance": _provenance(effective, cv["seed"], rescale_info),
        })})
    return 0


def cmd_experiment(args) -> int:
    doc = _load_config(args.config)
    sec = read_section(_section(doc, "experiment"), "'experiment' section",
                       {"study": text, "plan": lambda plan: plan})
    study = sec["study"]
    if study not in STUDIES:
        raise ConfigError(
            f"unknown study {study!r}; expected one of {sorted(STUDIES)}")
    plan = ExperimentPlan.from_config(_section(sec, "plan", args.seed))
    _check_out_dir(args.out, created=True)
    report = STUDIES[study](plan)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create {args.out}: {err.strerror or err}") from None
    json_path = os.path.join(args.out, f"{study}_report.json")
    csv_path = os.path.join(args.out, f"{study}_report.csv")
    _save({json_path: report.to_json(), csv_path: report.to_csv()})
    print(f"{study}: {len(report.cells)} cells, {len(report.failures)} "
          f"failures -> {json_path}")
    return 4 if report.failures else 0


# ------------------------------------------------------------- dispatch --


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rdspill",
                     description="Simulate, estimate, and study regression "
                                 "discontinuity designs with neighborhood "
                                 "spillovers in the running variable.")
    parser.add_argument("--version", action="version", version=f"rdspill {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], description=(
        "Solve the population model, draw a sample, and write a z,y CSV "
        "plus a sidecar JSON of true estimands."))
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", description=(
        "Run the configured estimator(s) on a z,y CSV and write JSON records."))
    est.add_argument("--config", required=True)
    est.add_argument("--data", required=True, help="input CSV with header z,y")
    est.add_argument("--out", required=True, help="output JSON path")
    est.add_argument("--estimator", default="ll",
                     choices=[*ESTIMATOR_ALIASES, "all"])
    est.add_argument("--rescale", metavar="MIN,CUTOFF,MAX", help=(
        "affine map for raw data: cutoff to 0, declared range into [-1, 1]"))
    est.set_defaults(func=cmd_estimate)

    cv = sub.add_parser("crossval", description=(
        "Cross-validate the spillover neighborhood radius and print the "
        "per-candidate table."))
    cv.add_argument("--config", required=True)
    cv.add_argument("--data", required=True)
    cv.add_argument("--out", help="optional JSON output path")
    cv.add_argument("--seed", type=int, help="override the config seed")
    cv.add_argument("--rescale", metavar="MIN,CUTOFF,MAX")
    cv.set_defaults(func=cmd_crossval)

    exp = sub.add_parser("experiment", description=(
        "Run a Monte Carlo study and write report JSON + CSV into a directory."))
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=int, help="override the plan seed")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return int(exit_err.code or 0)
    try:
        return args.func(args)
    except SolverError as err:
        return _fail(2, err)
    except DataError as err:
        return _fail(3, err)
    except EstimationError as err:
        return _fail(4, err)
    except RdspillError as err:
        return _fail(1, err)


def _fail(code: int, err: Exception) -> int:
    print(f"rdspill: error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
