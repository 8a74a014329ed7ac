"""End-to-end exercises of the command line front end.

The CLI is supposed to be a pure adapter: every number it writes must be
bit-identical to what the library produces on the same inputs, and reruns
with the same config and seed must be byte-identical on disk.
"""
import ast
import contextlib
import copy
import errno
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rdspill import cli
from rdspill.errors import SolverError
from rdspill.estimators import (
    EstimatorConfig,
    cross_validate_r,
    local_linear_rdd,
    local_spillover_regression,
)
from rdspill.funcspace import ModelSpec
from rdspill.population import solve_population, true_estimands
from rdspill.sampling import Sample, draw_sample

BENCH = {
    "m_plus": {"family": "polynomial", "coefficients": [1.0, 0.3]},
    "m_minus": {"family": "polynomial", "coefficients": [0.0, 0.2]},
    "delta": {"family": "constant", "coefficients": [0.4]},
    "gamma": {"family": "constant", "coefficients": [0.5]},
    "noise_sd": {"family": "constant", "coefficients": [0.1]},
}


def base_config() -> dict:
    return {
        "model": copy.deepcopy(BENCH),
        "estimator": {"kernel": "triangular", "h": 0.2, "r": 0.1},
        "simulate": {"n": 2500, "seed": 7, "r": 0.1, "grid_n": 2001},
        "crossval": {"candidates": [0.05, 0.1, 0.18], "folds": 2, "seed": 3},
    }


def write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def bench_sample():
    model = ModelSpec.from_config(BENCH)
    sol = solve_population(model, 0.1, 2001)
    return draw_sample(sol, 2500, 7)


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, err = run_cli(["simulate", "--config", str(tmp_path / "nope.json"),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "rdspill: error:" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc, _, err = run_cli(["simulate", "--config", str(path),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "invalid JSON" in err

    def test_root_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        rc, _, err = run_cli(["simulate", "--config", str(path),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "JSON object" in err

    def test_unknown_top_level_section(self, tmp_path, capsys):
        doc = base_config()
        doc["simulat"] = doc.pop("simulate")
        rc, _, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "simulat" in err

    def test_unknown_simulate_key(self, tmp_path, capsys):
        doc = base_config()
        doc["simulate"]["bandwidth"] = 0.1
        rc, _, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "bandwidth" in err

    def test_missing_model_section(self, tmp_path, capsys):
        doc = base_config()
        del doc["model"]
        rc, _, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "model" in err

    def test_estimate_needs_estimator_section(self, tmp_path, capsys):
        doc = base_config()
        del doc["estimator"]
        data = tmp_path / "d.csv"
        data.write_text("z,y\n0.1,1.0\n", encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config", write_config(tmp_path, doc),
                              "--data", str(data), "--out", str(tmp_path / "o.json")],
                             capsys)
        assert rc == 1
        assert "estimator" in err

    def test_bad_declared_regime(self, tmp_path, capsys):
        doc = base_config()
        doc["simulate"]["declared_regime"] = "r=h"
        rc, _, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "declared_regime" in err

    def test_regime_comparable_needs_h(self, tmp_path, capsys):
        doc = base_config()
        doc["simulate"]["declared_regime"] = "r~h"
        rc, _, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "'h'" in err

    @pytest.mark.parametrize("h", [0, -0.15])
    def test_regime_comparable_needs_a_positive_h(self, tmp_path, capsys, h):
        doc = base_config()
        doc["simulate"].update(declared_regime="r~h", h=h)
        rc, _, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1
        assert "positive 'h'" in err

    @pytest.mark.parametrize("r, h", [(0.15, 0.05), (0.1, 0.1), (0.1, 0.01)])
    def test_regime_comparable_needs_r_below_h(self, tmp_path, capsys, monkeypatch,
                                               r, h):
        # tau_star needs c = 2r/h in (0, 2): refused before the solve and the draw
        def never(*args):
            raise AssertionError("solved a population the config refuses")

        monkeypatch.setattr(cli, "solve_population", never)
        doc = base_config()
        doc["simulate"].update(declared_regime="r~h", r=r, h=h, n=2_000_000)
        rc, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc),
                                "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == 1 and out == ""
        assert f"0 < 2r/h < 2, got r={r}, h={h}" in err

    @pytest.mark.parametrize("delta0, update, code, named", [
        (0.4, {"declared_regime": "r~h", "h": 0.2, "kernel": "box"}, 1, "unknown kernel 'box'"),
        (0.4, {"kernel": "box"}, 1, "declared_regime"),
        (0.4, {"kernel": "uniform"}, 1, "declared_regime"),
        (0.4, {"h": 0.2}, 1, "declared_regime"),
        (0.4, {"declared_regime": "r>>h", "h": 0.2}, 1, "declared_regime"),
        # the solve and the draw succeed; the lambda table is refused
        (0.999, {"declared_regime": "r~h", "h": 0.2}, 4, "delta0=0.999"),
    ])
    def test_simulate_refusal_writes_no_file(self, tmp_path, capsys, delta0, update,
                                             code, named):
        doc = base_config()
        doc["model"]["delta"]["coefficients"] = [delta0]
        doc["simulate"].update(update)
        cfg = write_config(tmp_path, doc)
        rc, out, err = run_cli(["simulate", "--config", cfg,
                                "--out", str(tmp_path / "o.csv")], capsys)
        assert rc == code and named in err and out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_unknown_study(self, tmp_path, capsys):
        doc = {"experiment": {"study": "phase", "plan": {}}}
        rc, _, err = run_cli(["experiment", "--config", write_config(tmp_path, doc),
                              "--out", str(tmp_path / "d")], capsys)
        assert rc == 1
        assert "phase" in err

    @pytest.mark.parametrize("text", ["0.1,0.9", "a,b,c", "2,1,3"])
    def test_bad_rescale_values(self, tmp_path, capsys, text):
        doc = base_config()
        data = tmp_path / "d.csv"
        data.write_text("z,y\n0.5,1.0\n", encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config", write_config(tmp_path, doc),
                              "--data", str(data), "--out", str(tmp_path / "o.json"),
                              "--rescale=" + text], capsys)
        assert rc == 1
        assert "--rescale" in err

    # (subcommand and flags, a config change, where None deletes the key,
    # what the error names): each is refused with exit 1 before the data,
    # which do not exist, are read; `estimate` alone fits no spillover
    @pytest.mark.parametrize("argv, section, update, named", [
        (["crossval"], "crossval", {"folds": 1}, ">= 2 folds, got 1"),
        (["crossval"], "crossval", {"candidates": [0.05, 0.2]}, "candidate r=0.2 outside"),
        (["crossval"], "crossval", {"candidates": []}, "at least one candidate"),
        (["estimate", "--estimator", "spillover"], "estimator", {"r": None},
         "requires cfg.r"),
        (["estimate", "--estimator", "all"], "estimator", {"r": None}, "requires cfg.r"),
        (["estimate"], "estimate", {"pooling": "median"}, "pooling must be one of"),
    ], ids=["folds", "candidate", "no-candidates", "spillover-r", "all-r", "pooling"])
    def test_config_is_checked_before_the_data(self, tmp_path, capsys, argv, section,
                                               update, named):
        doc = base_config()
        doc.setdefault(section, {}).update(update)
        doc[section] = {k: v for k, v in doc[section].items() if v is not None}
        rc, out, err = run_cli([*argv, "--config", write_config(tmp_path, doc),
                                "--data", str(tmp_path / "nope.csv"),
                                "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 1 and out == "" and _one_error_line(err), err
        assert named in err

    def test_missing_required_flag(self, capsys):
        rc, _, err = run_cli(["simulate"], capsys)
        assert rc == 1
        assert "required" in err

    def test_no_subcommand(self, capsys):
        assert run_cli([], capsys)[0] == 1


def experiment_config() -> dict:
    return {"experiment": {"study": "phase_transition", "plan": {
        "model": copy.deepcopy(BENCH),
        "regime_map": [{"label": "r>>h", "target": "tau_d", "factor": 8.0}],
        "n_grid": [2000], "replications": 2, "seed": 1}}}


NAN, INF = float("nan"), float("inf")
# (subcommand, path to the value, the malformed value, what the error names);
# json.dumps writes nan and inf as NaN and Infinity, which json.load accepts
MALFORMED = [
    ("simulate", ("simulate", "n"), "abc", "'n'"),
    ("simulate", ("simulate", "n"), 500.9, "'n'"),
    ("simulate", ("simulate", "seed"), 1.5, "'seed'"),
    ("simulate", ("simulate", "seed"), True, "'seed'"),
    ("simulate", ("simulate", "seed"), -1, "'seed'"),
    ("simulate", ("simulate", "r"), None, "'r'"),
    ("simulate", ("simulate", "r"), NAN, "NaN"),
    ("simulate", ("simulate", "grid_n"), -INF, "-Infinity"),
    ("simulate", ("simulate", "h"), "0.15", "'h'"),
    ("simulate", ("simulate", "declared_regime"), 3, "'declared_regime'"),
    ("simulate", ("simulate",), [1], "'simulate' section"),
    ("simulate", ("model", "delta", "coefficients"), 5,
     "'delta': function spec: 'coefficients'"),
    ("simulate", ("model", "gamma", "coefficients"), [0.5, "x"],
     "'gamma': function spec: 'coefficients'[1]"),
    ("simulate", ("model", "gamma_one_sided"), "yes", "'gamma_one_sided'"),
    ("simulate", ("model", "m_plus"), [1], "'m_plus': function spec"),
    ("estimate", ("estimator", "h"), "0.15", "'h'"),
    ("estimate", ("estimator", "r"), NAN, "NaN"),
    ("estimate", ("estimator", "r"), INF, "Infinity"),
    ("estimate", ("estimator", "kernel"), 1, "'kernel'"),
    ("estimate", ("estimate",), {"pooling": ["plus"]}, "'pooling'"),
    ("crossval", ("crossval", "candidates"), 0.05, "'candidates'"),
    ("crossval", ("crossval", "folds"), 2.7, "'folds'"),
    ("crossval", ("crossval", "seed"), "3", "'seed'"),
    ("experiment", ("experiment", "plan"), [1], "experiment plan"),
    ("experiment", ("experiment", "study"), ["x"], "'study'"),
    ("experiment", ("experiment", "plan", "regime_map"), [1], "'regime_map'[0]: regime rule"),
    ("experiment", ("experiment", "plan", "regime_map", 0, "factor"), None,
     "'regime_map'[0]: regime rule: 'factor'"),
    ("experiment", ("experiment", "plan", "n_grid"), [2000.5], "'n_grid'[0]"),
    ("experiment", ("experiment", "plan", "replications"), "2", "'replications'"),
    ("experiment", ("experiment", "plan", "seed"), -7, "'seed'"),
    ("experiment", ("experiment", "plan", "h_coef"), True, "'h_coef'"),
    # every study fits a fixed set of estimators; a plan cannot choose one
    ("experiment", ("experiment", "plan", "estimators"), ["local_linear"],
     "unknown keys in experiment plan: ['estimators']"),
    ("experiment", ("experiment", "plan", "n_grid"), [2000, 2000, 4000],
     "n_grid repeats a sample size"),
    # grids solve_population refuses, and a radius rule whose n^n_power overflows
    *[("experiment", ("experiment", "plan", "grid_n"), g, f"grid_n must be odd and >= 201, got {g}")
      for g in (0, 1, 2, 200)],
    ("experiment", ("experiment", "plan", "regime_map", 0, "n_power"), 400,
     "regime 'r>>h' overflows at n=2000"),
]


class TestMalformedConfigs:
    @pytest.mark.parametrize("command, path, value, named", MALFORMED,
                             ids=[f"{c}-{'.'.join(map(str, p))}={v!r}"
                                  for c, p, v, _ in MALFORMED])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, command, path,
                                         value, named):
        doc = experiment_config() if command == "experiment" else base_config()
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        data = tmp_path / "d.csv"
        data.write_text("z,y\n0.1,1.0\n-0.1,0.0\n", encoding="utf-8")
        extra = {"simulate": ["--out", str(tmp_path / "o.csv")],
                 "estimate": ["--data", str(data), "--out", str(tmp_path / "o.json")],
                 "crossval": ["--data", str(data)],
                 "experiment": ["--out", str(tmp_path / "d")]}[command]
        rc, out, err = run_cli([command, "--config", write_config(tmp_path, doc),
                                *extra], capsys)
        assert rc == 1
        assert err.startswith("rdspill: error:") and err.count("\n") == 1
        assert named in err
        assert "Traceback" not in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d.csv"]

    def test_whole_valued_float_count_is_accepted(self, tmp_path, capsys):
        doc = base_config()
        doc["simulate"]["n"] = 20000
        as_int = write_config(tmp_path, doc, "int.json")
        as_float = tmp_path / "float.json"
        as_float.write_text(json.dumps(doc).replace('"n": 20000', '"n": 2e4'),
                            encoding="utf-8")
        assert '"n": 2e4' in as_float.read_text(encoding="utf-8")
        for cfg, out in ((as_int, "int.csv"), (str(as_float), "float.csv")):
            rc, _, err = run_cli(["simulate", "--config", cfg,
                                  "--out", str(tmp_path / out)], capsys)
            assert rc == 0, err
        assert (tmp_path / "float.csv").read_bytes() == (tmp_path / "int.csv").read_bytes()
        sidecar = json.loads((tmp_path / "float.estimands.json").read_text())
        assert sidecar["n"] == 20000 and isinstance(sidecar["n"], int)


def _one_error_line(err: str) -> bool:
    return (err.startswith("rdspill: error:") and err.count("\n") == 1
            and "Traceback" not in err)


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["simulate", "estimate", "crossval", "experiment"])
    def test_exits_1_before_the_work_and_writes_nothing(self, tmp_path, capsys,
                                                       monkeypatch, command):
        # a missing directory for the three file outputs; a regular file
        # where experiment's output directory would be created
        doc = experiment_config() if command == "experiment" else base_config()
        cfg = write_config(tmp_path, doc)
        data = tmp_path / "d.csv"
        data.write_text("z,y\n0.1,1.0\n-0.1,0.0\n", encoding="utf-8")
        (tmp_path / "afile").write_text("", encoding="utf-8")
        extra = {"simulate": ["--out", str(tmp_path / "nodir" / "s.csv")],
                 "estimate": ["--data", str(data), "--out", str(tmp_path / "nodir" / "e.json")],
                 "crossval": ["--data", str(data), "--out", str(tmp_path / "nodir" / "c.json")],
                 "experiment": ["--out", str(tmp_path / "afile" / "sub")]}[command]
        def no_work(*args, **kwargs):
            raise AssertionError("the work started before the output was checked")

        monkeypatch.setattr(cli, "solve_population", no_work)
        monkeypatch.setattr(cli, "parse_sample_csv", no_work)
        monkeypatch.setattr(cli, "STUDIES", {"phase_transition": no_work})
        before = sorted(p.name for p in tmp_path.iterdir())
        rc, out, err = run_cli([command, "--config", cfg, *extra], capsys)
        assert rc == 1 and out == "" and _one_error_line(err), err
        assert "nodir" in err or "afile" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_a_failed_second_write_removes_the_first(self, tmp_path, capsys):
        # the sidecar's path is a directory: the CSV written before it goes too
        (tmp_path / "s.estimands.json").mkdir()
        rc, out, err = run_cli(["simulate", "--config", write_config(tmp_path, base_config()),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert rc == 1 and out == "" and _one_error_line(err), err
        assert "s.estimands.json" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                               "s.estimands.json"]

    def test_a_failed_rerun_keeps_the_previous_files(self, tmp_path, capsys, monkeypatch):
        # a full disk while the CSV is written: the first run's two files
        # stay byte for byte, and no temporary file is left beside them
        cfg = write_config(tmp_path, base_config())
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]
        assert run_cli(argv, capsys)[0] == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        def full_disk(self, fh):
            fh.write("z,y\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Sample, "to_csv", full_disk)
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1 and out == "" and _one_error_line(err), err
        assert "s.csv" in err and os.strerror(errno.ENOSPC) in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestExistingOutput:
    def test_a_symlinked_output_stays_a_link_to_the_new_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        fresh = tmp_path / "fresh.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", str(fresh)], capsys)[0] == 0
        real = tmp_path / "real.csv"
        real.write_text("z,y\n0.5,1.0\n", encoding="utf-8")
        link = tmp_path / "s.csv"
        link.symlink_to(real)
        rc, out, err = run_cli(["simulate", "--config", cfg, "--out", str(link)], capsys)
        assert rc == 0, err
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "fresh.csv", "fresh.estimands.json", "real.csv", "s.csv",
            "s.estimands.json"]

    def test_a_rerun_keeps_the_output_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]
        assert run_cli(argv, capsys)[0] == 0
        os.chmod(tmp_path / "s.csv", 0o600)
        assert run_cli(argv, capsys)[0] == 0
        assert (tmp_path / "s.csv").stat().st_mode & 0o7777 == 0o600


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTinyRadius:
    # r = 1e-300 does not move Z in floating point, so the spillover design
    # holds NaN; the run must end like r = 1e-12, in an estimation error,
    # with no numpy warning before the error line
    @pytest.mark.parametrize("r", [1e-12, 1e-300])
    def test_spillover_estimate_exits_4(self, tmp_path, capsys, r):
        doc = base_config()
        doc["estimator"]["r"] = r
        cfg = write_config(tmp_path, doc)
        data = tmp_path / "s.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", str(data)], capsys)[0] == 0
        rc, out, err = run_cli(["estimate", "--config", cfg, "--data", str(data),
                                "--out", str(tmp_path / "e.json"),
                                "--estimator", "spillover"], capsys)
        assert rc == 4 and out == "" and _one_error_line(err), err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("r", [1e-12, 1e-300])
    def test_crossval_exits_4(self, tmp_path, capsys, r):
        doc = base_config()
        doc["crossval"]["candidates"] = [r]
        cfg = write_config(tmp_path, doc)
        data = tmp_path / "s.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", str(data)], capsys)[0] == 0
        rc, out, err = run_cli(["crossval", "--config", cfg, "--data", str(data),
                                "--out", str(tmp_path / "c.json")], capsys)
        assert rc == 4 and _one_error_line(err), err
        assert "no candidate radius" in err
        assert not (tmp_path / "c.json").exists()


class TestSimulate:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc, _, _ = run_cli(["simulate", "--config",
                            write_config(tmp_path, base_config()),
                            "--out", str(out)], capsys)
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "z,y"
        assert len(lines) == 2501
        sidecar = json.loads((tmp_path / "sim.estimands.json").read_text())
        assert sidecar["tau_d"] == 1.0
        assert abs(sidecar["tau_tot"] - 2.5) < 1e-6
        assert sidecar["r"] == 0.1
        prov = sidecar["provenance"]
        assert prov["seed"] == 7
        assert prov["version"]
        assert len(prov["config_hash"]) == 16

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        for name in ("a.csv", "b.csv"):
            assert run_cli(["simulate", "--config", cfg,
                            "--out", str(tmp_path / name)], capsys)[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert ((tmp_path / "a.estimands.json").read_bytes()
                == (tmp_path / "b.estimands.json").read_bytes())

    def test_seed_flag_overrides_and_matches(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "a.csv")],
                capsys)
        run_cli(["simulate", "--config", cfg, "--seed", "7",
                 "--out", str(tmp_path / "same.csv")], capsys)
        run_cli(["simulate", "--config", cfg, "--seed", "8",
                 "--out", str(tmp_path / "diff.csv")], capsys)
        assert (tmp_path / "same.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert (tmp_path / "diff.csv").read_bytes() != (tmp_path / "a.csv").read_bytes()
        diff = json.loads((tmp_path / "diff.estimands.json").read_text())
        base = json.loads((tmp_path / "a.estimands.json").read_text())
        assert diff["provenance"]["seed"] == 8
        assert diff["provenance"]["config_hash"] != base["provenance"]["config_hash"]

    def test_tau_star_only_when_declared(self, tmp_path, capsys):
        doc = base_config()
        run_cli(["simulate", "--config", write_config(tmp_path, doc, "plain.json"),
                 "--out", str(tmp_path / "plain.csv")], capsys)
        plain = json.loads((tmp_path / "plain.estimands.json").read_text())
        assert "tau_star" not in plain
        assert "declared_regime" not in plain

        doc["simulate"]["declared_regime"] = "r~h"
        doc["simulate"]["h"] = 0.2
        run_cli(["simulate", "--config", write_config(tmp_path, doc, "decl.json"),
                 "--out", str(tmp_path / "decl.csv")], capsys)
        decl = json.loads((tmp_path / "decl.estimands.json").read_text())
        assert decl["declared_regime"] == "r~h"
        # r/h = 1/2 puts the window-to-bandwidth ratio at 1, where the
        # pooled-design limit sits near 1.161 for this model.
        assert abs(decl["tau_star"] - 1.161) < 1e-3

    def test_sidecar_tau_tot_survives_grid_doubling(self, tmp_path, capsys):
        run_cli(["simulate", "--config", write_config(tmp_path, base_config()),
                 "--out", str(tmp_path / "sim.csv")], capsys)
        sidecar = json.loads((tmp_path / "sim.estimands.json").read_text())
        model = ModelSpec.from_config(BENCH)
        doubled = true_estimands(model, 0.1, grid_n=4001)
        assert abs(sidecar["tau_tot"] - doubled["tau_tot"]) <= 1e-4

    def test_sidecar_path_without_csv_suffix(self, tmp_path, capsys):
        run_cli(["simulate", "--config", write_config(tmp_path, base_config()),
                 "--out", str(tmp_path / "sim.dat")], capsys)
        assert (tmp_path / "sim.dat.estimands.json").exists()


class TestEstimate:
    @pytest.fixture()
    def sim_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)], capsys)[0] == 0
        return cfg, str(out)

    def test_default_estimator_is_local_linear(self, tmp_path, capsys, sim_csv):
        cfg, data = sim_csv
        rc, _, _ = run_cli(["estimate", "--config", cfg, "--data", data,
                            "--out", str(tmp_path / "est.json")], capsys)
        assert rc == 0
        doc = json.loads((tmp_path / "est.json").read_text())
        assert [r["estimator"] for r in doc["records"]] == ["local_linear"]
        assert doc["n"] == 2500

    def test_round_trip_matches_library_bitwise(self, tmp_path, capsys, sim_csv,
                                                bench_sample):
        cfg, data = sim_csv
        run_cli(["estimate", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "est.json"), "--estimator", "all"], capsys)
        records = json.loads((tmp_path / "est.json").read_text())["records"]
        by_name = {r["estimator"]: r for r in records}

        ecfg = EstimatorConfig.from_config(base_config()["estimator"])
        ll = local_linear_rdd(bench_sample, ecfg)
        assert by_name["local_linear"]["tau_d"] == ll.tau_hat
        assert by_name["local_linear"]["coefficients"]["beta_plus"] == list(ll.beta_plus)
        assert by_name["donut"]["tau_d"] == ll.tau_hat

        spill = local_spillover_regression(bench_sample, ecfg, pooling="average")
        rec = by_name["spillover"]
        assert rec["tau_d"] == spill.tau_d_hat
        assert rec["tau_tot"] == spill.tau_tot_hat
        assert rec["diagnostics"]["delta_hat"] == spill.delta_hat
        assert rec["diagnostics"]["gamma_hat"] == spill.gamma_hat

    def test_all_returns_four_records_in_order(self, tmp_path, capsys, sim_csv):
        cfg, data = sim_csv
        run_cli(["estimate", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "est.json"), "--estimator", "all"], capsys)
        doc = json.loads((tmp_path / "est.json").read_text())
        assert [r["estimator"] for r in doc["records"]] == [
            "local_linear", "nadaraya_watson", "donut", "spillover"]

    def test_out_of_range_z_names_row(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("z,y\n0.5,1.0\n1.5,2.0\n", encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config",
                              write_config(tmp_path, base_config()),
                              "--data", str(data),
                              "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 3
        assert err == f"rdspill: error: {data}: row 3, column z: 1.5 outside [-1, 1]\n"

    @pytest.mark.parametrize("rescale, reason", [
        (None, "-1.5 outside [-1, 1]"),
        ("--rescale=-1,0,1", "value outside the range declared by --rescale"),
    ], ids=["unit-range", "rescale"])
    def test_out_of_range_z_past_the_first_chunk_reports_its_row(self, tmp_path, capsys,
                                                                 rescale, reason):
        # the row of the first bad z counts every row before it, in every piece
        good = "-0.12345678901234567,1.2345678901234567\n"
        data = tmp_path / "late.csv"
        data.write_text("z,y\n" + good * 99_998 + "-1.5,1.0\n" + good * 10,
                        encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config", write_config(tmp_path, base_config()),
                              "--data", str(data), "--out", str(tmp_path / "o.json"),
                              *([rescale] if rescale else [])], capsys)
        assert rc == 3
        assert err == f"rdspill: error: {data}: row 100000, column z: {reason}\n"

    @pytest.mark.parametrize("rescale", [None, "--rescale=-1,0,1"],
                             ids=["unit-range", "rescale"])
    def test_a_malformed_cell_is_reported_before_an_out_of_range_z(self, tmp_path,
                                                                   capsys, rescale):
        data = tmp_path / "bad.csv"
        data.write_text("z,y\n1.5,1.0\n0.5,oops\n", encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config", write_config(tmp_path, base_config()),
                              "--data", str(data), "--out", str(tmp_path / "o.json"),
                              *([rescale] if rescale else [])], capsys)
        assert rc == 3
        assert err == f"rdspill: error: {data}: row 3, column y: not a number: 'oops'\n"

    def test_non_numeric_cell_names_row_and_column(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("z,y\n0.5,oops\n", encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config",
                              write_config(tmp_path, base_config()),
                              "--data", str(data),
                              "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 3
        assert "row 2" in err and "column y" in err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        rc, _, err = run_cli(["estimate", "--config",
                              write_config(tmp_path, base_config()),
                              "--data", str(tmp_path / "nope.csv"),
                              "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 3
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["estimate", "crossval"])
    def test_non_utf8_data_exits_3_with_one_line(self, tmp_path, capsys, command):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"z,y\n0.5,1.0\n0.2,\xff\n")
        out = tmp_path / "o.json"
        rc, stdout, err = run_cli([command, "--config",
                                   write_config(tmp_path, base_config()),
                                   "--data", str(data), "--out", str(out)], capsys)
        assert rc == 3
        assert err == f"rdspill: error: {data}: row 3, column y: not a number: '\\udcff'\n"
        assert stdout == "" and not out.exists()

    def test_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverError("residual blew up")

        monkeypatch.setattr(cli, "solve_population", boom)
        rc, _, err = run_cli(["simulate", "--config",
                              write_config(tmp_path, base_config()),
                              "--out", str(tmp_path / "s.csv")], capsys)
        assert rc == 2
        assert "residual blew up" in err

    def test_estimation_failure_exits_4(self, tmp_path, capsys):
        data = tmp_path / "thin.csv"
        data.write_text("z,y\n0.1,1.0\n0.2,1.1\n0.3,1.2\n", encoding="utf-8")
        rc, _, err = run_cli(["estimate", "--config",
                              write_config(tmp_path, base_config()),
                              "--data", str(data),
                              "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 4
        assert "side" in err

    def test_invalid_estimator_config_exits_1(self, tmp_path, capsys):
        doc = base_config()
        doc["estimator"]["h"] = 0.0
        data = tmp_path / "d.csv"
        data.write_text("z,y\n0.1,1.0\n", encoding="utf-8")
        rc, _, _ = run_cli(["estimate", "--config", write_config(tmp_path, doc),
                            "--data", str(data),
                            "--out", str(tmp_path / "o.json")], capsys)
        assert rc == 1

    def test_pooling_section_is_honored(self, tmp_path, capsys, sim_csv,
                                        bench_sample):
        cfg_doc = base_config()
        cfg_doc["estimate"] = {"pooling": "plus"}
        _, data = sim_csv
        run_cli(["estimate", "--config", write_config(tmp_path, cfg_doc, "p.json"),
                 "--data", data, "--out", str(tmp_path / "est.json"),
                 "--estimator", "spillover"], capsys)
        rec = json.loads((tmp_path / "est.json").read_text())["records"][0]
        ecfg = EstimatorConfig.from_config(cfg_doc["estimator"])
        plus = local_spillover_regression(bench_sample, ecfg, pooling="plus")
        assert rec["diagnostics"]["delta_hat"] == plus.delta_hat


class TestRescale:
    def write_raw(self, tmp_path, z, y):
        path = tmp_path / "raw.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("z,y\n")
            for a, b in zip(z, y):
                fh.write("%.17g,%.17g\n" % (a, b))
        return str(path)

    @pytest.mark.parametrize("text", ["-inf,0,inf", "-1e308,1.2e308,1.5e308"])
    def test_non_finite_bounds_exit_1(self, tmp_path, capsys, text):
        # an infinite bound, or a span max - min that overflows, would make
        # the scale inf, map every z to +-0 and fail later, in the fit
        data = self.write_raw(tmp_path, [40.0, 60.0], [1.0, 2.0])
        rc, out, err = run_cli(["estimate", "--config",
                                write_config(tmp_path, base_config()),
                                "--data", data, "--out", str(tmp_path / "o.json"),
                                "--rescale=" + text], capsys)
        assert rc == 1 and out == "" and _one_error_line(err), err
        assert "--rescale" in err and "finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_map_exits_3_without_a_warning(self, tmp_path, capsys):
        # 0.5 / 1e-320 overflows to inf: out of range, with no numpy warning
        data = self.write_raw(tmp_path, [0.5, -0.5], [1.0, 2.0])
        rc, out, err = run_cli(["estimate", "--config",
                                write_config(tmp_path, base_config()),
                                "--data", data, "--out", str(tmp_path / "o.json"),
                                "--rescale=-1e-320,0,1e-320"], capsys)
        assert rc == 3 and out == "" and _one_error_line(err), err
        assert "row 2, column z" in err

    def test_affine_map_matches_manual_rescale(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        z = rng.uniform(30.0, 80.0, 600)
        y = 2.0 * (z >= 55.0) + 0.01 * z + rng.normal(0.0, 0.1, 600)
        data = self.write_raw(tmp_path, z, y)
        rc, _, _ = run_cli(["estimate", "--config",
                            write_config(tmp_path, base_config()),
                            "--data", data, "--out", str(tmp_path / "est.json"),
                            "--rescale=30,55,80"], capsys)
        assert rc == 0
        doc = json.loads((tmp_path / "est.json").read_text())
        assert doc["provenance"]["rescale"] == {
            "min": 30.0, "cutoff": 55.0, "max": 80.0, "scale": 25.0}
        # same affine map applied by hand, then the library estimator
        z_round = np.array([float("%.17g" % v) for v in z])
        y_round = np.array([float("%.17g" % v) for v in y])
        manual = Sample(z=(z_round - 55.0) / 25.0, y=y_round)
        ecfg = EstimatorConfig.from_config(base_config()["estimator"])
        direct = local_linear_rdd(manual, ecfg)
        assert doc["records"][0]["tau_d"] == direct.tau_hat

    def test_value_outside_declared_range_exits_3(self, tmp_path, capsys):
        data = self.write_raw(tmp_path, [40.0, 95.0], [1.0, 2.0])
        rc, _, err = run_cli(["estimate", "--config",
                              write_config(tmp_path, base_config()),
                              "--data", data, "--out", str(tmp_path / "o.json"),
                              "--rescale=30,55,80"], capsys)
        assert rc == 3
        assert "row 3" in err

    def test_declared_endpoints_are_allowed(self, tmp_path, capsys):
        z = list(np.linspace(30.0, 80.0, 60))
        y = [0.1 * v for v in z]
        data = self.write_raw(tmp_path, z, y)
        rc, _, _ = run_cli(["estimate", "--config",
                            write_config(tmp_path, base_config()),
                            "--data", data, "--out", str(tmp_path / "o.json"),
                            "--rescale=30,55,80"], capsys)
        assert rc == 0


def write_rows(path, z, y) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("z,y\n" + "".join("%.17g,%.17g\n" % row for row in zip(z, y)))
    return str(path)


class TestWindowedInput:
    """The CLI keeps only its command's window of the file: far rows, the row
    order and an exact --rescale map move no bit of any output."""

    @pytest.fixture()
    def files(self, tmp_path, bench_sample):
        z, y = bench_sample.z, bench_sample.y
        rng = np.random.default_rng(29)
        far = np.concatenate([rng.uniform(0.9, 1.0, 40), -rng.uniform(0.9, 1.0, 40),
                              [0.9, -0.9, 1.0, -1.0]])
        mixed_z = np.concatenate([z, far])
        mixed_y = np.concatenate([y, np.full(far.size, 1e9)])
        order = rng.permutation(mixed_z.size)
        return {"config": write_config(tmp_path, base_config()),
                "plain": write_rows(tmp_path / "plain.csv", z, y),
                "mixed": write_rows(tmp_path / "mixed.csv", mixed_z[order], mixed_y[order]),
                "doubled": write_rows(tmp_path / "doubled.csv", 2.0 * z, y),
                "n": (z.size, mixed_z.size)}

    def estimate(self, tmp_path, capsys, files, data, *extra):
        out = tmp_path / f"est-{data}.json"
        rc, _, err = run_cli(["estimate", "--config", files["config"], "--data", files[data],
                              "--out", str(out), "--estimator", "all", *extra], capsys)
        assert rc == 0, err
        return json.loads(out.read_text())

    def crossval(self, tmp_path, capsys, files, data, *extra):
        out = tmp_path / f"cv-{data}.json"
        rc, stdout, err = run_cli(["crossval", "--config", files["config"], "--data",
                                   files[data], "--out", str(out), *extra], capsys)
        assert rc == 0, err
        return out.read_text(), stdout

    def test_estimate_ignores_far_rows_and_row_order(self, tmp_path, capsys, files):
        plain = self.estimate(tmp_path, capsys, files, "plain")
        mixed = self.estimate(tmp_path, capsys, files, "mixed")
        assert mixed["records"] == plain["records"]
        assert (plain["n"], mixed["n"]) == files["n"]  # every data row counts

    def test_crossval_ignores_far_rows_and_row_order(self, tmp_path, capsys, files):
        assert (self.crossval(tmp_path, capsys, files, "mixed")
                == self.crossval(tmp_path, capsys, files, "plain"))

    def test_exact_rescale_reproduces_the_unscaled_run(self, tmp_path, capsys, files):
        # 2Z written, parsed and divided by the scale 2 is Z again, bit for bit
        rescale = "--rescale=-2,0,2"
        plain = self.estimate(tmp_path, capsys, files, "plain")
        doubled = self.estimate(tmp_path, capsys, files, "doubled", rescale)
        assert doubled["records"] == plain["records"]
        plain_cv, plain_out = self.crossval(tmp_path, capsys, files, "plain")
        doubled_cv, doubled_out = self.crossval(tmp_path, capsys, files, "doubled", rescale)
        assert json.loads(doubled_cv)["crossval"] == json.loads(plain_cv)["crossval"]
        assert doubled_out == plain_out


class TestWindowMemory:
    """tracemalloc bounds on the benchmark's analyze crossval at n = 2e5:
    once the file is loaded, the CLI holds its window's 16 bytes per row and
    little else, and cross-validation's temporaries scale with that window.
    Both bounds fail where the CLI keeps all n rows and each estimator copies
    and sorts its own window: there 59 bytes per window row are live, and
    cross-validation peaks at 5.7 times the window's bytes."""

    N = 200_000
    H, CANDIDATES = 0.15, [0.04, 0.075, 0.12]
    LOAD_SLACK = 64 * 1024  # bytes beyond the window's data; 35 kB measured
    CV_PEAK_RATIO = 4.0  # cross_validate_r's peak over its window's bytes; 3.25 measured

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("window-memory")
        sample = draw_sample(solve_population(ModelSpec.from_config(BENCH), 0.075, 2001),
                             self.N, 1)
        data = tmp / "data.csv"
        with open(data, "w", encoding="utf-8") as fh:
            sample.to_csv(fh)
        reach = self.H + max(self.CANDIDATES)
        counts = (int(np.count_nonzero(np.abs(sample.z) <= reach)),
                  int(np.count_nonzero(np.abs(sample.z) < reach)))
        del sample
        doc = {"model": BENCH, "estimator": {"kernel": "triangular", "h": self.H, "r": 0.075},
               "crossval": {"candidates": self.CANDIDATES, "folds": 5, "seed": 1}}
        config = write_config(tmp, doc)
        seen = {}
        real = cli.cross_validate_r

        def measured(*args, **kwargs):
            seen["live"] = tracemalloc.get_traced_memory()[0]  # since the start of main
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = real(*args, **kwargs)
            seen["cv_peak"] = tracemalloc.get_traced_memory()[1] - base
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "cross_validate_r", measured)
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["crossval", "--config", config, "--data", str(data)])
            finally:
                tracemalloc.stop()
        assert code == 0
        return seen, counts

    def test_loaded_sample_is_the_window(self, traced):
        seen, (closed, _) = traced
        assert seen["live"] <= 16 * closed + self.LOAD_SLACK, (seen, closed)

    def test_crossval_peak_scales_with_the_window(self, traced):
        seen, (_, strict) = traced
        assert seen["cv_peak"] <= self.CV_PEAK_RATIO * 16 * strict, (seen, strict)


class TestCrossval:
    @pytest.fixture()
    def sim_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "sim.csv"
        run_cli(["simulate", "--config", cfg, "--out", str(out)], capsys)
        return cfg, str(out)

    def test_prints_table_and_selection(self, tmp_path, capsys, sim_csv,
                                        bench_sample):
        cfg, data = sim_csv
        rc, out, _ = run_cli(["crossval", "--config", cfg, "--data", data], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,feasible,mse_plus,mse_minus"
        assert len(lines) == 5
        assert lines[-1].startswith("selected r_plus=")

        ecfg = EstimatorConfig.from_config(base_config()["estimator"])
        direct = cross_validate_r(bench_sample, ecfg, [0.05, 0.1, 0.18],
                                  folds=2, seed=3)
        assert "r_plus=%.17g" % direct["r_plus"] in lines[-1]
        assert "r_minus=%.17g" % direct["r_minus"] in lines[-1]

    def test_out_json_has_table_and_provenance(self, tmp_path, capsys, sim_csv):
        cfg, data = sim_csv
        rc, _, _ = run_cli(["crossval", "--config", cfg, "--data", data,
                            "--out", str(tmp_path / "cv.json")], capsys)
        assert rc == 0
        doc = json.loads((tmp_path / "cv.json").read_text())
        assert len(doc["crossval"]["cv_table"]) == 3
        assert doc["provenance"]["seed"] == 3

    def test_rerun_prints_identical_output(self, capsys, sim_csv):
        cfg, data = sim_csv
        _, first, _ = run_cli(["crossval", "--config", cfg, "--data", data], capsys)
        _, second, _ = run_cli(["crossval", "--config", cfg, "--data", data], capsys)
        assert first == second

    def test_seed_flag_fills_missing_config_seed(self, tmp_path, capsys, sim_csv):
        doc = base_config()
        del doc["crossval"]["seed"]
        _, data = sim_csv
        cfg = write_config(tmp_path, doc, "noseed.json")
        rc, _, err = run_cli(["crossval", "--config", cfg, "--data", data], capsys)
        assert rc == 1
        assert "seed" in err
        rc, out, _ = run_cli(["crossval", "--config", cfg, "--data", data,
                              "--seed", "3"], capsys)
        assert rc == 0
        assert out.strip().splitlines()[-1].startswith("selected")


class TestExperiment:
    def plan_doc(self, **overrides) -> dict:
        plan = {
            "model": copy.deepcopy(BENCH),
            "regime_map": [{"label": "r>>h", "target": "tau_d",
                            "factor": 8.0, "n_power": 0.0}],
            "n_grid": [1200],
            "replications": 3,
            "seed": 21,
            "grid_n": 1601,
        }
        plan.update(overrides)
        return {"experiment": {"study": "phase_transition", "plan": plan}}

    def test_writes_report_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.plan_doc())
        out = tmp_path / "results"
        rc, _, _ = run_cli(["experiment", "--config", cfg, "--out", str(out)],
                           capsys)
        assert rc == 0
        report = json.loads((out / "phase_transition_report.json").read_text())
        assert len(report["cells"]) == 1
        assert report["failures"] == []
        assert report["provenance"]["seed"] == 21
        csv_text = (out / "phase_transition_report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("study,regime,estimator")

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.plan_doc())
        for name in ("one", "two"):
            run_cli(["experiment", "--config", cfg,
                     "--out", str(tmp_path / name)], capsys)
        for fname in ("phase_transition_report.json", "phase_transition_report.csv"):
            assert ((tmp_path / "one" / fname).read_bytes()
                    == (tmp_path / "two" / fname).read_bytes())

    def test_runs_without_multiprocessing(self, tmp_path):
        # the replications run in the calling process: no pool is started
        cfg = write_config(tmp_path, self.plan_doc())
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_PROBE_CLI, "experiment",
             "--config", cfg, "--out", str(tmp_path / "results")],
            env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_cell_failure_exits_4_but_still_writes(self, tmp_path, capsys):
        # a bandwidth this small strands the local fits without support
        cfg = write_config(tmp_path, self.plan_doc(
            n_grid=[50], replications=2, h_coef=0.02, seed=9))
        out = tmp_path / "results"
        rc, _, _ = run_cli(["experiment", "--config", cfg, "--out", str(out)],
                           capsys)
        assert rc == 4
        report = json.loads((out / "phase_transition_report.json").read_text())
        assert len(report["failures"]) == 1
        assert "InsufficientSupport" in report["failures"][0]["error"]

    def test_seed_flag_overrides_plan_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.plan_doc())
        run_cli(["experiment", "--config", cfg, "--seed", "77",
                 "--out", str(tmp_path / "results")], capsys)
        report = json.loads(
            (tmp_path / "results" / "phase_transition_report.json").read_text())
        assert report["provenance"]["seed"] == 77


def _child_env(**blas) -> dict:
    """This process's environment without OPENBLAS_NUM_THREADS, plus the
    given value if any."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(blas)
    return env


# runs the CLI, then prints whether the run imported multiprocessing
MODULES_PROBE_CLI = """
import sys
from rdspill.cli import main
rc = main(sys.argv[1:])
print("multiprocessing" in sys.modules)
sys.exit(rc)
"""

# runs the CLI held to one CPU
ONE_CPU_CLI = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from rdspill.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestBlasPin:
    PROBE = "import os, rdspill; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    def probe(self, code, env) -> str:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_pins_one_thread_when_unset(self):
        assert self.probe(self.PROBE, _child_env()) == "1\n"

    def test_import_keeps_a_preset_value(self):
        assert self.probe(self.PROBE, _child_env(OPENBLAS_NUM_THREADS="2")) == "2\n"

    def test_import_after_numpy_leaves_the_variable_unset(self):
        assert self.probe("import numpy; " + self.PROBE, _child_env()) == "None\n"

    def test_this_suite_runs_pinned(self):
        # conftest imports rdspill before numpy; had numpy come first, the
        # variable would be unset (see above) and the acceptance studies
        # would run on threaded BLAS, unlike `rdspill experiment`
        assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="an all-CPU run needs Linux and two usable CPUs "
                               "to differ from a one-CPU run")
    def test_experiment_report_same_on_all_cpus_unset_and_one_cpu_preset(
            self, tmp_path):
        # check 11's experiment: unset and pinned by the import, on every
        # CPU, against "1" preset and held to one CPU
        cfg = write_config(tmp_path, TestExperiment().plan_doc(
            n_grid=[900], replications=4))
        reports = []
        for name, code, env in (
                ("all_cpus", None, _child_env()),
                ("one_cpu", ONE_CPU_CLI, _child_env(OPENBLAS_NUM_THREADS="1"))):
            out = tmp_path / name
            argv = ["-m", "rdspill.cli"] if code is None else ["-c", code]
            proc = subprocess.run(
                [sys.executable, *argv, "experiment", "--config", cfg,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append([(out / f).read_bytes() for f in (
                "phase_transition_report.json", "phase_transition_report.csv")])
        assert reports[0] == reports[1]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _toml_strings(text: str, table: str) -> dict:
    """`key = "value"` pairs of one TOML table; enough for pyproject.toml,
    and the same on every supported Python (3.10 has no tomllib)."""
    match = re.search(rf"^\[{re.escape(table)}\][ \t]*$(.*?)(?=^\[|\Z)", text,
                      re.M | re.S)
    body = match.group(1) if match else ""
    return dict(re.findall(r'^[ \t]*([\w.-]+)[ \t]*=[ \t]*"([^"]*)"', body, re.M))


def project_metadata() -> tuple[str, dict]:
    """The declared [project] version and [project.scripts] table."""
    text = PYPROJECT.read_text(encoding="utf-8")
    return (_toml_strings(text, "project")["version"],
            _toml_strings(text, "project.scripts"))


class TestEntryPoint:
    def test_console_script_reports_version(self):
        version, scripts = project_metadata()
        assert "rdspill" in scripts, scripts
        module, _, attr = scripts["rdspill"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            scripts["rdspill"]
        # what the generated console-script wrapper runs
        wrapper = (f"import sys\nfrom {module} import {attr}\n"
                   f"sys.argv[0] = 'rdspill'\nsys.exit({attr}())\n")
        proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"rdspill {version}\n"

    @pytest.mark.skipif(shutil.which("rdspill") is None,
                        reason="the rdspill console script is not on PATH")
    def test_installed_console_script_reports_version(self):
        version, _ = project_metadata()
        proc = subprocess.run(["rdspill", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"rdspill {version}\n"

    def test_runtime_imports_are_numpy_and_the_standard_library(self):
        # numpy is the one declared runtime dependency; anything else
        # installed alongside (scipy, say) must not be imported
        src = PYPROJECT.parent / "src" / "rdspill"
        outside = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                outside += [f"{path.name}:{node.lineno} {name}" for name in names
                            if name.partition(".")[0] != "numpy"
                            and name.partition(".")[0] not in sys.stdlib_module_names]
        assert outside == []

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "rdspill.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
