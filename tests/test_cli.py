import csv
import importlib.metadata as md
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paretoreg.cli import main
from paretoreg.data import Dataset, load_csv, save_csv
from paretoreg.serialize import read_frontier_json


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--example", "2", "--n", "60", "--p", "12",
            "--seed", "4", "--out", str(out),
        )
        assert rc == 0
        header = (out / "data.csv").read_text().splitlines()[0]
        assert header == ",".join([f"x{i}" for i in range(1, 13)] + ["y"])
        truth = json.loads((out / "truth.json").read_text())
        assert truth["schema"] == "paretoreg-truth/1"
        assert truth["terms"] == [f"x{i}" for i in range(1, 11)]

    def test_deterministic_bytes(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out in (a, b):
            run_cli(
                "simulate", "--example", "2", "--n", "40", "--p", "11",
                "--seed", "7", "--out", str(out),
            )
        run_cli(
            "simulate", "--example", "2", "--n", "40", "--p", "11",
            "--seed", "8", "--out", str(c),
        )
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "data.csv").read_bytes() != (c / "data.csv").read_bytes()

    def test_example1_expanded_columns(self, tmp_path):
        out = tmp_path / "sim1"
        rc = run_cli(
            "simulate", "--example", "1", "--n", "30", "--seed", "0",
            "--out", str(out),
        )
        assert rc == 0
        header = (out / "data.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 26  # 25 expanded predictors + target
        assert header[0] == "x1_lin" and header[-1] == "y"
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["mask"]) == 25


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulated dataset with a finished search run."""
    root = tmp_path_factory.mktemp("pipeline")
    sim = root / "sim"
    run = root / "run"
    assert (
        run_cli(
            "simulate", "--example", "2", "--n", "80", "--p", "12",
            "--seed", "5", "--out", str(sim),
        )
        == 0
    )
    assert (
        run_cli(
            "run", "--data", str(sim / "data.csv"), "--target", "y",
            "--iterations", "40", "--seed", "3", "--snapshot-every", "20",
            "--out", str(run),
        )
        == 0
    )
    return {"sim": sim, "run": run, "data": sim / "data.csv"}


class TestRun:
    def test_artifacts(self, pipeline):
        doc = read_frontier_json(str(pipeline["run"] / "frontier.json"))
        assert doc.n == 80
        assert len(doc.names) == 12
        assert doc.config["iterations"] == 40
        assert doc.stats["generations"] == 40
        assert len(doc.frontier) >= 3
        csv_header = (pipeline["run"] / "frontier.csv").read_text().splitlines()[0]
        assert csv_header.startswith("complexity,error")
        snaps = (pipeline["run"] / "snapshots.csv").read_text().splitlines()
        assert snaps[0] == "generation,complexity,error"
        gens = {ln.split(",")[0] for ln in snaps[1:]}
        assert gens == {"0", "20", "40"}

    def test_resolved_config_and_run_json(self, tmp_path):
        gen = np.random.default_rng(0)
        X = gen.standard_normal((60, 6))
        y = 1.0 + X[:, 0] - X[:, 3] + gen.standard_normal(60)
        csv = tmp_path / "data.csv"
        save_csv(Dataset(X=X, y=y, names=tuple(f"x{i}" for i in range(6))), str(csv))
        out = tmp_path / "run"
        assert run_cli("run", "--data", str(csv), "--target", "y", "--out", str(out)) == 0
        doc = json.loads((out / "frontier.json").read_text())
        config = doc["config"]
        assert config["population_size"] == 6
        assert config["mutation_prob"] == 1 / 6
        assert config["n_offspring"] == 6
        assert config["iterations"] == 500
        assert list(config) == [
            "data", "target", "header", "objective", "population_size", "iterations",
            "crossover_prob", "mutation_prob", "n_offspring", "seed",
            "complexity_bounds", "snapshot_every", "archive",
        ]
        assert config["objective"] == {"kind": "in_sample", "folds": None, "seed": None}
        run = json.loads((out / "run.json").read_text())
        assert run["config"] == config
        assert run["stats"] == doc["stats"]

    def test_reproducible_models(self, pipeline, tmp_path):
        rerun = tmp_path / "rerun"
        run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--iterations", "40", "--seed", "3", "--snapshot-every", "20",
            "--out", str(rerun),
        )
        d1 = json.loads((pipeline["run"] / "frontier.json").read_text())
        d2 = json.loads((rerun / "frontier.json").read_text())
        assert d1["models"] == d2["models"]
        assert d1["config"] == d2["config"]

    def test_cv_seed_defaults_to_run_seed(self, pipeline, tmp_path):
        out1 = tmp_path / "cv1"
        run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--objective", "cv:4", "--iterations", "5", "--seed", "9",
            "--out", str(out1),
        )
        doc = json.loads((out1 / "frontier.json").read_text())
        assert doc["config"]["objective"] == {
            "kind": "cross_validation", "folds": 4, "seed": 9,
        }
        out2 = tmp_path / "cv2"
        run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--objective", "cv:4", "--iterations", "5", "--seed", "9",
            "--cv-seed", "2", "--out", str(out2),
        )
        doc = json.loads((out2 / "frontier.json").read_text())
        assert doc["config"]["objective"]["seed"] == 2

    def test_progress_lines(self, pipeline, tmp_path, capsys):
        run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--iterations", "3", "--seed", "0", "--progress",
            "--out", str(tmp_path / "prog"),
        )
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert [ln.split(":")[0] for ln in err_lines] == ["gen 1", "gen 2", "gen 3"]

    def test_bounds_flag(self, pipeline, tmp_path):
        out = tmp_path / "bounded"
        rc = run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--iterations", "10", "--seed", "1", "--bounds", "2:5",
            "--out", str(out),
        )
        assert rc == 0
        doc = read_frontier_json(str(out / "frontier.json"))
        assert all(2 <= m.objective.complexity <= 5 for m in doc.frontier)


class TestBaseline:
    def test_exhaustive(self, pipeline, tmp_path):
        out = tmp_path / "exh"
        rc = run_cli(
            "baseline", "--data", str(pipeline["data"]), "--target", "y",
            "--method", "exhaustive", "--out", str(out),
        )
        assert rc == 0
        doc = read_frontier_json(str(out / "frontier.json"))
        errors = doc.frontier.errors
        assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
        assert doc.config["method"] == "exhaustive"

    def test_exhaustive_never_worse_than_search(self, pipeline, tmp_path):
        out = tmp_path / "exh2"
        run_cli(
            "baseline", "--data", str(pipeline["data"]), "--target", "y",
            "--method", "exhaustive", "--out", str(out),
        )
        exh = read_frontier_json(str(out / "frontier.json")).frontier
        ga = read_frontier_json(str(pipeline["run"] / "frontier.json")).frontier
        for m in ga:
            best = exh.at_complexity(m.objective.complexity)
            if best is not None:
                assert m.objective.error >= best.objective.error - 1e-12

    def test_stepwise_trajectory(self, pipeline, tmp_path):
        out = tmp_path / "step"
        rc = run_cli(
            "baseline", "--data", str(pipeline["data"]), "--target", "y",
            "--method", "stepwise", "--out", str(out),
        )
        assert rc == 0
        doc = json.loads((out / "trajectory.json").read_text())
        assert doc["schema"] == "paretoreg-trajectory/1"
        assert doc["method"] == "stepwise"
        assert len(doc["steps"]) >= 1
        csv_lines = (out / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == "step,complexity,error,mask,variables"
        assert len(csv_lines) == 1 + len(doc["steps"])


class TestAnalyze:
    def test_knee(self, pipeline, tmp_path, capsys):
        out = tmp_path / "knee"
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "knee", "--out", str(out),
        )
        assert rc == 0
        doc = json.loads((out / "knee.json").read_text())
        assert set(doc) == {"complexity", "distance", "pronounced"}
        assert "knee at complexity" in capsys.readouterr().out

    def test_criteria(self, pipeline, tmp_path):
        out = tmp_path / "crit"
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "criteria", "--out", str(out),
        )
        assert rc == 0
        lines = (out / "criteria.csv").read_text().splitlines()
        assert lines[0] == "complexity,mse,aic,bic,aic_min,bic_min"
        aic_marks = [ln.split(",")[4] for ln in lines[1:]]
        assert aic_marks.count("1") == 1

    def test_kappa(self, pipeline, tmp_path):
        out = tmp_path / "kap"
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "kappa", "--eval-data", str(pipeline["data"]),
            "--target", "y", "--range", "1:5", "--out", str(out),
        )
        assert rc == 0
        doc = json.loads((out / "kappa.json").read_text())
        assert doc["range"] == [1, 5]
        assert doc["kappa"] > 0

    def test_osplot_with_snapshots(self, pipeline, tmp_path):
        out = tmp_path / "os"
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "osplot",
            "--snapshots", str(pipeline["run"] / "snapshots.csv"),
            "--out", str(out),
        )
        assert rc == 0
        csv_text = (out / "os_plot.csv").read_text()
        assert "gen 0," in csv_text and "frontier," in csv_text
        assert (out / "os_plot.svg").read_text().startswith("<svg")

    def test_hsplot(self, pipeline, tmp_path, capsys):
        out = tmp_path / "hs"
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "hsplot", "--out", str(out),
        )
        assert rc == 0
        text = (out / "hs_plot.txt").read_text()
        assert text.startswith("variable")
        assert text in capsys.readouterr().out
        assert (out / "hs_plot.svg").read_text().startswith("<svg")


class TestFlagsReachLibrary:
    """Each flag's value shows in what the library returned or wrote."""

    def run_config(self, pipeline, out, *flags):
        assert run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--iterations", "5", *flags, "--out", str(out),
        ) == 0
        return json.loads((out / "run.json").read_text())["config"]

    def test_offspring(self, pipeline, tmp_path):
        assert self.run_config(pipeline, tmp_path / "o", "--offspring", "7")["n_offspring"] == 7

    def test_crossover_prob(self, pipeline, tmp_path):
        config = self.run_config(pipeline, tmp_path / "o", "--crossover-prob", "0.25")
        assert config["crossover_prob"] == 0.25

    def test_archive(self, pipeline, tmp_path):
        assert self.run_config(pipeline, tmp_path / "a", "--archive")["archive"] is True
        assert self.run_config(pipeline, tmp_path / "p")["archive"] is False

    def test_no_header(self, pipeline, tmp_path):
        # the pipeline's rows without their header: columns x1..x12 and
        # the response as x13, so the auto-names match the frontier's
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(pipeline["data"].read_text().splitlines(True)[1:]))
        no_header = ["--data", str(bare), "--target", "x13", "--no-header"]
        run = tmp_path / "run"
        assert run_cli("run", *no_header, "--iterations", "5", "--out", str(run)) == 0
        doc = read_frontier_json(str(run / "frontier.json"))
        assert doc.names == tuple(f"x{i}" for i in range(1, 13))
        assert (doc.n, doc.target) == (80, "x13")

        steps = []
        for out, data in ((tmp_path / "bare_fw", no_header),
                          (tmp_path / "fw", ["--data", str(pipeline["data"]), "--target", "y"])):
            assert run_cli("baseline", *data, "--method", "forward", "--out", str(out)) == 0
            doc = json.loads((out / "trajectory.json").read_text())
            steps.append([(m["mask"], m["error"]) for m in doc["steps"]])
        assert steps[0] == steps[1]

        kappas = []
        for out, data in ((tmp_path / "bare_k", no_header[1:]),
                          (tmp_path / "k", [str(pipeline["data"]), "--target", "y"])):
            assert run_cli(
                "analyze", "--frontier", str(run / "frontier.json"), "--task", "kappa",
                "--eval-data", *data, "--range", "1:5", "--out", str(out),
            ) == 0
            kappas.append(json.loads((out / "kappa.json").read_text())["kappa"])
        assert kappas[0] == kappas[1]

    def test_max_complexity(self, pipeline, tmp_path):
        out = tmp_path / "exh"
        assert run_cli(
            "baseline", "--data", str(pipeline["data"]), "--target", "y",
            "--method", "exhaustive", "--max-complexity", "3", "--out", str(out),
        ) == 0
        doc = read_frontier_json(str(out / "frontier.json"))
        assert max(doc.frontier.complexities) == 3
        assert doc.config["max_complexity"] == 3

    def test_force(self, tmp_path, capsys):
        gen = np.random.default_rng(2)
        X = gen.standard_normal((30, 26))
        y = X[:, 4] + gen.standard_normal(30)
        save_csv(Dataset(X=X, y=y, names=tuple(f"x{i}" for i in range(26))), str(tmp_path / "wide.csv"))
        argv = ["baseline", "--data", str(tmp_path / "wide.csv"), "--target", "y",
                "--method", "exhaustive", "--max-complexity", "1"]
        assert run_cli(*argv, "--out", str(tmp_path / "refused")) == 1
        assert "force=True" in capsys.readouterr().err
        assert run_cli(*argv, "--force", "--out", str(tmp_path / "forced")) == 0
        doc = read_frontier_json(str(tmp_path / "forced" / "frontier.json"))
        assert doc.frontier.complexities[-1] == 1
        assert doc.frontier.models[-1].selected_names(doc.names) == ("x4",)

    @pytest.mark.parametrize("example", ["1", "2"])
    def test_noise_sd(self, tmp_path, example):
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--example", example, "--n", "20", "--noise-sd", "0.375",
            "--out", str(out),
        ) == 0
        assert json.loads((out / "truth.json").read_text())["noise_sd"] == 0.375

    def test_log_y(self, pipeline, tmp_path):
        labels = []
        for out, flags in ((tmp_path / "log", ["--log-y"]), (tmp_path / "lin", [])):
            assert run_cli(
                "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
                "--task", "osplot", *flags, "--out", str(out),
            ) == 0
            labels.append("log10 error" in (out / "os_plot.svg").read_text())
        assert labels == [True, False]


class TestErrorHandling:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = run_cli(
            "run", "--data", str(tmp_path / "nope.csv"), "--target", "y",
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_stepwise_thresholds(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run_cli(
            "baseline", "--data", str(pipeline["data"]), "--target", "y",
            "--method", "stepwise", "--enter-f", "-1", "--exit-f", "-2",
            "--out", str(out),
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_bad_objective(self, pipeline, tmp_path, capsys):
        rc = run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--objective", "loocv", "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "objective" in capsys.readouterr().err

    def test_non_integer_folds(self, pipeline, tmp_path, capsys):
        rc = run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--objective", "cv:abc", "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: objective must be 'insample' or 'cv:K', got 'cv:abc'\n"

    def test_frontier_without_models(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline["run"] / "frontier.json").read_text())
        del doc["models"]
        bad = tmp_path / "frontier.json"
        bad.write_text(json.dumps(doc))
        rc = run_cli(
            "analyze", "--frontier", str(bad), "--task", "knee",
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: frontier document has no 'models' field\n"

    @pytest.mark.parametrize(
        "field", ["models", "mask", "error", "intercept", "coefficients", "n", "n-zero"]
    )
    def test_frontier_with_wrong_field_type(self, pipeline, tmp_path, capsys, field):
        doc = json.loads((pipeline["run"] / "frontier.json").read_text())
        model = doc["models"][-1]
        nan_coefficients = [1.0] * (len(model["coefficients"]) - 1) + [float("nan")]
        owner, bad = {
            "models": (doc, None),
            "mask": (model, 5),
            "error": (model, "nan"),
            "intercept": (model, float("inf")),
            "coefficients": (model, nan_coefficients),
            "n": (doc["data"], 59.7),
            "n-zero": (doc["data"], 0),
        }[field]
        field = field.split("-")[0]
        owner[field] = bad
        bad = tmp_path / "frontier.json"
        bad.write_text(json.dumps(doc))
        rc = run_cli(
            "analyze", "--frontier", str(bad), "--task", "knee",
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: frontier field '{field}' is malformed")

    def test_simulate_example_1_refuses_p(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run_cli("simulate", "--example", "1", "--n", "5", "--p", "3", "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --p applies only to example 2")
        assert not out.exists()

    def test_bad_bounds(self, pipeline, tmp_path, capsys):
        rc = run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--bounds", "5:2", "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "empty range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, words",
        [
            (["--iterations", "0"], "iterations"),
            (["--pop-size", "1"], "population_size"),
            (["--offspring", "0"], "n_offspring"),
            (["--crossover-prob", "2"], "crossover_prob"),
            (["--mutation-prob", "-1"], "mutation_prob"),
            (["--snapshot-every", "0"], "snapshot_every"),
            (["--bounds", "5:2"], "empty range"),
            (["--objective", "cv:1"], "2 folds"),
        ],
    )
    def test_bad_setting_fails_before_any_work(self, tmp_path, capsys, flags, words):
        # the data file does not exist: the setting must be refused first,
        # and no output directory made
        out = tmp_path / "o"
        rc = run_cli(
            "run", "--data", str(tmp_path / "missing.csv"), "--target", "y",
            *flags, "--out", str(out),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and words in err
        assert not out.exists()

    def test_cv_seed_refused_in_sample(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "y",
            "--cv-seed", "3", "--iterations", "2", "--out", str(out),
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: --cv-seed applies only to a cv:K objective\n"
        assert not out.exists()

    def test_kappa_needs_eval_data(self, pipeline, tmp_path, capsys):
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "kappa", "--range", "1:3", "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "--eval-data" in capsys.readouterr().err

    def test_kappa_refuses_other_column_names(self, pipeline, tmp_path, capsys):
        # the same rows with their columns reversed, each name kept with
        # its column: pairing coefficients by position would score the
        # frontier against the wrong predictors
        data = load_csv(str(pipeline["data"]), "y")
        reversed_csv = tmp_path / "reversed.csv"
        save_csv(Dataset(X=data.X[:, ::-1], y=data.y, names=data.names[::-1]), str(reversed_csv))
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "kappa", "--eval-data", str(reversed_csv),
            "--range", "1:5", "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "reversed.csv" in capsys.readouterr().err
        assert not (tmp_path / "o" / "kappa.json").exists()

    def test_missing_target_column(self, pipeline, tmp_path, capsys):
        rc = run_cli(
            "run", "--data", str(pipeline["data"]), "--target", "zz",
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "zz" in capsys.readouterr().err

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0


def written(capsys, out, *argv):
    """Run one subcommand into ``out``; the names of the files it wrote.

    Every file in ``out`` must be reported by exactly one ``wrote`` line.
    """
    assert run_cli(*argv, "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    reported = [ln[len("wrote "):] for ln in lines if ln.startswith("wrote ")]
    assert sorted(reported) == sorted(str(f) for f in out.iterdir())
    return {f.name for f in out.iterdir()}


class TestOutputFiles:
    def test_each_subcommand_writes_its_files(self, tmp_path, capsys):
        sim, run = tmp_path / "sim", tmp_path / "run"
        data = ["--data", str(sim / "data.csv"), "--target", "y"]
        front = ["--frontier", str(run / "frontier.json")]
        assert written(
            capsys, sim, "simulate", "--example", "2", "--n", "60", "--p", "10"
        ) == {"data.csv", "truth.json"}
        assert written(
            capsys, run, "run", *data, "--iterations", "20", "--snapshot-every", "10"
        ) == {"frontier.json", "frontier.csv", "run.json", "snapshots.csv"}
        assert written(capsys, tmp_path / "plain", "run", *data, "--iterations", "5") == {
            "frontier.json", "frontier.csv", "run.json",
        }
        assert written(
            capsys, tmp_path / "exh", "baseline", *data, "--method", "exhaustive"
        ) == {"frontier.json", "frontier.csv"}
        for method in ("forward", "backward", "stepwise"):
            assert written(
                capsys, tmp_path / method, "baseline", *data, "--method", method
            ) == {"trajectory.json", "trajectory.csv"}
        tasks = {
            ("knee",): {"knee.json"},
            ("criteria",): {"criteria.csv"},
            ("kappa", "--eval-data", str(sim / "data.csv"), "--range", "1:4"): {
                "kappa.json"
            },
            ("osplot", "--snapshots", str(run / "snapshots.csv")): {
                "os_plot.csv", "os_plot.svg",
            },
            ("hsplot",): {"hs_plot.txt", "hs_plot.svg"},
        }
        for task, files in tasks.items():
            out = tmp_path / task[0]
            assert written(capsys, out, "analyze", *front, "--task", *task) == files

    def test_frontier_csv_rows_match_json_models(self, pipeline):
        models = json.loads((pipeline["run"] / "frontier.json").read_text())["models"]
        lines = (pipeline["run"] / "frontier.csv").read_text().splitlines()[1:]
        assert len(lines) == len(models) >= 3
        for line, m in zip(lines, models):
            c, err, b0, mask, variables, coefs = line.split(",")
            assert (c, err, b0, mask) == (
                str(m["complexity"]), repr(m["error"]), repr(m["intercept"]), m["mask"],
            )
            assert variables == ";".join(m["variables"])
            assert coefs == ";".join(map(repr, m["coefficients"]))

    def test_frontier_csv_quotes_names_with_commas(self, tmp_path):
        gen = np.random.default_rng(7)
        X = gen.standard_normal((40, 3))
        y = X @ [3.0, -1.0, 0.5] + gen.standard_normal(40)
        names = ["crime, rate", "income", "age"]
        save_csv(Dataset(X=X, y=y, names=names), str(tmp_path / "data.csv"))
        assert run_cli(
            "run", "--data", str(tmp_path / "data.csv"), "--target", "y",
            "--iterations", "20", "--seed", "1", "--out", str(tmp_path / "run"),
        ) == 0
        with open(tmp_path / "run" / "frontier.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["complexity", "error", "intercept", "mask", "variables", "coefficients"]
        assert len(rows) > 2 and all(len(row) == 6 for row in rows)
        assert "crime, rate" in ";".join(row[4] for row in rows[1:]).split(";")

    def test_criteria_csv_follows_frontier(self, pipeline, tmp_path):
        frontier = pipeline["run"] / "frontier.json"
        out = tmp_path / "crit"
        assert run_cli(
            "analyze", "--frontier", str(frontier), "--task", "criteria", "--out", str(out)
        ) == 0
        models = json.loads(frontier.read_text())["models"]
        lines = (out / "criteria.csv").read_text().splitlines()[1:]
        assert [ln.split(",")[:2] for ln in lines] == [
            [str(m["complexity"]), repr(m["error"])] for m in models
        ]


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        # The suite runs from the source tree, so build the distribution
        # metadata from the repo's own pyproject.toml instead of relying
        # on an install; egg_info writes only under --egg-base.
        pytest.importorskip("setuptools")
        root = Path(__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", "import setuptools; setuptools.setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=root, check=True, capture_output=True,
        )
        built = [
            ep
            for dist in md.distributions(path=[str(tmp_path)])
            for ep in dist.entry_points
            if ep.group == "console_scripts" and ep.name == "paretoreg"
        ]
        assert len(built) == 1
        assert built[0].value == "paretoreg.cli:main"
        assert built[0].load() is main

        # an installed copy, when there is one, must declare the same script
        installed = [
            ep
            for ep in md.entry_points(group="console_scripts")
            if ep.name == "paretoreg"
        ]
        for ep in installed:
            assert ep.value == built[0].value

    def test_outputs_survive_out_dir_reuse(self, pipeline, tmp_path):
        # writing into an existing directory must not fail
        out = tmp_path / "reuse"
        os.makedirs(out)
        rc = run_cli(
            "analyze", "--frontier", str(pipeline["run"] / "frontier.json"),
            "--task", "knee", "--out", str(out),
        )
        assert rc == 0
