import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mvsc.cli import main
from mvsc.metrics import compute_metrics
from mvsc.prox_ops import gram_eigh, partial_k
from mvsc.solver import SolverConfig

MANIFEST_KEYS = {"config", "dataset", "labels", "weights", "metrics",
                 "converged", "iterations", "timing"}

# manifest setting -> (config-file key, non-default value, echoed value)
SOLVER_SETTINGS = {
    "n_clusters": ("clusters", "2", 2),
    "lambda1": ("lambda1", "0.002", 0.002),
    "lambda2": ("lambda2", "0.3", 0.3),  # effective_lambda2 in the default full mode
    "lambda3": ("lambda3", "0.2", 0.2),
    "mu0": ("mu0", "0.02", 0.02),
    "rho": ("rho", "1.5", 1.5),
    "mu_max": ("mu_max", "1000", 1000.0),
    "max_iter": ("max_iter", "3", 3),
    "tol": ("tol", "1e-4", 1e-4),
    "k_init": ("k_init", "3", 3),
    "ablation": ("ablation", "eq7", "uniform_weights"),
    "seed": ("seed", "5", 5),
    "normalize": ("normalize", "minmax_per_feature", "minmax_per_feature"),
}
SETTING_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}
SETTING_DEFAULTS.update(normalize="none")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run("synth", "--clusters", 3, "--per-cluster", 15, "--dims", "6,6,6",
               "--seed", 1, "-o", out)
    assert code == 0
    return out


def _no_solve(*_):
    raise AssertionError("solve ran on a config that should have been rejected")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# a fresh interpreter in which any import of scipy fails, running the CLI on its arguments
WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from mvsc.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cluster_runs_without_scipy(synth_dir, tmp_path, fresh_python):
    # scipy is a test-only dependency: a whole cluster run must not import it
    out = tmp_path / "run.json"
    done = fresh_python("-c", WITHOUT_SCIPY, "cluster", synth_dir, "--clusters", 3,
                        "--normalize", "unit_l2_per_sample", "-o", out)
    assert done.returncode == 0, done.stderr
    manifest = read_json(out)
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["metrics"]["acc"] >= 95.0


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        names = sorted(p.name for p in synth_dir.iterdir())
        assert names == ["labels.csv", "view_1.csv", "view_2.csv", "view_3.csv"]
        assert len((synth_dir / "view_1.csv").read_text().splitlines()) == 45

    def test_rerun_is_bitwise_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run("synth", "--clusters", 3, "--per-cluster", 15, "--dims", "6,6,6",
                   "--seed", 1, "-o", again) == 0
        for name in ("view_1.csv", "view_2.csv", "view_3.csv", "labels.csv"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_unwritable_destination_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = run("synth", "--clusters", 2, "--per-cluster", 3, "--dims", "2",
                   "-o", blocker / "sub")
        assert code != 0


class TestCluster:
    def test_manifest_schema_and_quality(self, synth_dir, tmp_path):
        out = tmp_path / "run.json"
        code = run("cluster", synth_dir, "--clusters", 3,
                   "--normalize", "unit_l2_per_sample", "-o", out)
        assert code == 0
        manifest = read_json(out)
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["metrics"]["acc"] >= 95.0
        assert manifest["converged"] is True
        assert len(manifest["labels"]) == 45
        assert len(manifest["weights"]) == 3
        trace = Path(str(out.with_suffix(".trace.csv")))
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,objective,r_recon,r_u,r_a,mu"
        assert len(lines) == manifest["iterations"] + 1

    def test_zero_budget(self, synth_dir, tmp_path):
        out = tmp_path / "zero.json"
        assert run("cluster", synth_dir, "--clusters", 3, "--max-iter", 0, "-o", out) == 0
        manifest = read_json(out)
        assert manifest["converged"] is False
        assert manifest["iterations"] == 0
        trace_lines = out.with_suffix(".trace.csv").read_text().splitlines()
        assert trace_lines == ["iteration,objective,r_recon,r_u,r_a,mu"]

    def test_ablation_token_eq6_echoed(self, synth_dir, tmp_path):
        out = tmp_path / "eq6.json"
        assert run("cluster", synth_dir, "--clusters", 3, "--max-iter", 5,
                   "--lambda2", 0.7, "--ablation", "eq6", "-o", out) == 0
        manifest = read_json(out)
        assert manifest["config"]["ablation"] == "no_spectral_norm"
        assert manifest["config"]["lambda2"] == 0.0
        for w in manifest["weights"]:
            assert np.allclose(w, 1.0 / len(w))

    def test_determinism_modulo_timing(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["cluster", synth_dir, "--clusters", 3, "--max-iter", 25, "--seed", 5]
        assert run(*args, "-o", out1) == 0
        assert run(*args, "-o", out2) == 0
        m1, m2 = read_json(out1), read_json(out2)
        m1.pop("timing"), m2.pop("timing")
        assert m1 == m2
        assert out1.with_suffix(".trace.csv").read_bytes() == \
            out2.with_suffix(".trace.csv").read_bytes()

    def test_graph_export(self, synth_dir, tmp_path):
        out = tmp_path / "run.json"
        sim = tmp_path / "sim.csv"
        lap = tmp_path / "lap.csv"
        assert run("cluster", synth_dir, "--clusters", 3, "--max-iter", 5,
                   "-o", out, "--similarity-out", sim, "--laplacian-out", lap) == 0
        S = np.loadtxt(sim, delimiter=",")
        L = np.loadtxt(lap, delimiter=",")
        assert S.shape == (45, 45) and L.shape == (45, 45)
        assert np.abs(L.sum(axis=1)).max() <= 1e-9

    def test_negative_seed_fails_before_solving(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mvsc.cli.solve", _no_solve)
        assert run("cluster", synth_dir, "--clusters", 3, "--seed", -1,
                   "-o", tmp_path / "x.json") == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_dense_state_over_budget_is_reported(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mvsc.solver._memory_budget", lambda: 1000)
        assert run("cluster", synth_dir, "--clusters", 3, "-o", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n = 45 samples need ") and "1000 bytes" in err
        assert not (tmp_path / "x.json").exists()

    def test_labels_from_is_gone(self, synth_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("cluster", synth_dir, "--clusters", 3, "--labels-from", "graph",
                "-o", tmp_path / "x.json")
        assert exc.value.code == 2
        cfg = tmp_path / "old.cfg"
        cfg.write_text("labels_from = embedding\n")
        assert run("cluster", synth_dir, "--clusters", 3, "--config", cfg,
                   "-o", tmp_path / "x.json") == 1
        assert "unknown config key 'labels_from'" in capsys.readouterr().err

    def test_repeat_runs_identical_on_top_k_prox_path(self, tmp_path, monkeypatch):
        # n = 150: after the first iterations the prox runs on the top-k path
        data = tmp_path / "data"
        assert run("synth", "--clusters", 3, "--per-cluster", 50, "--dims", "6,6,6",
                   "--seed", 2, "-o", data) == 0
        hints = []

        def recorded(M, k_hint=None):
            hints.append(k_hint)
            return gram_eigh(M, k_hint)

        monkeypatch.setattr("mvsc.solver.gram_eigh", recorded)
        manifests, traces = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            assert run("cluster", data, "--clusters", 3, "--normalize", "unit_l2_per_sample",
                       "--max-iter", 30, "-o", out) == 0
            manifest = read_json(out)
            manifest.pop("timing")
            manifests.append(manifest)
            traces.append(out.with_suffix(".trace.csv").read_bytes())
        assert manifests[0] == manifests[1]
        assert traces[0] == traces[1]
        assert sum(h is not None and h + 2 <= partial_k(150) for h in hints) > len(hints) // 2

    def test_non_finite_view_cell_is_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mvsc.cli.solve", _no_solve)
        data = tmp_path / "data"
        data.mkdir()
        (data / "view_1.csv").write_text("0,1\n1,0\n1,1\n")
        (data / "view_2.csv").write_text("0,1\n1,0\ninf,1\n")
        assert run("cluster", data, "--clusters", 2, "-o", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: .*view_2\.csv:3: column 1: non-finite value 'inf'$", err, re.M)
        assert not (tmp_path / "x.json").exists()

    def test_bad_data_dir_fails(self, tmp_path):
        assert run("cluster", tmp_path / "missing", "--clusters", 3,
                   "-o", tmp_path / "x.json") != 0

    def test_missing_clusters_is_usage_error(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("cluster", synth_dir, "-o", tmp_path / "x.json")
        assert exc.value.code != 0


class TestBaseline:
    def test_manifest(self, synth_dir, tmp_path):
        out = tmp_path / "base.json"
        assert run("baseline", synth_dir, "--clusters", 3, "-o", out) == 0
        manifest = read_json(out)
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["weights"] is None
        assert manifest["metrics"]["acc"] >= 90.0

    def test_missing_clusters_usage_error(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("baseline", synth_dir, "-o", tmp_path / "x.json")
        assert exc.value.code != 0

    def test_negative_seed_fails_before_loading(self, synth_dir, tmp_path, monkeypatch, capsys):
        def not_reached(*_, **__):
            raise AssertionError("baseline went past a negative seed")

        monkeypatch.setattr("mvsc.cli.load_dataset", not_reached)
        monkeypatch.setattr("mvsc.cli.ncut_baseline", not_reached)
        assert run("baseline", synth_dir, "--clusters", 3, "--seed", -1,
                   "-o", tmp_path / "x.json") == 1
        assert "error: --seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("clusters", [1, 0, -2])
    def test_clusters_below_two_fail_before_loading(self, clusters, synth_dir, tmp_path,
                                                    monkeypatch, capsys):
        def not_reached(*_, **__):
            raise AssertionError("baseline went past --clusters below 2")

        monkeypatch.setattr("mvsc.cli.load_dataset", not_reached)
        monkeypatch.setattr("mvsc.cli.ncut_baseline", not_reached)
        assert run("baseline", synth_dir, "--clusters", clusters,
                   "-o", tmp_path / "x.json") == 1
        assert "error: --clusters must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_clusters_above_sample_count_fail_before_affinity(self, synth_dir, tmp_path,
                                                              monkeypatch, capsys):
        def not_reached(*_, **__):
            raise AssertionError("baseline went past --clusters above n")

        monkeypatch.setattr("mvsc.cli.ncut_baseline", not_reached)
        assert run("baseline", synth_dir, "--clusters", 46, "-o", tmp_path / "x.json") == 1
        assert "error: --clusters must be <= 45, the number of samples" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestOutputDirectories:
    """Every output path's directory is checked before the data is loaded,
    so a mistyped path costs no solve."""

    @staticmethod
    def bad_target(tmp_path, kind):
        if kind == "missing":
            return tmp_path / "nodir" / "out.csv"
        (tmp_path / "plain").write_text("")
        return tmp_path / "plain" / "out.csv"

    def assert_rejected(self, argv, option, target, kind, monkeypatch, capsys):
        def not_reached(*_):
            raise AssertionError("ran before the output paths were checked")

        for name in ("solve", "load_dataset", "ncut_baseline"):
            monkeypatch.setattr(f"mvsc.cli.{name}", not_reached)
        assert run(*argv) == 1
        problem = "does not exist" if kind == "missing" else "is not a directory"
        assert capsys.readouterr().err == f"error: {option} {target}: {target.parent} {problem}\n"

    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize("option", ["-o", "--trace", "--similarity-out", "--laplacian-out"])
    def test_cluster(self, synth_dir, tmp_path, monkeypatch, capsys, option, kind):
        target = self.bad_target(tmp_path, kind)
        targets = {"-o": tmp_path / "run.json", option: target}
        argv = ["cluster", synth_dir, "--clusters", 3]
        for flag, path in targets.items():
            argv += [flag, path]
        self.assert_rejected(argv, option, target, kind, monkeypatch, capsys)
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_sweep_and_baseline(self, synth_dir, tmp_path, monkeypatch, capsys, command, kind):
        target = self.bad_target(tmp_path, kind)
        argv = [command, synth_dir, "--clusters", 3, "-o", target]
        self.assert_rejected(argv, "-o", target, kind, monkeypatch, capsys)


class TestSweep:
    def test_grid_rows_and_reproducibility(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", synth_dir, "--clusters", 3, "--max-iter", 10,
                "--lambda1", "0.001,0.01", "--lambda2", "0.05,0.5", "--lambda3", "0.1"]
        assert run(*args, "-o", out1) == 0
        assert run(*args, "-o", out2) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,lambda3,acc,nmi,ari,precision,fscore,iterations"
        assert len(lines) == 5  # header + 2x2x1 grid
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_point_matches_cluster(self, synth_dir, tmp_path):
        sweep_out = tmp_path / "one.csv"
        cluster_out = tmp_path / "one.json"
        assert run("sweep", synth_dir, "--clusters", 3, "--max-iter", 20,
                   "--lambda1", "0.001", "--lambda2", "0.1", "--lambda3", "0.1",
                   "-o", sweep_out) == 0
        assert run("cluster", synth_dir, "--clusters", 3, "--max-iter", 20,
                   "--lambda1", 0.001, "--lambda2", 0.1, "--lambda3", 0.1,
                   "-o", cluster_out) == 0
        row = sweep_out.read_text().splitlines()[1].split(",")
        manifest = read_json(cluster_out)
        for cell, name in zip(row[3:8], ("acc", "nmi", "ari", "precision", "fscore")):
            assert float(cell) == pytest.approx(manifest["metrics"][name], abs=1e-4)
        assert int(row[8]) == manifest["iterations"]

    def test_bad_grid_point_fails_before_solving(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mvsc.cli.solve", _no_solve)
        out = tmp_path / "s.csv"
        assert run("sweep", synth_dir, "--clusters", 3, "--lambda2=0.1,-1", "-o", out) == 1
        assert "error: regularization weights must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_labels(self, synth_dir, tmp_path):
        unlabeled = tmp_path / "nolabels"
        unlabeled.mkdir()
        for name in ("view_1.csv", "view_2.csv", "view_3.csv"):
            (unlabeled / name).write_bytes((synth_dir / name).read_bytes())
        assert run("sweep", unlabeled, "--clusters", 3, "-o", tmp_path / "s.csv") != 0


class TestEval:
    def test_matches_library_metrics(self, synth_dir, tmp_path):
        pred_path = tmp_path / "pred.csv"
        truth = np.loadtxt(synth_dir / "labels.csv", dtype=int)
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, size=truth.size)
        np.savetxt(pred_path, pred, fmt="%d")
        out = tmp_path / "metrics.json"
        assert run("eval", synth_dir / "labels.csv", pred_path, "-o", out) == 0
        got = read_json(out)["metrics"]
        want = compute_metrics(truth, pred)
        assert got["acc"] == pytest.approx(round(100 * want.acc, 4))
        assert got["ari"] == pytest.approx(round(100 * want.ari, 4))

    def test_runs_as_a_module(self, synth_dir, fresh_python):
        # python -m mvsc runs the CLI and exits with its status
        labels = synth_dir / "labels.csv"
        done = fresh_python("-m", "mvsc", "eval", labels, labels)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout)["metrics"]
        assert metrics["acc"] == metrics["nmi"] == 100.0

    def test_bad_label_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for content in ("0\nnope\n", ""):
            bad.write_text(content)
            assert run("eval", bad, bad) != 0


class TestOverrides:
    def test_env_var_overrides_default(self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "env.json"
        monkeypatch.setenv("MVSC_MAX_ITER", "4")
        monkeypatch.setenv("MVSC_SEED", "11")
        assert run("cluster", synth_dir, "--clusters", 3, "-o", out) == 0
        config = read_json(out)["config"]
        assert config["max_iter"] == 4
        assert config["seed"] == 11

    def test_flag_beats_env(self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "flag.json"
        monkeypatch.setenv("MVSC_MAX_ITER", "4")
        assert run("cluster", synth_dir, "--clusters", 3, "--max-iter", 7, "-o", out) == 0
        assert read_json(out)["config"]["max_iter"] == 7

    def test_config_file_layering(self, synth_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("# settings\nlambda2 = 0.25\nmax_iter = 6\nseed = 2\n")
        monkeypatch.setenv("MVSC_SEED", "9")  # env beats file
        out = tmp_path / "file.json"
        assert run("cluster", synth_dir, "--clusters", 3, "--config", cfg,
                   "--max-iter", 8, "-o", out) == 0
        config = read_json(out)["config"]
        assert config["lambda2"] == 0.25  # from file
        assert config["seed"] == 9        # env over file
        assert config["max_iter"] == 8    # flag over both

    def test_config_env_var_matches_flag(self, synth_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("lambda2 = 0.25\nmax_iter = 6\nseed = 2\n")
        argv = ["cluster", synth_dir, "--clusters", 3]
        assert run(*argv, "--config", cfg, "-o", tmp_path / "flag.json") == 0
        monkeypatch.setenv("MVSC_CONFIG", str(cfg))
        assert run(*argv, "-o", tmp_path / "env.json") == 0
        manifests = [read_json(tmp_path / name) for name in ("flag.json", "env.json")]
        for manifest in manifests:
            del manifest["timing"]
        assert manifests[0] == manifests[1]
        assert manifests[1]["config"]["lambda2"] == 0.25

    def test_config_flag_beats_env_var(self, synth_dir, tmp_path, monkeypatch):
        env_cfg, flag_cfg = tmp_path / "env.cfg", tmp_path / "flag.cfg"
        env_cfg.write_text("max_iter = 3\nseed = 4\n")
        flag_cfg.write_text("max_iter = 5\n")
        monkeypatch.setenv("MVSC_CONFIG", str(env_cfg))
        out = tmp_path / "run.json"
        assert run("cluster", synth_dir, "--clusters", 3, "--config", flag_cfg, "-o", out) == 0
        config = read_json(out)["config"]
        assert config["max_iter"] == 5
        assert config["seed"] == 0  # the variable's file is not read at all

    def test_missing_config_from_env_fails(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MVSC_CONFIG", str(tmp_path / "missing.cfg"))
        assert run("cluster", synth_dir, "--clusters", 3, "-o", tmp_path / "x.json") == 1
        assert "error:" in capsys.readouterr().err
        # like --config, the variable only feeds cluster and sweep
        assert run("baseline", synth_dir, "--clusters", 3, "-o", tmp_path / "b.json") == 0

    def test_bad_boolean_is_reported(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MVSC_RATIO_CUT", "ture")
        assert run("baseline", synth_dir, "--clusters", 3, "-o", tmp_path / "x.json") == 1
        assert "error: expected 1/true/yes/on or 0/false/no/off, got 'ture'" in capsys.readouterr().err
        for word, expected in (("ON", True), (" off ", False)):
            monkeypatch.setenv("MVSC_RATIO_CUT", word)
            assert run("baseline", synth_dir, "--clusters", 3, "-o", tmp_path / "b.json") == 0
            assert read_json(tmp_path / "b.json")["config"]["ratio_cut"] is expected

    def test_unknown_config_key_fails(self, synth_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        assert run("cluster", synth_dir, "--clusters", 3, "--config", cfg,
                   "-o", tmp_path / "x.json") != 0

    def test_config_line_without_equals_fails(self, synth_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("mvsc.cli.solve", _no_solve)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("max_iter 5\n")
        assert run("cluster", synth_dir, "--clusters", 3, "--config", cfg,
                   "-o", tmp_path / "x.json") == 1
        assert f"error: {cfg}:1: expected key = value" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_bad_ablation_is_reported(self, synth_dir, tmp_path, monkeypatch, capsys, source):
        argv = ["cluster", synth_dir, "--clusters", 3, "-o", tmp_path / "x.json"]
        if source == "env":
            monkeypatch.setenv("MVSC_ABLATION", "bogus")
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text("ablation = bogus\n")
            argv += ["--config", cfg]
        assert run(*argv) == 1
        assert "error: ablation must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [f.name for f in fields(SolverConfig)]
                             + ["normalize"])
    def test_every_setting_reaches_manifest(self, synth_dir, tmp_path, name):
        key, value, echoed = SOLVER_SETTINGS[name]
        assert echoed != SETTING_DEFAULTS[name]
        settings = {"clusters": "3", "max_iter": "2", key: value}
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        out = tmp_path / "run.json"
        assert run("cluster", synth_dir, "--config", cfg, "-o", out) == 0
        assert read_json(out)["config"][name] == echoed
