"""The bytes of every file format mvsc writes, and the one place each is written."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mvsc
from mvsc.cli import main
from mvsc.data import (
    DatasetFormatError,
    MultiViewDataset,
    ViewMatrix,
    load_dataset,
    parse_labels_csv,
    save_dataset,
)
from mvsc.metrics import MetricReport
from mvsc.solver import ConvergenceTrace

TRACE_HEADER = "iteration,objective,r_recon,r_u,r_a,mu,q_sin\n"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def tiny_dir(tmp_path):
    """A labeled two-view dataset of four samples, written by hand."""
    data = tmp_path / "tiny"
    data.mkdir()
    (data / "view_1.csv").write_text("0,1\n1,0\n5,5\n6,5\n")
    (data / "view_2.csv").write_text("1\n2\n8\n9\n")
    (data / "labels.csv").write_text("0\n0\n1\n1\n")
    return data


def dataset(n_views, labels=True, seed=0):
    rng = np.random.default_rng(seed)
    views = tuple(ViewMatrix(values=rng.standard_normal((2, 4)), view_index=v)
                  for v in range(n_views))
    return MultiViewDataset(views=views, labels=np.array([0, 0, 1, 1]) if labels else None)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestPinnedBytes:
    def test_trace_csv(self, tmp_path):
        trace = ConvergenceTrace(objective=np.array([0.1, 1 / 3]),
                                 r_recon=np.array([2.5e-300, 0.0]), r_u=np.array([1e6, -0.0]),
                                 r_a=np.array([1.0, 0.5]), mu=np.array([0.01, 1.2 ** 3 * 0.01]),
                                 q_sin=np.array([1.0, 5e-5]))
        trace.write_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == (
            TRACE_HEADER
            + "0,0.10000000000000001,2.5e-300,1000000,1,0.01,1\n"
            + "1,0.33333333333333331,0,-0,0.5,0.017279999999999997,5.0000000000000002e-05\n"
        )

    def test_zero_iteration_trace_is_header_only(self, tmp_path):
        empty = np.zeros(0)
        ConvergenceTrace(empty, empty, empty, empty, empty, empty).write_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == TRACE_HEADER

    def test_sweep_row(self, tiny_dir, tmp_path, monkeypatch):
        monkeypatch.setattr("mvsc.cli.solve", lambda ds, config: SimpleNamespace(
            labels=np.array([0, 0, 1, 1]), iterations=7))
        monkeypatch.setattr("mvsc.cli.compute_metrics", lambda truth, pred: MetricReport(
            acc=1 / 3, nmi=0.5, ari=-0.125, precision=1.0, fscore=0.123456789))
        out = tmp_path / "sweep.csv"
        assert run("sweep", tiny_dir, "--clusters", 2, "--lambda1", "0.1", "--lambda2", "0.2",
                   "--lambda3", "0.3", "-o", out) == 0
        assert out.read_text() == (
            "lambda1,lambda2,lambda3,acc,nmi,ari,precision,fscore,iterations\n"
            "0.10000000000000001,0.20000000000000001,0.29999999999999999,"
            "33.3333,50.0000,-12.5000,100.0000,12.3457,7\n"
        )

    def test_similarity_export(self, tiny_dir, tmp_path, monkeypatch):
        empty = np.zeros(0)
        fused = np.array([[0.0, 0.1, 1 / 3, 1e6],
                          [0.1, 0.0, 2.5e-300, 0.5],
                          [1 / 3, 2.5e-300, 0.0, 1.0],
                          [1e6, 0.5, 1.0, 0.0]])
        monkeypatch.setattr("mvsc.cli.solve", lambda ds, config: SimpleNamespace(
            labels=np.array([0, 0, 1, 1]), fused_similarity=fused,
            weights=[np.full(2, 0.5), np.ones(1)], converged=False, iterations=0,
            trace=ConvergenceTrace(empty, empty, empty, empty, empty, empty)))
        out = tmp_path / "sim.csv"
        assert run("cluster", tiny_dir, "--clusters", 2, "-o", tmp_path / "run.json",
                   "--similarity-out", out) == 0
        assert out.read_text() == (
            "0,0.10000000000000001,0.33333333333333331,1000000\n"
            "0.10000000000000001,0,2.5e-300,0.5\n"
            "0.33333333333333331,2.5e-300,0,1\n"
            "1000000,0.5,1,0\n"
        )


def _output_kind(call: ast.Call) -> str | None:
    """The kind of file output ``call`` makes, or None when it writes nothing."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "savetxt":
        return "savetxt"
    if name in ("dump", "dumps") and getattr(func.value, "id", None) == "json":
        return "json"
    if name in ("write_text", "write_bytes"):
        return "open"
    if name == "open":
        # open(file, mode) as a builtin, path.open(mode) as a method
        args = call.args[1:] if isinstance(func, ast.Name) else call.args
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                    args[0] if args else ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
            return "open"
    return None


def _writers() -> dict[str, set[str]]:
    """Each kind of file output mapped to the ``module.function`` names that make it."""
    found: dict[str, set[str]] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and (kind := _output_kind(child)):
                found.setdefault(kind, set()).add(scope)
            visit(child, scope)

    for path in Path(mvsc.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


class TestSingleWriter:
    def test_savetxt_only_in_write_csv(self):
        assert _writers()["savetxt"] == {"data.write_csv"}

    def test_one_csv_writer_and_one_json_writer(self):
        assert set().union(*_writers().values()) == {"data.write_csv", "cli._write_json"}


class TestSaveRefusesAnotherDataset:
    def test_fewer_views_refused_and_directory_untouched(self, tmp_path):
        save_dataset(dataset(4), tmp_path)
        before = snapshot(tmp_path)
        with pytest.raises(DatasetFormatError, match="view_3.csv, view_4.csv"):
            save_dataset(dataset(2, seed=1), tmp_path)
        assert snapshot(tmp_path) == before

    def test_unlabeled_over_labels_refused(self, tmp_path):
        save_dataset(dataset(2), tmp_path)
        before = snapshot(tmp_path)
        with pytest.raises(DatasetFormatError, match="labels.csv"):
            save_dataset(dataset(2, labels=False), tmp_path)
        assert snapshot(tmp_path) == before

    def test_same_layout_is_rewritten(self, tmp_path):
        save_dataset(dataset(3), tmp_path)
        new = dataset(3, seed=1)
        save_dataset(new, tmp_path)
        back = load_dataset(tmp_path)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(new.views, back.views))

    def test_synth_reports_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        synth = ("synth", "--clusters", 2, "--per-cluster", 3, "-o", out, "--dims")
        assert run(*synth, "3,3,3,3") == 0
        before = snapshot(out)
        assert run(*synth, "4,4") == 1
        assert "error:" in capsys.readouterr().err
        assert snapshot(out) == before


class TestLabelsAreInt64:
    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("9007199254740993\n9007199254740992\n-9223372036854775808\n"
                        "9223372036854775807\n2.0\n1e3\n")
        assert parse_labels_csv(path).tolist() == [9007199254740993, 9007199254740992,
                                                   -2 ** 63, 2 ** 63 - 1, 2, 1000]

    @pytest.mark.parametrize("bad", ["9223372036854775808", "-9223372036854775809", "1e20",
                                     "0,1"])
    def test_out_of_range_or_wide_rejected_at_line(self, tmp_path, bad):
        path = tmp_path / "labels.csv"
        path.write_text(f"0\n{bad}\n")
        with pytest.raises(DatasetFormatError, match=r"labels\.csv:2: .*"):
            parse_labels_csv(path)

    def test_eval_reports_overflowing_label(self, tmp_path, capsys):
        truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
        truth.write_text("0\n1\n")
        pred.write_text("0\n1e20\n")
        assert run("eval", truth, pred) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'1e20'" in err
