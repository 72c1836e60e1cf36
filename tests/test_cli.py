import json

import numpy as np
import pytest

from spectralgc import VarmaModel, example_model, save_panel_csv, simulate
from spectralgc.cli import main


def _common(tmp_path, name="out"):
    return ["--ns", "1024", "--realizations", "1", "--seg-len", "128", "--out", str(tmp_path / name)]


def test_example_run_exits_zero_and_writes_outputs(tmp_path, capsys):
    rc = main(["example", "1", "--methods", "var,wn"] + _common(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "var" in out and "wn" in out
    assert f"outputs written to {tmp_path / 'out'}" in out
    for name in ("summary.json", "mse_table.txt", "mse_table.csv", "fields_r0.csv"):
        assert (tmp_path / "out" / name).exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["n_samples"] == 1024


def test_example_three_exits_two(tmp_path, capsys):
    rc = main(["example", "3"] + _common(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not reproducible" in err


def test_bad_orders_exit_two(tmp_path, capsys):
    rc = main(["example", "1", "--orders", "one,two"] + _common(tmp_path))
    assert rc == 2
    assert "--orders" in capsys.readouterr().err


def test_zero_jobs_exits_two(tmp_path, capsys):
    rc = main(["example", "1", "--jobs", "0"] + _common(tmp_path))
    assert rc == 2
    assert "job" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_model_file_exits_two(tmp_path, capsys):
    rc = main(["model", str(tmp_path / "nope.json")] + _common(tmp_path))
    assert rc == 2
    assert "cannot read model file" in capsys.readouterr().err


def test_model_run_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    example_model(1).save_json(path)
    rc = main(["model", str(path), "--methods", "var"] + _common(tmp_path))
    assert rc == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_unstable_model_exits_three(tmp_path, capsys):
    model = VarmaModel(np.array([[[1.01]]]), np.eye(1)[None], np.eye(1))
    path = tmp_path / "unstable.json"
    model.save_json(path)
    rc = main(["model", str(path), "--methods", "var"] + _common(tmp_path))
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_analyze_subcommand(tmp_path, capsys):
    panel = simulate(example_model(1), 2048, seed=2)
    csv_path = tmp_path / "panel.csv"
    save_panel_csv(panel, csv_path)
    rc = main(["analyze", str(csv_path), "--methods", "var,wn"] + _common(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    # no reference available, so no MSE lines — only the closing note
    assert out.strip() == f"outputs written to {tmp_path / 'out'}"
    assert (tmp_path / "out" / "fields.csv").exists()


def test_entry_point_is_installed():
    import shutil

    assert shutil.which("spectralgc") is not None
