import json

import numpy as np
import pytest

from spectralgc import ExperimentSpec, VarmaModel, example_model, save_panel_csv, simulate
from spectralgc.cli import _spec_from_args, build_parser, main


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


def test_duplicate_method_exits_two(tmp_path, capsys):
    rc = main(["example", "1", "--methods", "var,var"] + _common(tmp_path))
    assert rc == 2
    assert "each method may be given once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_two(tmp_path, capsys):
    rc = main(["example", "1", "--seed", "-3"] + _common(tmp_path))
    assert rc == 2
    assert "error: base_seed must be non-negative, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_samples_exits_two(tmp_path, capsys):
    # rejected by the spec, before the lattice group size divides by n_s
    argv = ["example", "1", "--ns", "0", "--realizations", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "error: n_samples must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_model_file_exits_two(tmp_path, capsys):
    rc = main(["model", str(tmp_path / "nope.json")] + _common(tmp_path))
    assert rc == 2
    assert "cannot read model file" in capsys.readouterr().err


def test_model_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    rc = main(["model", str(path)] + _common(tmp_path))
    assert rc == 2
    assert "cannot read model file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, blocks",
    [
        ("ar", [1, 2, 3]),  # not a whole number of 2x2 blocks
        ("ma", [[[1, 0], [0, 1]], [[0, 1], [0]]]),  # ragged
    ],
)
def test_malformed_model_blocks_exit_two_and_name_the_field(tmp_path, capsys, field, blocks):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_channels": 2, field: blocks, "sigma": [[1, 0], [0, 1]]}))
    rc = main(["model", str(path)] + _common(tmp_path))
    assert rc == 2
    assert f"error: model description field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    rc = main(
        ["analyze", str(csv_path), "--methods", "var,wn", "--seg-len", "128", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # no reference available, so no MSE lines — only the closing note
    assert out.strip() == f"outputs written to {tmp_path / 'out'}"
    assert (tmp_path / "out" / "fields.csv").exists()


@pytest.mark.parametrize("sidecar", [pytest.param("{bad", id="not-json"), pytest.param("[1, 2]", id="list")])
def test_analyze_with_malformed_sidecar_exits_two_and_names_it(tmp_path, capsys, sidecar):
    csv_path = tmp_path / "panel.csv"
    save_panel_csv(simulate(example_model(1), 1024, seed=2), csv_path)
    (tmp_path / "panel.json").write_text(sidecar)
    rc = main(["analyze", str(csv_path), "--methods", "var", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{tmp_path / 'panel.json'}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["var", "wn"])
@pytest.mark.parametrize(
    "defect, message",
    [
        pytest.param("nan", "channel x2 has a non-finite sample", id="nan"),
        pytest.param("inf", "channel x2 has a non-finite sample", id="inf"),
        pytest.param("constant", "channel x2 has zero variance", id="constant"),
    ],
)
def test_analyze_malformed_panel_exits_two_and_names_the_channel(tmp_path, capsys, defect, message, method):
    data = simulate(example_model(2), 1024, seed=2).data.copy()
    if defect == "constant":
        data[1] = 0.1
    else:
        data[1, 100] = float(defect)
    csv_path = tmp_path / "panel.csv"  # written directly: a panel with a nan or inf is never built
    rows = np.column_stack([np.arange(data.shape[1]), data.T])
    np.savetxt(csv_path, rows, fmt="%.17g", delimiter=",", header="t,x1,x2,x3", comments="")
    rc = main(["analyze", str(csv_path), "--methods", method, "--seg-len", "128", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("example_id, n_samples", [(2, 300), (1, 300), (2, 511)])
def test_wn_with_fewer_segments_than_channels_exits_two(tmp_path, capsys, example_id, n_samples):
    # one or two 256-sample segments give a singular Welch estimate on two or three channels
    argv = ["example", str(example_id), "--ns", str(n_samples), "--realizations", "1", "--methods", "wn"]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"fewer than its {example_model(example_id).n_channels} channels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seg_len", ["255", "0"])
@pytest.mark.parametrize("command", ["example", "analyze"])
def test_bad_segment_length_exits_two_and_names_it(tmp_path, capsys, command, seg_len):
    # analyze checks it too, although only the wn method reads it
    if command == "example":
        argv = ["example", "1", "--methods", "var,wn", "--ns", "1024", "--realizations", "1"]
    else:
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(simulate(example_model(1), 1024, seed=2), csv_path)
        argv = ["analyze", str(csv_path), "--methods", "var"]
    rc = main(argv + ["--seg-len", seg_len, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"segment_len must be an even integer >= 4, got {seg_len}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--ns", "--realizations", "--seed", "--jobs"])
def test_analyze_rejects_monte_carlo_flags(tmp_path, capsys, flag):
    # analyze_panel reads none of them, so they are not accepted silently
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path / "panel.csv"), flag, "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flags_set_spec_fields_and_omitted_flags_keep_spec_defaults():
    parse = build_parser().parse_args
    assert _spec_from_args(parse(["example", "2"])) == ExperimentSpec(example_id=2)
    assert _spec_from_args(parse(["analyze", "p.csv"])) == ExperimentSpec(panel_path="p.csv")
    args = parse([
        "model", "m.json", "--ns", "512", "--realizations", "3", "--seed", "7", "--jobs", "2",
        "--methods", "var, wn", "--orders", "1,2", "--seg-len", "64", "--out", "o",
    ])
    assert _spec_from_args(args) == ExperimentSpec(
        model_path="m.json", n_samples=512, n_realizations=3, base_seed=7, n_jobs=2,
        methods=("var", "wn"), orders=(1, 2), segment_len=64, out_dir="o",
    )


def test_entry_point_is_installed():
    import shutil

    assert shutil.which("spectralgc") is not None
