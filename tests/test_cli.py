import csv
import json

import pytest

from wignerlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_config,
)
from wignerlab.experiments import ConfigError


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("lsc", "rigidity", "edge", "identities", "gamma-table"):
        assert sub in out


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lsc", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--out", "--samples", "--n", "--threads", "--quiet"):
        assert flag in out
        assert "default" in out


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_identities_pass(capsys):
    code = main(["identities", "--n", "8", "--samples", "10", "--seed", "7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5


def test_gamma_table(tmp_path, capsys):
    code = main(["gamma-table", "--n", "10", "--out", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "gamma.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "gamma_j"]
    assert len(rows) == 11
    assert float(rows[-1][1]) == 2.0


def test_check_profile(capsys):
    assert main(["check-profile", "--profile", "flat", "--n", "16"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["eigenvalue_one_simple"] is True
    assert summary["c_inf"] == 1.0


def test_read_config(tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(
        "# comment\n"
        "experiment.n_list = 32,64\n"
        "experiment.samples_per_n = 4   # inline comment\n"
        "experiment.master_seed = 99\n"
    )
    values = read_config(str(cfg_file))
    assert values["experiment.n_list"] == "32,64"
    assert values["experiment.samples_per_n"] == "4"


def test_read_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError):
        read_config(str(bad))


def test_counting_run_with_config(tmp_path, capsys):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("experiment.n_list = 64\nexperiment.samples_per_n = 4\n")
    out = tmp_path / "out"
    code = main(["counting", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "counting.csv").exists()
    assert (out / "counting.json").exists()
    summary = json.loads((out / "counting.json").read_text())
    assert summary["passed"] is True
    assert summary["config"]["samples_per_n"] == 4


def test_flag_overrides_config(tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("experiment.master_seed = 5\nexperiment.n_list = 64\n")
    out = tmp_path / "out"
    code = main([
        "counting", "--config", str(cfg_file), "--out", str(out),
        "--seed", "123", "--samples", "3", "--quiet",
    ])
    assert code == EXIT_OK
    summary = json.loads((out / "counting.json").read_text())
    assert summary["config"]["master_seed"] == 123
    assert summary["config"]["samples_per_n"] == 3


def test_unknown_config_key_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("experiment.wat = 1\n")
    assert main(["counting", "--config", str(cfg_file)]) == EXIT_USAGE


def test_identical_invocations_identical_files(tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main(["counting", "--n", "64", "--samples", "3", "--seed", "4",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        outs.append((out / "counting.csv").read_bytes())
    assert outs[0] == outs[1]


# Each config names one bad value; the run must stop when the config is
# built (exit 64, nothing written), not fail halfway or run anyway.
BAD_CONFIGS = [
    ("counting", "symmetry = orthogonal"),
    ("counting", "distribution = cauchy"),
    ("counting", "distribution = two_point:1.5"),
    ("counting", "distribution_b = cauchy"),
    ("counting", "profile = band:w=wide"),
    ("counting", "profile = band:w=0"),
    ("counting", "profile = band:w=17"),
    ("dbm-relax", "t_list = 0.5"),
    ("dbm-relax", "t_list = -1.0,4.0"),
    ("counting", "threads = 0"),
    ("counting", "top_k = 0"),
    ("edge", "distribution_b = rademacher\ntop_k = 40"),
    ("counting", "n_list = 1"),
    ("counting", "samples_per_n = two"),
    ("counting", "allow_moment_mismatch = maybe"),
]


@pytest.mark.parametrize("command, lines", BAD_CONFIGS)
def test_bad_config_fails_when_built(tmp_path, capsys, command, lines):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(f"n_list = 32\nsamples_per_n = 2\n{lines}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), "--out", str(out), "--quiet"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
