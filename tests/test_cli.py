import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wignerlab import cli
from wignerlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_config,
)
from wignerlab.experiments import ConfigError
from wignerlab.resolvent import IDENTITY_CHECKS, IDENTITY_TOL


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


def test_counting_is_an_unknown_subcommand(capsys):
    # the counting-function bound is a check of the rigidity runner
    with pytest.raises(SystemExit) as exc:
        main(["counting", "--n", "64"])
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'counting'" in capsys.readouterr().err


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_identities_pass(capsys):
    code = main(["identities", "--n", "8", "--samples", "10", "--seed", "7"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(IDENTITY_CHECKS) == 5
    for name, line in zip(IDENTITY_CHECKS, lines):
        assert line.startswith(f"[PASS] {name}: ") and f"bound <= {IDENTITY_TOL:.4g}," in line


def test_failing_check_prints_and_records_its_margin(tmp_path, capsys):
    # entries four times too large put the spectrum near +-8, past the
    # extreme bound's threshold of about 7.3 at N = 64
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("distribution = gaussian:scale=4\n")
    out = tmp_path / "out"
    argv = ["rigidity", "--config", str(cfg_file), "--n", "64", "--samples", "5", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[FAIL] extreme_n64:")]
    assert float(line.rsplit("margin ", 1)[1]) < 0
    summary = json.loads((out / "rigidity.json").read_text())
    (check,) = [c for c in summary["checks"] if c["name"] == "extreme_n64"]
    assert check["passed"] is False and check["margin"] < 0
    # the bounds the margin is measured from; JSON has no infinity, so an absent one is null
    assert check["lo"] is None and check["hi"] == summary["fits"]["extreme_threshold_n64"]
    assert check["value"] > 0 and check["margin"] == check["hi"] - check["value"]
    assert summary["passed"] is False


def test_identities_nan_residual_fails(monkeypatch, capsys):
    # a NaN in any trial, not only the first, fails that identity
    trials = iter([(0.0,) * 5, (0.0, math.nan, 0.0, 0.0, 0.0), (0.0,) * 5])
    monkeypatch.setattr(cli, "identity_trial", lambda s, rng: next(trials))
    assert main(["identities", "--n", "4", "--samples", "3"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "[FAIL] identity_offdiag: nan" in out and out.count("[PASS]") == 4


def test_gamma_table(tmp_path, capsys):
    code = main(["gamma-table", "--n", "10", "--out", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "gamma.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "gamma_j"]
    assert len(rows) == 11
    assert float(rows[-1][1]) == 2.0


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter, so modules imported by other tests do not count
    script = (
        "import sys\n"
        "import wignerlab.cli\n"
        f"code = wignerlab.cli.main(['gamma-table', '--n', '64', '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"
    assert (tmp_path / "gamma.csv").exists()


@pytest.mark.parametrize("argv", [
    "check-profile --profile band:w=40 --n 64",
    "check-profile --n 1",
    "check-profile --n 0",
    "check-profile --n -1",
    "gamma-table --n 0",
    "identities --n 2",
    "identities --samples 0",
    "identities --seed -1",
    "rigidity --n 64,64,64 --samples 2",  # the --n flag is sorted, then checked
    # a config file that cannot be read
    "rigidity --config missing.conf",
    "rigidity --config dir.conf",
    "rigidity --config latin1.conf",
])
def test_utility_bad_input_is_config_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir.conf").mkdir()
    (tmp_path / "latin1.conf").write_bytes("samples_per_n = 2  # Größe\n".encode("latin-1"))
    assert main(argv.split()) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", ["", ","])
def test_empty_n_flag_is_config_error(tmp_path, capsys, n):
    # an empty --n is a list of no sizes, not the config's default
    out = tmp_path / "out"
    assert main(["rigidity", "--n", n, "--samples", "2", "--out", str(out)]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("argv", ["rigidity --n 64 --samples 2", "gamma-table --n 10"])
def test_unusable_out_is_config_error_before_the_run(tmp_path, monkeypatch, capsys, argv, under):
    # an --out that names a file, or a path under one, stops the command
    # before it runs, not after the whole run
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    runs = []
    monkeypatch.setitem(cli.RUNNERS, "rigidity", runs.append)
    out = taken / "out" if under else taken
    assert main([*argv.split(), "--out", str(out)]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert runs == [] and taken.read_text() == "kept\n"


def test_check_profile(capsys):
    assert main(["check-profile", "--profile", "flat", "--n", "16"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["eigenvalue_one_simple"] is True
    assert summary["c_inf"] == 1.0


def test_read_config(tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(
        "# comment\n"
        "n_list = 32,64\n"
        "samples_per_n = 4   # inline comment\n"
        "master_seed = 99\n"
    )
    values = read_config(str(cfg_file))
    assert values == {"n_list": "32,64", "samples_per_n": "4", "master_seed": "99"}


def test_read_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError):
        read_config(str(bad))


def test_rigidity_run_with_config(tmp_path, capsys):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("n_list = 64\nsamples_per_n = 4\n")
    out = tmp_path / "out"
    code = main(["rigidity", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "rigidity.csv").exists()
    assert (out / "rigidity.json").exists()
    summary = json.loads((out / "rigidity.json").read_text())
    assert summary["passed"] is True
    assert summary["config"]["samples_per_n"] == 4


def test_flag_overrides_config(tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text("master_seed = 5\nn_list = 64\n")
    out = tmp_path / "out"
    code = main([
        "rigidity", "--config", str(cfg_file), "--out", str(out),
        "--seed", "123", "--samples", "3", "--quiet",
    ])
    assert code == EXIT_OK
    summary = json.loads((out / "rigidity.json").read_text())
    assert summary["config"]["master_seed"] == 123
    assert summary["config"]["samples_per_n"] == 3


def test_unknown_config_key_usage_error(tmp_path, capsys):
    # a key that names no field, and a field under a namespace prefix, which
    # config keys do not take
    cfg_file = tmp_path / "run.conf"
    for line in ("wat = 1", "experiment.samples_per_n = 4"):
        cfg_file.write_text(f"{line}\n")
        assert main(["rigidity", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert "does not read config key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_identical_invocations_identical_files(tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main(["rigidity", "--n", "64", "--samples", "3", "--seed", "4",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        outs.append((out / "rigidity.csv").read_bytes())
    assert outs[0] == outs[1]


# Each config names one bad value; the run must stop when the config is
# built (exit 64, nothing written), not fail halfway or run anyway.
BAD_CONFIGS = [
    ("rigidity", "symmetry = orthogonal"),
    ("rigidity", "distribution = cauchy"),
    ("rigidity", "distribution = two_point:1.5"),
    ("edge", "distribution_b = cauchy"),
    ("rigidity", "profile = band:w=wide"),
    ("rigidity", "profile = band:w=0"),
    ("rigidity", "profile = band:w=17"),
    ("rigidity", "threads = 0"),
    ("rigidity", "n_list = 1"),
    ("rigidity", "n_list = 64,64,64"),  # a slope fit over one distinct size
    ("lsc", "n_list = 32,32"),  # every row twice
    ("rigidity", "n_list = 64,32"),
    ("rigidity", "samples_per_n = two"),
    ("edge", "allow_moment_mismatch = maybe"),
    ("rigidity", "distribution = gaussian:scale=nan"),  # LinAlgError mid-run
    ("edge", "distribution_b = gaussian:scale=nan"),  # abs(nan - 1) > 1e-12 is False
    ("lsc", "eta_count = 2"),
    ("lsc", "e_values ="),
    ("lsc", "e_values = 0.0,0.0"),  # every row twice
    ("lsc", "e_values = nan"),
    ("lsc", "e_values = 6.0"),  # outside |E| <= 5
    ("dbm-relax", "n_list = 256\nreference_samples = 0"),
    ("rigidity", "master_seed = -1"),
    ("dbm-relax", "n_list = 64"),  # too few eigenvalues in the gap window
    # streams ti*10**5 + i collide across flow times
    ("dbm-relax", "n_list = 256\nsamples_per_n = 100001"),
    ("rigidity", "distribution = gaussian:scale=0"),  # an all-zero matrix passes the extreme bound
    ("rigidity", "distribution = gaussian:scale=-1"),
    # a field the runner does not read would be recorded but change nothing
    ("rigidity", "extreme_c = 3"),
    ("rigidity", "t_list = 0,1,2"),
    # flow times, the eta sweep's start and the extreme constant are fixed:
    # a config file that still sets one is rejected, whatever the value
    ("dbm-relax", "t_list = 0.5"),
    ("dbm-relax", "t_list = -1.0,4.0"),
    ("dbm-relax", "n_list = 256\nt_list = 0.0,4.0"),
    ("dbm-relax", "n_list = 256\nt_list = 0.0,4.0,4.0"),
    ("dbm-relax", "n_list = 256\nt_list = 4.0,0.0,1.0"),
    ("dbm-relax", "n_list = 256\nt_list = -1.0,0.5,4.0"),
    ("dbm-relax", "n_list = 256\nt_list = 0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,4.0"),
    ("lsc", "eta_min_exponent = 0"),
    ("lsc", "eta_min_exponent = -1.0"),
    ("rigidity", "distribution_b = rademacher"),
    ("rigidity", "eta_count = 5"),
    ("dbm-relax", "n_list = 130\nprofile = band:w=8"),  # the flow is always flat Gaussian
    ("dbm-relax", "n_list = 130\ndistribution = rademacher"),
    # edge and dbm-relax run at one size
    ("edge", "n_list = 33,64\ndistribution_b = rademacher"),
    ("dbm-relax", "n_list = 128,256"),
    # a repeated key: the last line would silently win
    ("rigidity", "samples_per_n = 4\nsamples_per_n = 6"),
    # a prefixed key names no field
    ("rigidity", "samples_per_n = 4\nexperiment.samples_per_n = 6"),
]


@pytest.mark.parametrize("command, lines", BAD_CONFIGS)
def test_bad_config_fails_when_built(tmp_path, capsys, command, lines):
    # n_list = 32 and samples_per_n = 2 unless the row sets them, since a
    # repeated key is itself an error
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    base = "".join(f"{k} = {v}\n" for k, v in [("n_list", 32), ("samples_per_n", 2)] if k not in keys)
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(f"{base}{lines}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), "--out", str(out), "--quiet"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("dbm-relax", "t_list = 0,1,2"),
    ("lsc", "eta_min_exponent = -0.9"),
    ("rigidity", "extreme_c = 10"),
])
def test_fixed_constant_is_not_a_config_key(tmp_path, capsys, command, line):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(f"{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), "--out", str(out), "--quiet"]) == EXIT_USAGE
    assert "does not read config key" in capsys.readouterr().err
    assert not out.exists()


# Every runner but dbm-relax (whose gap window needs N >= 83) runs at the
# smallest size the config accepts; edge then reports two top eigenvalues.
@pytest.mark.parametrize("command, lines", [
    ("rigidity", ""),
    ("lsc", ""),
    ("edge", "distribution_b = rademacher"),
])
def test_runners_run_at_n2(tmp_path, command, lines):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(f"{lines}\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_file), "--n", "2", "--samples", "4",
            "--out", str(out), "--quiet"]
    assert main(argv) in (EXIT_OK, EXIT_CHECK_FAILED)
    with open(out / f"{command}.csv") as fh:
        header = next(csv.reader(fh))
    if command == "edge":
        assert header == ["ensemble", "sample_index", "top_1", "top_2", "bottom"]
