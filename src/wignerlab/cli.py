"""Command-line surface: config parsing, experiment dispatch, CSV/JSON output.

Exit codes: 0 all checks passed, 1 execution error, 2 check failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import types
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import profile as profile_mod
from .experiments import READS, RUNNERS, Check, ConfigError, ExperimentConfig, profile_from_spec
from .resolvent import IDENTITY_CHECKS, IDENTITY_TOL, identity_trial
from .sampler import SYMMETRIC, HERMITIAN, derive_stream, gaussian, sample_matrix
from .semicircle import classical_locations

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def read_config(path: str) -> dict:
    """Flat UTF-8 key=value file, each key set once; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} set twice")
        out[key] = value
    return out


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def build_config(file_values: dict, args) -> ExperimentConfig:
    values = {}
    for key, value in file_values.items():
        if key not in READS[args.command]:
            raise ConfigError(f"{args.command} does not read config key {key!r}")
        values[key] = _coerce(key, value)
    # flags override config keys
    if args.n is not None:
        values["n_list"] = sorted(_coerce("n_list", args.n))
    if args.samples is not None:
        values["samples_per_n"] = args.samples
    if args.seed is not None:
        values["master_seed"] = args.seed
    if args.threads is not None:
        values["threads"] = args.threads
    return ExperimentConfig(**values)


def _coerce(name: str, value: str):
    """Parse a config string as the type the ExperimentConfig field declares
    (`X | None` parses as X, `list[X]` as comma-separated X)."""
    kind = _FIELD_TYPES[name]
    if isinstance(kind, types.UnionType):
        kind = next(t for t in typing.get_args(kind) if t is not type(None))
    try:
        if typing.get_origin(kind) is list:
            (item,) = typing.get_args(kind)
            return [item(x) for x in value.split(",") if x.strip()]
        if kind is bool:
            return {"1": True, "true": True, "yes": True,
                    "0": False, "false": False, "no": False}[value.lower()]
        return kind(value)
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {name} = {value!r}") from None


def _print_checks(checks: list[Check], quiet: bool) -> int:
    """One [PASS]/[FAIL] line per check unless quiet; the exit code they give."""
    if not quiet:
        for c in checks:
            print(c)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def _out_dir(path: str) -> Path:
    """``--out``, checked before a run but not created, so a config error leaves nothing."""
    nearest = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {path}: {nearest} is not a writable directory")
    return Path(path)


def _write_outputs(report, out: Path, quiet: bool) -> int:
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / f"{report.name}.csv")
    report.write_json(out / f"{report.name}.json")
    code = _print_checks(report.checks, quiet)
    if not quiet:
        print(f"wrote {out / (report.name + '.csv')} (hash {report.content_hash()})")
    return code


def cmd_check_profile(args) -> int:
    p = profile_from_spec(args.profile, args.n_dim)
    rep = profile_mod.assumption_report(p)
    summary = {"n": p.n, "kind": p.kind, "c_inf": p.c_inf, "c_sup": p.c_sup, **asdict(rep)}
    print(json.dumps(summary, indent=2, sort_keys=True))
    ok = rep.eigenvalue_one_simple and rep.row_sum_residual <= 1e-10
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"{flag} {value} < {low}")
    return value


def cmd_gamma_table(args) -> int:
    gamma = classical_locations(_at_least("--n", args.n_dim, 1))
    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "gamma.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["j", "gamma_j"])
        for j, g in enumerate(gamma, 1):
            writer.writerow([j, repr(float(g))])
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_identities(args) -> int:
    n = _at_least("--n", args.n_dim, 3)  # three distinct indices i, j, k
    samples = _at_least("--samples", args.samples, 1)
    rng = derive_stream(_at_least("--seed", args.seed, 0), 0)
    p = profile_mod.flat_profile(n)
    worst = np.zeros(5)
    for trial in range(samples):
        sym = SYMMETRIC if trial % 2 else HERMITIAN
        s = sample_matrix(p, gaussian(), sym, rng)
        worst = np.maximum(worst, identity_trial(s, rng))  # max would drop a NaN residual
    return _print_checks([Check(k, v, hi=IDENTITY_TOL) for k, v in zip(IDENTITY_CHECKS, worst)], args.quiet)


def make_parser() -> _Parser:
    parser = _Parser(prog="wignerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key=value config file (default: none)")
        sp.add_argument("--seed", type=int, default=None, help="master seed override (default: config value)")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--samples", type=int, default=None, help="samples per size (default: config value)")
        sp.add_argument("--n", default=None, help="comma-separated dimensions (default: config value)")
        sp.add_argument("--threads", type=int, default=None, help=(
            "workers for eigenvalue-only samples at N <= 512, each solve on one BLAS thread; "
            "other phases (N > 512, and all of lsc) run one sample at a time on every BLAS "
            "thread; dbm-relax's equilibrium reference calls no BLAS and solves as many "
            "spectra at once as BLAS has threads, beside the flow when the flow is pinned "
            "(default: 1)"))
        sp.add_argument("--quiet", action="store_true", help="suppress per-check output (default: off)")

    for name in RUNNERS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        common(sp)

    sp = sub.add_parser("check-profile", help="validate a variance profile")
    sp.add_argument("--profile", default="flat", help="flat or band:w=<int> (default: flat)")
    sp.add_argument("--n", dest="n_dim", type=int, required=True, help="matrix dimension")

    sp = sub.add_parser("gamma-table", help="dump classical eigenvalue locations to CSV")
    sp.add_argument("--n", dest="n_dim", type=int, required=True, help="matrix dimension")
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    sp.add_argument("--quiet", action="store_true", help="suppress output (default: off)")

    sp = sub.add_parser("identities", help="random-matrix residuals of the exact resolvent identities")
    sp.add_argument("--n", dest="n_dim", type=int, default=12, help="matrix dimension (default: 12)")
    sp.add_argument("--samples", type=int, default=200, help="number of random trials (default: 200)")
    sp.add_argument("--seed", type=int, default=1, help="master seed (default: 1)")
    sp.add_argument("--quiet", action="store_true", help="suppress output (default: off)")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check-profile":
            return cmd_check_profile(args)
        if args.command == "gamma-table":
            return cmd_gamma_table(args)
        if args.command == "identities":
            return cmd_identities(args)
        file_values = read_config(args.config) if args.config else {}
        cfg, out = build_config(file_values, args), _out_dir(args.out)
        return _write_outputs(RUNNERS[args.command](cfg), out, args.quiet)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # surfaced as execution failure, not a traceback
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
