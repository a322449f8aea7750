"""Command-line surface: config parsing, experiment dispatch, CSV/JSON output.

Exit codes: 0 all checks passed, 1 execution error, 2 check failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import types
import typing
from pathlib import Path

from . import profile as profile_mod
from .experiments import RUNNERS, ConfigError, ExperimentConfig, profile_from_spec
from .resolvent import MinorSpec, green_at, identity_residuals, ward_residual
from .sampler import SYMMETRIC, HERMITIAN, derive_stream, gaussian, sample_matrix
from .semicircle import SpectralPoint, classical_locations

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
    """Flat key=value file with dotted namespaces; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = value
    return out


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def build_config(file_values: dict, args) -> ExperimentConfig:
    values = {}
    for key, value in file_values.items():
        name = key.removeprefix("experiment.")
        if name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[name] = _coerce(name, value)
    # flags override config keys
    if args.n:
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


def _write_outputs(report, out_dir: str, quiet: bool) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / f"{report.name}.csv")
    report.write_json(out / f"{report.name}.json")
    for c in report.checks:
        if not quiet:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    if not quiet:
        print(f"wrote {out / (report.name + '.csv')} (hash {report.content_hash()})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_check_profile(args) -> int:
    p = profile_from_spec(args.profile, args.n_dim)
    rep = profile_mod.assumption_report(p)
    summary = {
        "n": p.n, "kind": p.kind, "c_inf": rep.c_inf, "c_sup": rep.c_sup,
        "row_sum_residual": rep.row_sum_residual,
        "delta_minus": rep.delta_minus, "delta_plus": rep.delta_plus,
        "eigenvalue_one_simple": rep.eigenvalue_one_simple,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    ok = rep.eigenvalue_one_simple and rep.row_sum_residual <= 1e-10
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_gamma_table(args) -> int:
    gamma = classical_locations(args.n_dim)
    out = Path(args.out)
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
    n = args.n_dim
    rng = derive_stream(args.seed if args.seed is not None else 1, 0)
    p = profile_mod.flat_profile(n)
    worst = [0.0] * 5
    for trial in range(args.samples if args.samples else 200):
        sym = SYMMETRIC if trial % 2 else HERMITIAN
        s = sample_matrix(p, gaussian(), sym, rng)
        z = SpectralPoint(float(rng.uniform(-3, 3)), float(10 ** rng.uniform(-2, 1)))
        tsize = int(rng.integers(0, max(1, n - 4)))
        t = MinorSpec(frozenset(int(x) for x in rng.choice(n, tsize, replace=False)))
        rest = [x for x in range(n) if x not in t.t]
        i, j, k = (int(x) for x in rng.choice(rest, 3, replace=False))
        res = identity_residuals(s, z, t, i, j, k)
        g, _ = green_at(s, z)
        wres = ward_residual(g, z, relative=True)
        worst = [max(a, b) for a, b in zip(worst, [*res, wres])]
    names = ["inverse", "offdiag", "diag_minor", "offdiag_minor", "ward"]
    ok = True
    for name, value in zip(names, worst):
        passed = value <= 1e-9
        ok = ok and passed
        if not args.quiet:
            print(f"[{'PASS' if passed else 'FAIL'}] identity_{name}: max relative residual {value:.3e}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def make_parser() -> _Parser:
    parser = _Parser(prog="wignerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key=value config file (default: none)")
        sp.add_argument("--seed", type=int, default=None, help="master seed override (default: config value)")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--samples", type=int, default=None, help="samples per size (default: config value)")
        sp.add_argument("--n", default=None, help="comma-separated dimensions (default: config value)")
        sp.add_argument("--threads", type=int, default=None, help="worker threads (default: 1)")
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
        cfg = build_config(file_values, args)
        report = RUNNERS[args.command](cfg)
        return _write_outputs(report, args.out, args.quiet)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # surfaced as execution failure, not a traceback
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
