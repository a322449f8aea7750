"""Monte Carlo harness: local-law scaling, rigidity with its extreme-eigenvalue
and counting-function bounds, edge comparison and flow relaxation, with
deterministic seeded parallelism and CSV/JSON reports."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, asdict, replace
from importlib import resources

import numpy as np

from . import dbm
from .profile import ProfileError, VarianceProfile, band_profile, flat_profile
from .resolvent import control_sweep
from .sampler import (HERMITIAN, SYMMETRIC, WignerSample, _map_indexed, blas_threads,
                      derive_stream, eigenvalue_phase, from_name, pins, sample_buffer,
                      sample_indexed)
from .semicircle import SpectralPoint, classical_locations, m_sc, n_sc


class ConfigError(ValueError):
    pass


def load_calibration() -> dict:
    with resources.files("wignerlab").joinpath("calibration.json").open() as fh:
        return json.load(fh)


@dataclass
class ExperimentConfig:
    """One run's parameters. Every field is checked, read by the runner or not:
    the CLI rejects keys a runner does not read, so an invalid unread value
    can only come from an API caller, and is that caller's error."""
    n_list: list[int] = field(default_factory=lambda: [256])
    samples_per_n: int = 100
    profile: str = "flat"  # flat | band:w=<int>
    distribution: str = "gaussian"
    distribution_b: str | None = None  # second slot for edge comparison
    symmetry: str = "symmetric"
    master_seed: int = 1
    e_values: list[float] = field(default_factory=lambda: [0.0])
    eta_count: int = 12
    allow_moment_mismatch: bool = False  # negative controls only
    reference_samples: int = 100
    threads: int = 1

    def __post_init__(self):
        ns = self.n_list
        if not ns or ns[0] < 2 or any(a >= b for a, b in zip(ns, ns[1:])):
            raise ConfigError(f"n_list {ns} must be strictly increasing, sizes >= 2")
        if self.samples_per_n < 1:
            raise ConfigError("samples_per_n must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed {self.master_seed} must be >= 0")
        if self.symmetry not in (SYMMETRIC, HERMITIAN):
            raise ConfigError(f"unknown symmetry {self.symmetry!r}")
        try:
            from_name(self.distribution)
            if self.distribution_b is not None:
                from_name(self.distribution_b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        profile_from_spec(self.profile, self.n_list[0])
        # the paper's spectral domain |E| <= 5; abs(nan) <= 5.0 is False
        e = self.e_values
        if not e or len(set(e)) < len(e) or not all(abs(x) <= 5.0 for x in e):
            raise ConfigError(f"e_values {e} must be one or more distinct energies with |E| <= 5")
        if self.eta_count < 3:
            raise ConfigError(f"eta_count {self.eta_count} < 3, too few points for a slope fit")
        if self.reference_samples < 1:
            raise ConfigError("reference_samples must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def make_profile(self, n: int) -> VarianceProfile:
        return profile_from_spec(self.profile, n)


def profile_from_spec(spec: str, n: int) -> VarianceProfile:
    """The profile a `flat` or `band:w=<int>` spec names at dimension n."""
    head, _, w = spec.partition("=")
    try:
        if spec == "flat":
            return flat_profile(n)
        if head == "band:w" and w.isdecimal():
            return band_profile(n, int(w))
    except ProfileError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown profile spec {spec!r}")


@dataclass
class Check:
    """A statistic and the bounds it must lie in. `margin` is the signed
    distance to the nearer bound, in the statistic's units: >= 0 when the
    check passes, and NaN, which fails, when the value is NaN."""

    name: str
    value: float
    lo: float = -math.inf
    hi: float = math.inf

    @property
    def margin(self) -> float:
        return float(min(self.value - self.lo, self.hi - self.value))

    @property
    def passed(self) -> bool:
        return self.margin >= 0

    @property
    def detail(self) -> str:
        if self.lo == -math.inf:
            bound = f"<= {self.hi:.4g}"
        elif self.hi == math.inf:
            bound = f">= {self.lo:.4g}"
        else:
            bound = f"[{self.lo:.4g}, {self.hi:.4g}]"
        return f"{self.value:.4g}, bound {bound}, margin {self.margin:.4g}"

    def __str__(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"

    def summary(self) -> dict:
        """The report JSON's record; JSON has no infinity, so an absent bound is null."""
        lo, hi = (None if math.isinf(b) else float(b) for b in (self.lo, self.hi))
        return {"name": self.name, "passed": self.passed, "detail": self.detail,
                "margin": self.margin, "value": float(self.value), "lo": lo, "hi": hi}


@dataclass
class ExperimentReport:
    name: str
    config: dict
    columns: list[str]
    rows: list[tuple]
    fits: dict
    checks: list[Check]

    def __post_init__(self):
        self.config = {k: v for k, v in self.config.items() if k in READS[self.name]}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_fmt(v) for v in row])

    def summary(self) -> dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "fits": self.fits,
            "checks": [c.summary() for c in self.checks],
            "passed": self.passed,
            "content_hash": self.content_hash(),
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def content_hash(self) -> str:
        """Hash of the config and rows; `threads` changes how a run executes,
        never what it computes, so it stays out."""
        config = {k: v for k, v in self.config.items() if k != "threads"}
        h = hashlib.sha256()
        h.update(json.dumps(config, sort_keys=True).encode())
        for row in self.rows:
            h.update(",".join(_fmt(v) for v in row).encode())
        return h.hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def monte_carlo(cfg: ExperimentConfig, n: int, statistic, draw=None,
                eigenvalues_only: bool = True) -> list:
    """statistic(draw(i, out)) for samples i = 0..samples_per_n-1 at dimension
    n, in sample order whatever the thread count, in one sample phase. By
    default draw(i, out) is sample i of the configured ensemble, a
    ``WignerSample`` drawn into out. A phase of eigenvalue-only statistics
    (``eigenvalues_only``) at n <= PIN_MAX_N pins BLAS to one thread and runs
    on ``cfg.threads`` pool workers; any other phase runs its samples one at
    a time on every BLAS thread. Each worker draws all its samples into one
    N×N buffer, allocated at its first sample; the buffers go with the phase."""
    if draw is None:
        p, d = cfg.make_profile(n), from_name(cfg.distribution)
        draw = lambda i, out: sample_indexed(p, d, cfg.symmetry, cfg.master_seed, i, out)
    worker = threading.local()

    def one(i):
        if not hasattr(worker, "h"):
            worker.h = sample_buffer(n, cfg.symmetry)
        return statistic(draw(i, worker.h))

    with eigenvalue_phase(n, eigenvalues_only) as pinned:
        return _map_indexed(one, cfg.samples_per_n, cfg.threads if pinned else 1)


def fmean(xs) -> float:
    return math.fsum(xs) / len(xs)


def nearest_rank_quantile(xs, q: float) -> float:
    """Deterministic nearest-rank quantile on a copy-sorted sample."""
    s = sorted(float(x) for x in xs)
    if not s:
        raise ValueError("empty sample")
    k = max(1, math.ceil(q * len(s)))
    return s[k - 1]


def median(xs) -> float:
    return nearest_rank_quantile(xs, 0.5)


def ks_two_sample(a, b, alpha: float = 0.01) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and its asymptotic critical
    value at level alpha: c(alpha) * sqrt((m+n)/(m n))."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    scale = math.sqrt((a.size + b.size) / (a.size * b.size))
    return stat, math.sqrt(-math.log(alpha / 2.0) / 2.0) * scale


def slope_fit(xs, ys) -> tuple[float, float, float]:
    """OLS of log y on log x: (slope, intercept, stderr of slope)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError(f"need >= 3 points, got {xs.size}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(1, xs.size - 2)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return float(slope), float(intercept), stderr


# ---------------------------------------------------------------------------
# local semicircle law

ETA_MIN_EXPONENT = -0.9  # the eta sweep runs from N**this, above 1/N, up to 1


def run_lsc(cfg: ExperimentConfig) -> ExperimentReport:
    """Deviation of the empirical Stieltjes transform and of the off-diagonal
    resolvent entries over an (E, eta) grid, with the (N eta)^-1 scaling fit."""
    calib = load_calibration()
    columns = [
        "n", "e", "eta", "n_eta", "samples",
        "median_lambda", "median_n_eta_lambda", "p95_n_eta_lambda",
        "median_offdiag_ratio", "p95_offdiag_ratio",
    ]
    rows, fits, checks = [], {}, []
    for n in cfg.n_list:
        etas = np.geomspace(n**ETA_MIN_EXPONENT, 1.0, cfg.eta_count)
        pts = [SpectralPoint(float(e), float(eta)) for e in cfg.e_values for eta in etas]
        denoms = [
            math.sqrt(m_sc(z).imag / (n * z.eta)) + 1.0 / (n * z.eta) for z in pts
        ]

        def one(s):
            s.eigen_pair(consume=True)  # control_sweep never reads h
            return [(snap.lam, snap.lambda_o / denom)
                    for snap, denom in zip(control_sweep(s, pts), denoms)]

        # eigen_pair and the resolvent GEMMs run on every BLAS thread
        per_sample = monte_carlo(cfg, n, one, eigenvalues_only=False)
        med_by_e = {}
        for k, z in enumerate(pts):
            lams = [ps[k][0] for ps in per_sample]
            ratios = [ps[k][1] for ps in per_sample]
            ne = n * z.eta
            med_l = median(lams)
            rows.append((
                n, z.e, z.eta, ne, len(lams),
                med_l, median([x * ne for x in lams]),
                nearest_rank_quantile([x * ne for x in lams], 0.95),
                median(ratios), nearest_rank_quantile(ratios, 0.95),
            ))
            med_by_e.setdefault(z.e, []).append((ne, med_l))
        for e, pairs in med_by_e.items():
            slope, intercept, stderr = slope_fit(
                [x for x, _ in pairs], [y for _, y in pairs]
            )
            fits[f"slope_n{n}_e{e}"] = slope
            fits[f"slope_stderr_n{n}_e{e}"] = stderr
            checks.append(Check(f"lsc_slope_n{n}_e{e}", slope, *calib["lsc_slope_band"]))
        envelope = calib["lsc_envelope_const"] * math.log(n) ** calib["lsc_envelope_logpow"]
        checks.append(Check(f"lsc_envelope_n{n}", max(r[6] for r in rows if r[0] == n), hi=envelope))
        off_env = calib["offdiag_envelope_const"] * math.log(n) ** calib["polylog_exponent"]
        checks.append(Check(f"lsc_offdiag_n{n}", max(r[8] for r in rows if r[0] == n), hi=off_env))
    return ExperimentReport("lsc", asdict(cfg), columns, rows, fits, checks)


# ---------------------------------------------------------------------------
# rigidity, with the extreme-eigenvalue and counting-function bounds


def rigidity_stats(eigs: np.ndarray, gamma: np.ndarray) -> dict:
    n = eigs.size
    j = np.arange(1, n + 1)
    dev = np.abs(eigs - gamma)
    scaled = n ** (2.0 / 3.0) * np.minimum(j, n + 1 - j) ** (1.0 / 3.0) * dev
    bulk = slice(max(n // 4 - 1, 0), 3 * n // 4)
    return {
        "scaled_max": float(scaled.max()),
        "edge_dev": float(abs(eigs[-1] - 2.0)),
        "center_dev": float(dev[n // 2 - 1]),
        "bulk_max": float(n * dev[bulk].max()),
        "spectral_radius": float(max(abs(eigs[0]), abs(eigs[-1]))),
        "counting_sup": counting_sup(eigs),
    }


def counting_sup(eigs: np.ndarray) -> float:
    """N * sup over E of |empirical cdf - semicircle cdf|, evaluated exactly
    at the jump points of the empirical counting function."""
    n = eigs.size
    nsc = n_sc(eigs)
    j = np.arange(1, n + 1)
    above = np.abs(j / n - nsc)
    below = np.abs((j - 1) / n - nsc)
    return float(n * max(above.max(), below.max()))


def run_rigidity(cfg: ExperimentConfig) -> ExperimentReport:
    """Eigenvalue deviations from the classical locations, with their N
    slopes; the bound that no sample's max(|lambda_1|, |lambda_N|) reaches
    2 + c N^(-2/3) (log N)^1.5; and the counting-function bound on the median
    of counting_sup, all from one spectrum per sample."""
    calib = load_calibration()
    columns = [
        "n", "samples", "median_edge_dev", "median_center_dev",
        "median_bulk_max", "median_scaled_max", "scaled_over_log2",
    ]
    rows, fits, checks = [], {}, []
    med_edge, med_center = [], []
    for n in cfg.n_list:
        gamma = classical_locations(n)
        stats = monte_carlo(cfg, n, lambda s: rigidity_stats(s.eigenvalues(), gamma))
        me = median([s["edge_dev"] for s in stats])
        mc = median([s["center_dev"] for s in stats])
        mb = median([s["bulk_max"] for s in stats])
        ms = median([s["scaled_max"] for s in stats])
        polylog = math.log(n) ** calib["polylog_exponent"]
        rows.append((n, len(stats), me, mc, mb, ms, ms / polylog))
        med_edge.append(me)
        med_center.append(mc)
        checks.append(Check(f"rigidity_scaled_n{n}", ms / polylog, hi=calib["rigidity_scaled_const"]))
        threshold = 2.0 + calib["extreme_c"] * n ** (-2.0 / 3.0) * math.log(n) ** 1.5
        fits[f"extreme_threshold_n{n}"] = threshold
        checks.append(Check(f"extreme_n{n}", max(s["spectral_radius"] for s in stats), hi=threshold))
        sups = [s["counting_sup"] for s in stats]
        fits[f"counting_median_sup_n{n}"] = median(sups)
        fits[f"counting_p95_sup_n{n}"] = nearest_rank_quantile(sups, 0.95)
        checks.append(Check(f"counting_n{n}", median(sups) / polylog, hi=calib["counting_const"]))
    if len(cfg.n_list) >= 3:
        s_edge, _, se_edge = slope_fit(cfg.n_list, med_edge)
        s_center, _, se_center = slope_fit(cfg.n_list, med_center)
        fits.update({
            "edge_slope": s_edge, "edge_slope_stderr": se_edge,
            "center_slope": s_center, "center_slope_stderr": se_center,
        })
        checks.append(Check("rigidity_edge_slope", s_edge, *calib["rigidity_edge_slope"]))
        checks.append(Check("rigidity_center_slope", s_center, *calib["rigidity_bulk_slope"]))
    return ExperimentReport("rigidity", asdict(cfg), columns, rows, fits, checks)


# ---------------------------------------------------------------------------
# edge universality


def edge_fluctuations(eigs: np.ndarray, top_k: int) -> np.ndarray:
    """N^(2/3)-rescaled fluctuations of the top_k largest eigenvalues and of
    the smallest one; entry 0 is the largest eigenvalue."""
    n = eigs.size
    top = n ** (2.0 / 3.0) * (eigs[-1 : -top_k - 1 : -1] - 2.0)
    bottom = n ** (2.0 / 3.0) * (-eigs[0] - 2.0)
    return np.concatenate([top, [bottom]])


def run_edge(cfg: ExperimentConfig) -> ExperimentReport:
    """Comparative edge statistics for two entry laws with matched first and
    second moments: two-sample KS on the rescaled top-eigenvalue fluctuation."""
    calib = load_calibration()
    if cfg.distribution_b is None:
        raise ConfigError("edge comparison needs two distributions")
    da, db = from_name(cfg.distribution), from_name(cfg.distribution_b)
    if not cfg.allow_moment_mismatch and any(
        abs(da.analytic_moment(k) - db.analytic_moment(k)) > 1e-12 for k in (1, 2)
    ):
        raise ConfigError(
            f"first or second moments of {cfg.distribution} and {cfg.distribution_b} differ"
        )
    if len(cfg.n_list) > 1:
        raise ConfigError(f"edge runs at one size, not n_list {cfg.n_list}")
    n = cfg.n_list[0]
    cfg_b = replace(cfg, distribution=cfg.distribution_b, master_seed=cfg.master_seed + 1)
    top_k = min(3, n)  # the three largest eigenvalues; at N = 2 there are two
    fluct = lambda s: edge_fluctuations(s.eigenvalues(), top_k)
    xa = np.array(monte_carlo(cfg, n, fluct))
    xb = np.array(monte_carlo(cfg_b, n, fluct))
    stat, crit = ks_two_sample(xa[:, 0], xb[:, 0], calib["edge_alpha"])
    stat_min, _ = ks_two_sample(xa[:, -1], xb[:, -1])
    columns = ["ensemble", "sample_index"] + [f"top_{k+1}" for k in range(top_k)] + ["bottom"]
    rows = []
    for tag, arr in (("a", xa), ("b", xb)):
        for i, vec in enumerate(arr):
            rows.append((tag, i, *[float(v) for v in vec]))
    fits = {"ks_top": stat, "ks_bottom": stat_min, "critical": crit}
    return ExperimentReport("edge", asdict(cfg), columns, rows, fits, [Check("edge_ks", stat, hi=crit)])


# ---------------------------------------------------------------------------
# flow relaxation


def upper_mean_square(h: np.ndarray) -> float:
    """Mean of |h_ij|^2 over i < j, with the bits of
    ``np.mean(np.abs(h[np.triu_indices(n, 1)]) ** 2)`` but without its index
    arrays: the moduli go row by row into one float vector, squared in place."""
    n = h.shape[0]
    sq = np.empty(n * (n - 1) // 2)
    o = 0
    for i in range(n - 1):
        np.abs(h[i, i + 1 :], out=sq[o : o + n - 1 - i])
        o += n - 1 - i
    np.square(sq, out=sq)
    return float(np.mean(sq))


def _flow_time(cfg: ExperimentConfig, gamma: np.ndarray, ti: int, t: float):
    """The pooled unfolded gaps of dbm-relax's samples at its ti-th flow time
    t > 0, and the z-scores of their mean off-diagonal and diagonal variances."""
    n = gamma.size

    def draw(i, out):
        stream = derive_stream(cfg.master_seed, ti * 10**5 + i)
        return dbm.ou_endpoint(gamma, t, cfg.symmetry, stream, out)

    def one(ht):
        off_mean = upper_mean_square(ht) * n
        diag_dev = float(np.mean(np.abs(np.diag(ht) - math.exp(-t / 2.0) * gamma) ** 2)) * n
        # factorizing overwrites ht, so it comes last
        gaps = dbm.gap_distribution(WignerSample(ht, mirrored=False).eigenvalues(), dbm.GAP_WINDOW)
        return gaps, off_mean, diag_dev

    results = monte_carlo(cfg, n, one, draw)
    target = 1.0 - math.exp(-t)  # above 0 at every t > 0
    m, n_off = len(results), n * (n - 1) / 2
    # each entry is target/n times a chi^2_1 (or complex analog) variable
    z_off = (fmean([r[1] for r in results]) - target) / (target * math.sqrt(2.0 / (m * n_off)))
    z_diag = (fmean([r[2] for r in results]) - target) / (target * math.sqrt(2.0 / (m * n)))
    return np.concatenate([r[0] for r in results]), z_off, z_diag


def run_dbm_relax(cfg: ExperimentConfig) -> ExperimentReport:
    """Relaxation of gap statistics from the rigid classical-location start
    toward the Gaussian equilibrium, plus the entry-variance interpolation."""
    calib = load_calibration()
    if len(cfg.n_list) > 1:
        raise ConfigError(f"dbm-relax runs at one size, not n_list {cfg.n_list}")
    n = cfg.n_list[0]
    # the start, three times on the N^-1 scale and equilibrium: relax_start_far
    # compares the first with the last, relax_fast the last but one
    t_list = [0.0, 0.5 / n, 2.0 / n, 8.0 / n, 4.0]
    gamma = classical_locations(n)
    if cfg.samples_per_n > 10**5:
        # sample i's stream ti*10**5 + i would reach the next flow time's; with
        # five flow times it stays below the reference's 10**6 + 1
        raise ConfigError(
            f"dbm-relax streams collide at samples_per_n = {cfg.samples_per_n}: need <= 10**5"
        )
    try:  # the gap window must hold enough eigenvalues; gamma shows it undrawn
        start = dbm.gap_distribution(gamma, dbm.GAP_WINDOW)
    except dbm.SampleSizeError as exc:
        raise ConfigError(f"N = {n} too small for dbm-relax: {exc}") from exc
    # every sample at t = 0 is diag(gamma): spectrum gamma, both variances at their target 0
    flow = [(np.tile(start, cfg.samples_per_n), 0.0, 0.0)]
    ref_stream = derive_stream(cfg.master_seed, 10**6 + 1)
    # dsterf calls no BLAS: while the flow's phases pin BLAS to one thread the
    # reference is solved on the cores they leave idle, as wide as the host's
    # count, read before a phase pins it; an unpinned flow uses every core, so the
    # reference runs first. Each spectrum is drawn as it is submitted, in serial order
    with ThreadPoolExecutor(max_workers=blas_threads()) as pool:
        solves = [pool.submit(dbm.equilibrium_gap_reference, *dbm.beta_hermite(n, cfg.symmetry, ref_stream))
                  for _ in range(cfg.reference_samples)]
        try:
            if not pins(n):
                wait(solves)
            for ti, t in enumerate(t_list[1:], 1):
                for solve in filter(Future.done, solves):
                    solve.result()  # raises a failed solve's error
                flow.append(_flow_time(cfg, gamma, ti, t))
        except BaseException:
            pool.shutdown(cancel_futures=True)  # solves in flight finish, no other starts
            raise
    reference = np.concatenate([solve.result() for solve in solves])
    columns = ["t", "ks", "n_gaps", "offdiag_var_z", "diag_var_z"]
    rows = [(float(t), ks_two_sample(pooled, reference)[0], int(pooled.size), z_off, z_diag)
            for t, (pooled, z_off, z_diag) in zip(t_list, flow)]
    ks = [row[1] for row in rows]
    checks = [
        Check("relax_start_far", ks[0], lo=calib["relax_t0_factor"] * ks[-1]),
        Check("relax_fast", ks[-2], hi=calib["relax_eq_factor"] * ks[-1]),
    ]
    # np.max, unlike max, keeps a NaN z, so the check fails on it
    checks += [Check(f"variance_interp_t{row[0]}", np.max(np.abs(row[3:])), hi=4.0) for row in rows]
    fits = {f"ks_t{row[0]}": row[1] for row in rows}
    return ExperimentReport("dbm-relax", asdict(cfg), columns, rows, fits, checks)


# The config fields each runner reads. The CLI rejects any other field, and a
# report records, and hashes, only these.
_ENSEMBLE = {"n_list", "samples_per_n", "profile", "distribution", "symmetry", "master_seed",
             "threads"}
READS = {
    "lsc": _ENSEMBLE | {"e_values", "eta_count"},
    "rigidity": _ENSEMBLE,
    "edge": _ENSEMBLE | {"distribution_b", "allow_moment_mismatch"},
    "dbm-relax": _ENSEMBLE - {"profile", "distribution"} | {"reference_samples"},
}

RUNNERS = {
    "lsc": run_lsc,
    "rigidity": run_rigidity,
    "edge": run_edge,
    "dbm-relax": run_dbm_relax,
}
