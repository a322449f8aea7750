"""Golden CSV hashes: one small configuration per runner.

Each runner's CSV must stay byte-identical across refactors and
performance work that keep the draws.  A changed hash means the random
streams, the arithmetic or the CSV format changed; only a change that
alters the draws on purpose, or declares a change to the arithmetic (such
as a new solver for the classical locations), may update the pinned values.
The hashes depend on the LAPACK build through the eigenvalues they
summarize.
"""

import hashlib

import pytest

from wignerlab.experiments import RUNNERS, ExperimentConfig

GOLDEN = {
    "lsc": (
        dict(n_list=[64], samples_per_n=3, eta_count=4, master_seed=11),
        "7f089ce71e43ef7cb47e4fc46d41cdd030630a459cd53b5ccf0d400b7a097bb5",
    ),
    "rigidity": (
        dict(n_list=[24, 32, 48], samples_per_n=3, profile="band:w=6",
             symmetry="hermitian", distribution="uniform", master_seed=12),
        "ae01486d6f44e0da871e046fdce39b2115ca44abf5b02132d102497f78775908",
    ),
    "edge": (
        dict(n_list=[65], samples_per_n=6, profile="band:w=16",
             symmetry="hermitian", distribution="gaussian",
             distribution_b="rademacher", master_seed=14, threads=2),
        "e0fc405a0e5efb0040ccb08da55cb020ade56dd4e74c5f68cd7150c2f62abbf3",
    ),
    "dbm-relax": (
        dict(n_list=[130], samples_per_n=2, reference_samples=3, master_seed=16),
        "1dd9a2896278f171c0b220a121a98c2bb2d9280526d00e25bbe4bb7f4d856703",
    ),
}


def test_every_runner_pinned():
    assert set(GOLDEN) == set(RUNNERS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runner_csv_hash(name, tmp_path):
    kwargs, expected = GOLDEN[name]
    rep = RUNNERS[name](ExperimentConfig(**kwargs))
    path = tmp_path / f"{name}.csv"
    rep.write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_counting_fits_keep_their_bits():
    """The counting-function fits and checks of rigidity's report, bit for
    bit, on a Hermitian two-point ensemble at an odd N; GOLDEN's rigidity
    CSV holds none of them."""
    cfg = ExperimentConfig(n_list=[33, 64], samples_per_n=3, symmetry="hermitian",
                           distribution="two_point:0.3", master_seed=13)
    rep = RUNNERS["rigidity"](cfg)
    fits = {k: repr(v) for k, v in rep.fits.items() if k.startswith("counting_")}
    assert fits == {
        "counting_median_sup_n33": "1.2495043195587343",
        "counting_p95_sup_n33": "1.5294047786321938",
        "counting_median_sup_n64": "1.5843666301862669",
        "counting_p95_sup_n64": "2.4551085512008513",
    }
    ratios = {c.name: repr(c.value) for c in rep.checks if c.name.startswith("counting_")}
    assert ratios == {"counting_n33": "0.10220421768144923", "counting_n64": "0.09160143218361333"}


def test_dbm_relax_hermitian_csv_hash(tmp_path):
    # the complex flow and its in-place noise; GOLDEN pins the real class
    cfg = ExperimentConfig(n_list=[130], samples_per_n=2, reference_samples=3,
                           symmetry="hermitian", master_seed=17)
    path = tmp_path / "dbm-relax-hermitian.csv"
    RUNNERS["dbm-relax"](cfg).write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a1aeae15a3871646c15f7ef759346900c1c0c2faf7684d3be6d4db7fd20743b5"
    )


@pytest.mark.parametrize("name, kwargs", [
    ("rigidity", dict(n_list=[256], samples_per_n=4, master_seed=3)),
    ("edge", dict(n_list=[256], samples_per_n=4, symmetry="hermitian",
                  distribution_b="rademacher", master_seed=3)),
    ("dbm-relax", dict(n_list=[256], samples_per_n=2, reference_samples=8, master_seed=3)),
], ids=["rigidity", "edge-hermitian", "dbm-relax"])
def test_csv_independent_of_host_blas_threads(name, kwargs, tmp_path, host_blas_threads):
    """At N <= PIN_MAX_N the runners solve on one BLAS thread whatever the
    host's setting; without the pin, 1 and 2 threads give other bits here.
    The dbm-relax reference solves as many spectra at once as BLAS has
    threads, and its bytes do not depend on that width."""
    csvs = []
    for count in (1, 2):
        path = tmp_path / f"{count}.csv"
        with host_blas_threads(count):
            RUNNERS[name](ExperimentConfig(**kwargs)).write_csv(path)
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
