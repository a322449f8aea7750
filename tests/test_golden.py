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
        "2ef4caf557669748d261b23b1bd9ed463402352aa88729cffcc4257a81fa04a7",
    ),
    "rigidity": (
        dict(n_list=[24, 32, 48], samples_per_n=3, profile="band:w=6",
             symmetry="hermitian", distribution="uniform", master_seed=12),
        "4cc2a6f153930c8e6702228704398dd4dc029d43ee144f976bacb74f58ff846e",
    ),
    "counting": (
        dict(n_list=[33, 64], samples_per_n=3, symmetry="hermitian",
             distribution="two_point:0.3", master_seed=13),
        "10be7f9c31d910352ac810ce8561e4ba604cba4af465f3faf2ebd2ceed2b949a",
    ),
    "edge": (
        dict(n_list=[65], samples_per_n=6, profile="band:w=16",
             symmetry="hermitian", distribution="gaussian",
             distribution_b="rademacher", master_seed=14, threads=2),
        "d14c2c69bce574946a974868bb6164d3b246ce28364e9ea78130511a4defa4c8",
    ),
    "extreme": (
        dict(n_list=[64, 130], samples_per_n=3, distribution="rademacher",
             master_seed=15),
        "b3699a9c0cfef263928e37764610dd69fb98602bbab3674751596148d1ead050",
    ),
    "dbm-relax": (
        dict(n_list=[130], samples_per_n=2, reference_samples=3, master_seed=16),
        "9214f3c734c0b3f81698520c0639d900aad61b26ef429f46a694dd010b3b9830",
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


def test_dbm_relax_hermitian_csv_hash(tmp_path):
    # the complex flow and its in-place noise; GOLDEN pins the real class
    cfg = ExperimentConfig(n_list=[130], samples_per_n=2, reference_samples=3,
                           symmetry="hermitian", master_seed=17)
    path = tmp_path / "dbm-relax-hermitian.csv"
    RUNNERS["dbm-relax"](cfg).write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b0df405ec0dde940e3f05af605f418c0c3b9c614146f45c0c85de10a2c5dd4d2"
    )
