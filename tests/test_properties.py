"""Property-based tests (hypothesis) of the semicircle transform, the classical
locations and the config file round trip."""

import argparse
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wignerlab.cli import build_config, read_config  # noqa: E402
from wignerlab.experiments import READS, ExperimentConfig  # noqa: E402
from wignerlab.semicircle import classical_locations, m_sc, n_sc  # noqa: E402

# the paper's spectral domain: |E| <= 5, 0 < eta <= 10
window = st.builds(complex, st.floats(-5.0, 5.0), st.floats(1e-9, 10.0))


@settings(deadline=None)
@given(window)
def test_msc_is_the_upper_root(z):
    m = m_sc(z)
    assert m.imag > 0
    assert abs(m) <= 1.0
    scale = abs(m) ** 2 + abs(z * m) + 1.0
    assert abs(m * m + z * m + 1.0) <= 1e-12 * scale


@settings(deadline=None)
@given(st.integers(1, 5000))
def test_classical_locations_solve_the_cdf(n):
    g = classical_locations(n)
    assert g[-1] == 2.0
    assert np.all(np.diff(g) > 0)
    assert np.max(np.abs(g[: n - 1] + g[: n - 1][::-1]), initial=0.0) <= 1e-15
    assert max(abs(n_sc(x) - j / n) for j, x in enumerate(g, 1)) <= 1e-15


DISTRIBUTIONS = ["gaussian", "rademacher", "uniform", "two_point:0.25", "gaussian:scale=1.5"]


@st.composite
def configs(draw):
    n_list = sorted(draw(st.lists(st.integers(2, 4096), min_size=1, max_size=4, unique=True)))
    return ExperimentConfig(
        n_list=n_list,
        samples_per_n=draw(st.integers(1, 1000)),
        profile=draw(st.just("flat") | st.integers(1, n_list[0] // 2).map("band:w={}".format)),
        distribution=draw(st.sampled_from(DISTRIBUTIONS)),
        distribution_b=draw(st.none() | st.sampled_from(DISTRIBUTIONS)),
        symmetry=draw(st.sampled_from(["symmetric", "hermitian"])),
        master_seed=draw(st.integers(0, 2**32)),
        e_values=draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3, unique=True)),
        eta_count=draw(st.integers(3, 50)),
        allow_moment_mismatch=draw(st.booleans()),
        reference_samples=draw(st.integers(1, 1000)),
        threads=draw(st.integers(1, 8)),
    )


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_render(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@settings(deadline=None)
@given(configs(), st.sampled_from(sorted(READS)))
def test_config_file_round_trip(drawn, command):
    # the runner's fields as drawn, every other field at its default
    cfg = ExperimentConfig(**{name: getattr(drawn, name) for name in READS[command]})
    lines = [f"{name} = {_render(getattr(cfg, name))}"
             for name in sorted(READS[command]) if getattr(cfg, name) is not None]
    no_flags = argparse.Namespace(command=command, n=None, samples=None, seed=None, threads=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.conf"
        path.write_text("\n".join(lines) + "\n")
        assert build_config(read_config(str(path)), no_flags) == cfg
