"""Shared fixtures: the reference parameter point and the objects that are
expensive enough to build once per session."""

import numpy as np
import pytest

import fastdiff as fd

# Reference point used throughout: n=3, m=1/5, gamma=4.  Exponents and
# constants there are exact rationals, so tests can pin them to 1e-14.
N, M, GAMMA = 3, 0.2, 4.0


@pytest.fixture(scope="session")
def params_ref():
    return fd.derive_params(N, M, GAMMA)


@pytest.fixture(scope="session")
def fp_ref(params_ref):
    return fd.derive_fp_constants(params_ref)


@pytest.fixture(scope="session")
def tail_ref(fp_ref):
    return fd.picard_solve(fp_ref)


@pytest.fixture(scope="session")
def base_profile(tail_ref):
    """Profile at eta_inf = 1 over the default s-range."""
    return fd.continue_left(tail_ref)


@pytest.fixture(scope="session")
def unit_eta_profile(params_ref):
    """Profile with origin coefficient lim r^gamma f = 1."""
    return fd.solve_for_eta(params_ref, target_eta=1.0)


@pytest.fixture(scope="session")
def weight_ref():
    return fd.build_weight(fd.BumpSpec(mu=0.5, n=N))


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed):
        return np.random.default_rng(seed)

    return make
