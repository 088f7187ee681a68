"""Shared fixtures: verified bundles for the two workhorse examples.

Everything heavy is session-scoped so the property suite, the synthesis
tests and the acceptance gate reuse one certification run instead of
re-sampling the band per test.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from exitcert.certificates import GridSpec, build_decrease_modulus, verify_mrf_band
from exitcert.library import minimum_time_1d, spiral
from exitcert.synthesis import (
    SynthesisConfig,
    build_kl_bound,
    build_sigma_envelopes,
    envelope_levels,
    synthesize,
)


@pytest.fixture(scope="session")
def mt():
    """1-d minimum time, certified on [0.05, 1.5] with p0_bar = 0.9."""
    ex = minimum_time_1d(p0_bar=0.9)
    grid = GridSpec(np.array([-2.0]), np.array([2.0]), 0.01)
    cert = verify_mrf_band(ex.system, ex.target, ex.mrf, 0.05, 1.5, grid,
                           envelope_levels=envelope_levels(1.5))
    assert cert.certified, "fixture expects a certifiable instance"
    modulus = build_decrease_modulus(cert.m_hat_samples)
    return SimpleNamespace(
        ex=ex, grid=grid, cert=cert, modulus=modulus, delta=0.05, sigma=1.5
    )


@pytest.fixture(scope="session")
def mt_synthesis(mt):
    cfg = SynthesisConfig(epsilon=0.1)
    return synthesize(
        mt.ex.system, mt.ex.target, mt.ex.mrf, mt.modulus,
        np.array([1.0]), cfg, sigma=mt.sigma,
    )


@pytest.fixture(scope="session")
def mt_kl(mt):
    sm, sp = build_sigma_envelopes(mt.cert.envelope_tables, mt.sigma, mt.grid.spacing,
                                   mt.grid.dim)
    kl = build_kl_bound(sm, sp, mt.modulus, epsilon=0.1)
    return SimpleNamespace(sigma_minus=sm, sigma_plus=sp, kl=kl)


@pytest.fixture(scope="session")
def ring():
    """Planar spiral with a thin certified band hugging the outer circle."""
    ex = spiral(epsilon=0.01)
    grid = GridSpec(np.array([-4.1, -4.1]), np.array([4.1, 4.1]), 0.02)
    cert = verify_mrf_band(ex.system, ex.target, ex.mrf, 1e-6, 6e-3, grid,
                           envelope_levels=envelope_levels(6e-3))
    assert cert.certified, "fixture expects a certifiable instance"
    modulus = build_decrease_modulus(cert.m_hat_samples)
    return SimpleNamespace(
        ex=ex, grid=grid, cert=cert, modulus=modulus, delta=1e-6, sigma=6e-3
    )


@pytest.fixture(scope="session")
def ring_synthesis(ring):
    cfg = SynthesisConfig(epsilon=0.01)
    return synthesize(
        ring.ex.system, ring.ex.target, ring.ex.mrf, ring.modulus,
        np.array([0.0, 3.5]), cfg, sigma=ring.sigma,
    )


@pytest.fixture(scope="session")
def ring_kl(ring):
    sm, sp = build_sigma_envelopes(ring.cert.envelope_tables, ring.sigma, ring.grid.spacing,
                                   ring.grid.dim)
    kl = build_kl_bound(sm, sp, ring.modulus, epsilon=0.01)
    return SimpleNamespace(sigma_minus=sm, sigma_plus=sp, kl=kl)
