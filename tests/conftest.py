import numpy as np
import pytest

from dexpou import ModelParams, analytic_moments

H_REF = 0.02


@pytest.fixture(scope="session")
def ref_params():
    """The reference parameter set used throughout the numerical experiments."""
    return ModelParams(theta=2.0, eta=1.2, phi=1.6, p=0.6)


@pytest.fixture(scope="session")
def ref_moments(ref_params):
    return analytic_moments(ref_params, H_REF)


def random_valid_params(rng: np.random.Generator) -> ModelParams:
    """One parameter draw from the exact-inversion test ranges."""
    return ModelParams(
        theta=rng.uniform(0.5, 5.0),
        eta=rng.uniform(0.5, 5.0),
        phi=rng.uniform(0.5, 5.0),
        p=rng.uniform(0.1, 0.9),
    )
