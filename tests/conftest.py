import numpy as np
import pytest

from pseudoboson import (
    make_riesz_map,
    make_space,
    projector_map,
    random_riesz_map,
)


@pytest.fixture(scope="session")
def space64():
    return make_space(64)


@pytest.fixture(scope="session")
def identity_map64(space64):
    return make_riesz_map(space64, np.eye(0))


@pytest.fixture(scope="session")
def projector_map64(space64):
    return projector_map(space64, space64.basis_vector(0))


@pytest.fixture(scope="session")
def random_map64(space64):
    return random_riesz_map(space64, 10.0, seed=0)


@pytest.fixture(scope="session")
def random_maps64(space64):
    """Five seeded random maps with cond = 10 at dim 64."""
    return [random_riesz_map(space64, 10.0, seed=s) for s in range(5)]


@pytest.fixture(scope="session")
def all_maps64(identity_map64, projector_map64, random_maps64):
    """Identity, projector, and five random maps: the standard map set."""
    return [identity_map64, projector_map64] + list(random_maps64)


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
