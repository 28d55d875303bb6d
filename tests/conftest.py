import numpy as np
import pytest

from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.problems import FIG2, default_registry, global_setup


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture
def mesh_8x4():
    return rcm_renumber(generate_rect_mesh(8, 4))


def fresh_fig2(mesh, depth=3):
    """(chain, datasets, bindings) with pristine dataset values."""
    return global_setup(mesh, FIG2, depth)


def dataset_values(datasets):
    return {name: ds.values.copy() for name, ds in datasets.items()}


def assert_values_equal(expected, actual):
    for name in expected:
        np.testing.assert_array_equal(actual[name], expected[name], err_msg=name)
