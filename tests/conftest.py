import numpy as np
import pytest

from looptile.executor import KernelRegistry
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.problems import FIG2, default_registry, global_setup


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture
def mesh_8x4():
    return rcm_renumber(generate_rect_mesh(8, 4))


def per_element_registry():
    """The preset kernels' per-element bodies, without their batch forms."""
    base = default_registry()
    registry = KernelRegistry()
    for kernel_id in ("edge_inc", "cell_inc", "edge_read", "cell_read"):
        registry.register(kernel_id, *base.get(kernel_id))
    return registry


def fresh_fig2(mesh, depth=3):
    """(chain, datasets, bindings) with pristine dataset values."""
    return global_setup(mesh, FIG2, depth)


def dataset_values(datasets):
    return {name: ds.values.copy() for name, ds in datasets.items()}


def assert_values_equal(expected, actual):
    for name in expected:
        np.testing.assert_array_equal(actual[name], expected[name], err_msg=name)
