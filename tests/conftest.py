import numpy as np
import pytest
from hypothesis import settings

from looptile import codegen
from looptile.chain import Region
from looptile.distsim import check_exchange_tables
from looptile.executor import KernelRegistry
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.problems import FIG2, default_registry, global_setup

# every property test draws the same examples on every run, however slow
settings.register_profile("looptile", derandomize=True, deadline=None)
settings.load_profile("looptile")


@pytest.fixture(scope="session", autouse=True)
def private_c_cache(tmp_path_factory):
    """Compile generated C into a cache of the test session's own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen, "CACHE_DIR", str(tmp_path_factory.mktemp("c-cache")))
        yield


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


def numpy_registry():
    """The preset kernels without their C bodies: tiled runs take numpy steps."""
    c_registry = default_registry()
    registry = KernelRegistry()
    for kernel_id in ("edge_inc", "cell_inc", "edge_read", "cell_read"):
        registry.register(kernel_id, *c_registry.get(kernel_id))
    return registry


def region_of(space, element):
    """The region of one element of an iteration space."""
    if element < 0 or element >= space.total:
        raise IndexError(f"element {element} outside space {space.name!r}")
    if element < space.core_size:
        return Region.CORE
    if element < space.executable_size:
        return Region.BOUNDARY
    return Region.NONEXEC


def map_row(mesh_map, element):
    """The targets of one source element of a map."""
    return mesh_map.values[element * mesh_map.arity:(element + 1) * mesh_map.arity]


def sources_of(inverse, element):
    """The sources touching one target element of an inverse map."""
    return inverse.values[inverse.offsets[element]:inverse.offsets[element + 1]]


def halo_exchange(endpoints):
    """One synchronous exchange: every owner's values land in all halo copies."""
    check_exchange_tables(endpoints)
    for e in endpoints:
        e.begin()
    for e in endpoints:
        e.end()
