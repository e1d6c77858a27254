"""Shared fixtures: built-in models and the random-instance pools."""

import pytest

from ffgap import _blas, models
from ffgap.criteria import SuiteConfig, verify_inequality_suite

ACCEPTANCE_SEED = 20260814


@pytest.fixture(scope="session")
def aklt_spec():
    return models.aklt()


@pytest.fixture(scope="session")
def singlet_spec():
    return models.singlet_chain()


@pytest.fixture(scope="session")
def commuting_cell_spec():
    return models.commuting_cell_2d()


@pytest.fixture(scope="session")
def random_chain_d2():
    """A random d=2 chain without boundary terms."""
    return models.random_ff(2, 1, 0, 424242, ff_check_depth=6)


@pytest.fixture(scope="session")
def random_chain_d3_boundary():
    """A random d=3 chain with rank-1 boundary projectors (distinct edges)."""
    return models.random_ff(3, 2, 1, 424243, ff_check_depth=6)


@pytest.fixture(scope="session")
def random_cells_2d():
    """Five random range-1 cells used by the coarse-graining checks."""
    return [models.random_cell_2d(2, 1, 5150 + i) for i in range(5)]


@pytest.fixture(scope="session")
def suite_report():
    """The full 20-instance inequality-suite report (shared across criteria)."""
    return verify_inequality_suite(ACCEPTANCE_SEED, 20, config=SuiteConfig())


@pytest.fixture
def pools():
    """The bundled OpenBLAS (setter, getter) pairs, all set to 2 threads, restored after."""
    pools = _blas._pools()
    if not pools:
        pytest.skip("no bundled OpenBLAS exports a thread setter")
    saved = [getter() for _, getter in pools]
    _blas.set_threads(2)
    yield pools
    for (setter, _), k in zip(pools, saved):
        setter(k)
