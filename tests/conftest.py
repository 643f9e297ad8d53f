import numpy as np
import pytest
from scipy import sparse

import vexlab as vx


@pytest.fixture(scope="session")
def interval():
    return vx.Domain.interval(0.0, 1.0)


@pytest.fixture(scope="session")
def interval_mesh(interval):
    return vx.build_mesh(interval, 0.02)


@pytest.fixture(scope="session")
def fine_interval_mesh(interval):
    return vx.build_mesh(interval, 0.005)


@pytest.fixture(scope="session")
def unit_square():
    return vx.Domain.polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture(scope="session")
def square_mesh(unit_square):
    return vx.build_mesh(unit_square, 0.15)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def coo_assembly():
    """The reference fem._assemble must match bit for bit: per-cell (nv, nv)
    blocks summed COO -> CSR over all nodes, sliced to the sorted nodes free
    and turned to CSC."""
    def assemble(mesh, elem, free):
        nv = mesh.cells.shape[1]
        rows = np.repeat(mesh.cells, nv, axis=1).ravel()
        cols = np.tile(mesh.cells, (1, nv)).ravel()
        n = mesh.nnodes
        full = sparse.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        return full[free][:, free].tocsc()

    return assemble
