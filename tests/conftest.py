import numpy as np
import pytest

from stfr.analysis import _quadrature
from stfr.motion import motion_path


@pytest.fixture
def moving_path():
    """`motion_path`, checked to move some node of the mesh in its last
    step.  A gate for moving meshes that runs on a still one tests nothing
    a still mesh does not: the default `SineDeformation()` leaves every node
    of `rect_mesh(4, 4)` in place."""

    def build(presc, mesh, dt, n_steps):
        path = motion_path(presc, mesh, dt, n_steps)
        step = np.abs(path[-1] - path[-2]).max()
        assert step > 1e-4, f"{presc} moves no node in its last step"
        return path

    return build


@pytest.fixture
def mass():
    """The integral of the first variable of degree-ks nodal values
    (nE, nS, nV) over the mesh at coords, on the spatial quadrature of the
    error norms (ks + 2 Gauss points per direction)."""

    def integral(mesh, coords, ks, values):
        C = mesh.elem_corners(coords)
        w, interp, _, js, _ = _quadrature(ks, None, ks + 2, C,
                                          np.zeros_like(C))
        return float(np.einsum("q,eq->", w, js * (values[..., 0] @ interp.T)))

    return integral
