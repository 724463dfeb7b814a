import numpy as np

import pytest

from gptkit.geometry import cone_extreme_rays, polytope_vertices
from gptkit.lp import DEDUP_TOL

from .conftest import polygon


def normalize_rows(rows):
    rows = np.asarray(rows, dtype=float)
    return sorted(tuple(np.round(r / np.abs(r).max(), 9)) for r in rows)


def test_orthant_rays():
    rays = cone_extreme_rays(np.eye(3))
    assert normalize_rows(rays) == normalize_rows(np.eye(3))


def test_ice_cream_cross_section():
    # {x : x3 >= |x1|, x3 >= |x2|} has 4 extreme rays
    a = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                  [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    rays = cone_extreme_rays(a)
    want = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                     [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    assert normalize_rows(rays) == normalize_rows(want)


def test_polytope_vertices_square():
    # the square |x| <= 1, |y| <= 1 as slices of a cone at z = 1
    ineqs = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    u = np.array([0.0, 0.0, 1.0])
    verts = polytope_vertices(ineqs, u)
    want = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                     [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    assert normalize_rows(verts) == normalize_rows(want)


def test_dual_of_simplex_cone():
    rays = cone_extreme_rays(np.eye(3))
    assert normalize_rows(rays) == normalize_rows(np.eye(3))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_dual_of_polygon_has_one_ray_per_edge(n):
    # a repeated vertex and an edge midpoint add rows but no rays, and no
    # double-description step makes the same ray twice
    verts = polygon(n).vertices
    rows = np.vstack([verts, verts[:1], (verts[1] + verts[2]) / 2])
    rays = cone_extreme_rays(rows)
    assert rays.shape == (n, 3)
    gaps = np.abs(rays[:, None] - rays[None]).max(axis=2)
    assert gaps[~np.eye(n, dtype=bool)].min() > DEDUP_TOL
    # each ray is tight on the two ends of one edge
    tight = np.abs(rays @ verts.T) <= 1e-9
    assert (tight.sum(axis=1) == 2).all()


def test_redundant_inequalities_ignored():
    ineqs = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0], [0.0, -1.0, 1.0],
                      [1.0, 1.0, 3.0]])  # slack everywhere on the square
    u = np.array([0.0, 0.0, 1.0])
    verts = polytope_vertices(ineqs, u)
    assert len(verts) == 4
