import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtensor_tb import boundary_radius, named_direction, wedge_directions
from gtensor_tb.brillouin import (cubic_group, high_symmetry_point,
                                  icosphere_directions, replicate_points,
                                  unique_rows, wedge_representative,
                                  zone_faces)
from gtensor_tb.errors import InputError

from conftest import random_unit_vectors
from oracles import in_first_zone, tetrahedral_group

A_SI = 10.2625  # Bohr, arbitrary but realistic


def test_zone_faces_count_and_norms():
    faces = zone_faces(A_SI)
    assert faces.shape == (14, 3)
    g = 2 * np.pi / A_SI
    norms = np.linalg.norm(faces, axis=1)
    assert np.sum(np.isclose(norms, g * np.sqrt(3))) == 8   # hexagonal
    assert np.sum(np.isclose(norms, 2 * g)) == 6            # square


def test_boundary_radii_against_textbook_values():
    a = A_SI
    g = 2 * np.pi / a
    assert boundary_radius(a, [1, 0, 0]) == pytest.approx(g, rel=1e-12)
    assert boundary_radius(a, [1, 1, 1]) == pytest.approx(
        g * np.sqrt(3) / 2, rel=1e-12)
    # Sigma exits through the square face beyond K, at 9/8 g * sqrt(2)/... :
    # the <110> exit is the U-related point at 3g/(2 sqrt 2)
    assert boundary_radius(a, [1, 1, 0]) == pytest.approx(
        3 * g / (2 * np.sqrt(2)), rel=1e-12)


@pytest.mark.parametrize("direction", [
    [0.0, 0.0, 0.0], [1e300, 1e300, 0.0], [float("nan"), 1.0, 0.0],
])
def test_boundary_radius_rejects_bad_direction(direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction"):
            boundary_radius(A_SI, direction)


def test_boundary_point_is_on_hull(si):
    a = si.lattice_constant
    for d in random_unit_vectors(3, 20):
        r = boundary_radius(a, d)
        assert in_first_zone(a, (r - 1e-9) * d)
        assert not in_first_zone(a, (r + 1e-6) * d)


def test_high_symmetry_points():
    a = A_SI
    g = 2 * np.pi / a
    assert np.allclose(high_symmetry_point("X", a), [g, 0, 0])
    assert np.allclose(high_symmetry_point("L", a), [g / 2] * 3)
    assert np.allclose(high_symmetry_point("GAMMA", a), 0.0)
    with pytest.raises(InputError, match="unknown symmetry point 'Q'"):
        high_symmetry_point("Q", a)
    # X and L sit exactly on the boundary
    assert boundary_radius(a, [1, 0, 0]) == pytest.approx(
        np.linalg.norm(high_symmetry_point("X", a)))
    assert boundary_radius(a, [1, 1, 1]) == pytest.approx(
        np.linalg.norm(high_symmetry_point("L", a)))


def test_named_directions():
    assert np.allclose(named_direction("delta"), [1, 0, 0])
    assert np.allclose(named_direction("Sigma"),
                       [1 / np.sqrt(2), 1 / np.sqrt(2), 0])
    assert np.allclose(named_direction("Lambda"), [1 / np.sqrt(3)] * 3)
    with pytest.raises(InputError, match="unknown direction family 'Theta'"):
        named_direction("Theta")


@pytest.mark.parametrize("level,count", [(0, 12), (1, 42), (2, 162), (4, 2562)])
def test_icosphere_counts(level, count):
    dirs = icosphere_directions(level)
    assert dirs.shape == (count, 3)
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12


def test_icosphere_deterministic_and_quasi_uniform():
    a = icosphere_directions(3)
    b = icosphere_directions(3)
    assert np.array_equal(a, b)
    # nearest-neighbour spacing varies by less than a factor of ~1.3
    dots = a @ a.T
    np.fill_diagonal(dots, -1.0)
    nearest = np.arccos(np.clip(dots.max(axis=1), -1, 1))
    assert nearest.max() / nearest.min() < 1.35


def test_cubic_group_is_a_group_of_48():
    ops = cubic_group()
    assert ops.shape == (48, 3, 3)
    dets = np.array([np.linalg.det(op) for op in ops])
    assert np.sum(np.isclose(dets, 1.0)) == 24
    assert np.sum(np.isclose(dets, -1.0)) == 24
    flat = {tuple(np.rint(op).astype(int).ravel()) for op in ops}
    assert len(flat) == 48
    # closure under composition
    for i in (0, 7, 23):
        for j in (1, 11, 40):
            prod = tuple(np.rint(ops[i] @ ops[j]).astype(int).ravel())
            assert prod in flat


def test_tetrahedral_group_is_subgroup_of_24():
    td = tetrahedral_group()
    assert td.shape == (24, 3, 3)
    oh = {tuple(np.rint(op).astype(int).ravel()) for op in cubic_group()}
    td_set = {tuple(np.rint(op).astype(int).ravel()) for op in td}
    assert td_set <= oh
    # contains improper elements (S4, sigma_d) but not plain inversion
    dets = np.array([np.linalg.det(op) for op in td])
    assert np.sum(np.isclose(dets, -1.0)) == 12
    assert tuple((-np.eye(3)).astype(int).ravel()) not in td_set


def test_wedge_representative_is_canonical():
    for d in random_unit_vectors(53, 20):
        rep = wedge_representative(d)
        assert rep[0] >= rep[1] >= rep[2] >= 0
        # some cubic image of d must equal the representative
        images = np.array([op @ d for op in cubic_group()])
        assert np.min(np.abs(images - rep).max(axis=1)) < 1e-12


def test_wedge_directions_cover_sphere_after_replication():
    level = 1
    wedge = wedge_directions(level)
    full = icosphere_directions(level)
    rebuilt, _ = replicate_points(wedge)
    reps_full = np.unique(
        np.round([wedge_representative(d) for d in full], 9), axis=0)
    assert len(wedge) == len(reps_full)
    # every original direction appears among the replicated set
    for d in full:
        assert np.min(np.abs(rebuilt - d).max(axis=1)) < 1e-8


def test_replicate_points_dedupes_and_sorts():
    ops = cubic_group()
    pts = np.array([[0.3, 0.2, 0.1]])
    cloud, source = replicate_points(pts)
    assert cloud.shape == (48, 3)
    assert np.array_equal(cloud, np.unique(cloud, axis=0))
    # every image is an exact group image of the point it names
    for image, s in zip(cloud, source):
        assert any(np.array_equal(image, op @ pts[s]) for op in ops)
    # on-axis point has a small orbit
    axis, _ = replicate_points(np.array([[0.25, 0.0, 0.0]]))
    assert axis.shape == (6, 3)
    # distinct points stay distinct, however close
    near = np.array([[0.3, 0.2, 0.1], [0.3 + 1e-7, 0.2, 0.1]])
    both, source = replicate_points(near)
    assert both.shape == (96, 3)
    assert np.array_equal(np.bincount(source), [48, 48])
    empty, source = replicate_points(np.zeros((0, 3)))
    assert empty.shape == (0, 3) and source.shape == (0,)


_OH = cubic_group()
# few distinct values, so that rows repeat; 0.0 and -0.0 are equal
_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                       st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _rows_with_repeats(draw):
    """Rows with exact repeats, signed zeros and O_h images, shuffled."""
    rows = draw(st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
                         max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
    for point in draw(st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
                               max_size=2)):
        ops = draw(st.lists(st.integers(0, 47), min_size=1, max_size=48))
        rows += [tuple(_OH[i] @ point) for i in ops]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=float).reshape(-1, 3)


@settings(max_examples=300, deadline=None)
@given(_rows_with_repeats())
def test_unique_rows_matches_numpy_unique(rows):
    have, first = unique_rows(rows)
    want, want_first = np.unique(rows, axis=0, return_index=True)
    assert have.tobytes() == want.tobytes()   # -0.0 and 0.0 bits included
    assert first.dtype == want_first.dtype
    assert np.array_equal(first, want_first)
