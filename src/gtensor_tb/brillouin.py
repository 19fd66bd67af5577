"""FCC Brillouin-zone geometry, direction sampling, and cubic point groups.

All wavevectors are Cartesian in Bohr^-1.  The first zone of the FCC
lattice is the truncated octahedron bounded by the bisector planes of
the eight (2pi/a)(+-1,+-1,+-1) and six (2pi/a)(+-2,0,0) reciprocal
vectors; a radial ray leaves it at the smallest |G|^2 / (2 n.G).
"""
from __future__ import annotations

import numpy as np

# high-symmetry points in units of 2pi/a (Cartesian)
HIGH_SYMMETRY_POINTS = {
    "G": (0.0, 0.0, 0.0),
    "X": (1.0, 0.0, 0.0),
    "L": (0.5, 0.5, 0.5),
    "K": (0.75, 0.75, 0.0),
    "W": (1.0, 0.5, 0.0),
    "U": (1.0, 0.25, 0.25),
}

# direction families (unnormalized); the names follow the usual
# Delta = Gamma-X, Sigma = Gamma-K, Lambda = Gamma-L convention
DIRECTION_FAMILIES = {
    "Delta": (1.0, 0.0, 0.0),
    "Sigma": (1.0, 1.0, 0.0),
    "Lambda": (1.0, 1.0, 1.0),
}

_POINT_ALIASES = {"GAMMA": "G"}


def reciprocal_basis(a: float) -> np.ndarray:
    """Primitive reciprocal vectors (rows) of the FCC lattice."""
    g = 2.0 * np.pi / a
    return g * np.array([
        [-1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0],
    ])


def zone_faces(a: float) -> np.ndarray:
    """The 14 reciprocal vectors whose bisector planes bound the zone."""
    g = 2.0 * np.pi / a
    hexes = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    squares = [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)]
    return g * np.array(hexes + squares, dtype=float)


def unit_direction(direction) -> np.ndarray:
    """``direction`` scaled to unit length.

    Raises ValueError unless it is three numbers with a finite, non-zero
    norm (an overflowing norm counts as not finite).
    """
    direction = np.asarray(direction, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(direction)
    if direction.shape != (3,) or not (norm > 0.0 and np.isfinite(norm)):
        raise ValueError("direction must be three finite numbers with a "
                         f"finite, non-zero norm, got {direction.tolist()}")
    return direction / norm


def boundary_radius(a: float, direction) -> float:
    """Distance from Gamma to the zone boundary along a direction."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    faces = zone_faces(a)
    proj = faces @ d
    mask = proj > 1e-12
    return float((0.5 * (faces[mask] ** 2).sum(axis=1) / proj[mask]).min())


def in_first_zone(a: float, k, tol: float = 1e-9) -> bool:
    """Whether k lies inside (or on) the first-zone polyhedron."""
    k = np.asarray(k, dtype=float)
    faces = zone_faces(a)
    return bool(np.all(faces @ k <= 0.5 * (faces ** 2).sum(axis=1) + tol))


def high_symmetry_point(name: str, a: float) -> np.ndarray:
    """Cartesian coordinates of a named point, in Bohr^-1."""
    key = _POINT_ALIASES.get(name.upper(), name.upper())
    try:
        frac = HIGH_SYMMETRY_POINTS[key]
    except KeyError:
        raise KeyError(
            f"unknown symmetry point {name!r}; known: "
            f"{sorted(HIGH_SYMMETRY_POINTS)}") from None
    return (2.0 * np.pi / a) * np.asarray(frac)


def named_direction(name: str) -> np.ndarray:
    """Unit vector of a direction family (Delta, Sigma, Lambda)."""
    for key, vec in DIRECTION_FAMILIES.items():
        if key.lower() == name.lower():
            v = np.asarray(vec)
            return v / np.linalg.norm(v)
    raise KeyError(f"unknown direction family {name!r}; "
                   f"known: {sorted(DIRECTION_FAMILIES)}")


def icosphere_directions(level: int) -> np.ndarray:
    """Quasi-uniform unit directions from icosahedron subdivision.

    Level L yields 10*4**L + 2 vertices (level 4: 2562).  Construction
    is fully deterministic, so identical configs sample identical rays.
    """
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.asarray(v, dtype=float) / np.linalg.norm(v) for v in verts]

    def midpoint(cache, i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(level):
        cache = {}
        new_faces = []
        for (i, j, k) in faces:
            ij = midpoint(cache, i, j)
            jk = midpoint(cache, j, k)
            ki = midpoint(cache, k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = new_faces
    return np.array(verts)


def cubic_group() -> np.ndarray:
    """The 48 signed-permutation matrices of O_h."""
    ops = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in np.ndindex(2, 2, 2):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = 1.0 - 2.0 * signs[row]
            ops.append(m)
    return np.array(ops)


def tetrahedral_group() -> np.ndarray:
    """The 24 operations of T_d: cubic operations fixing the bond set."""
    bonds = np.array([
        [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
    ])
    bond_set = {tuple(b) for b in bonds}
    keep = []
    for op in cubic_group():
        image = {tuple(np.rint(op @ b)) for b in bonds}
        if image == bond_set:
            keep.append(op)
    return np.array(keep)


def point_group_ops(name: str) -> np.ndarray:
    """Operations of a named point group ('Oh' or 'Td')."""
    if name == "Oh":
        return cubic_group()
    if name == "Td":
        return tetrahedral_group()
    raise KeyError(f"unknown point group {name!r}")


def wedge_representative(direction) -> np.ndarray:
    """Canonical image of a direction in the wedge x >= y >= z >= 0."""
    d = np.abs(np.asarray(direction, dtype=float))
    return np.sort(d)[::-1]


def wedge_directions(level: int) -> np.ndarray:
    """Unique wedge representatives of an icosphere direction set.

    Exploits the full cubic symmetry: scanning these and replicating by
    the 48 operations covers the same sphere at ~1/48 the ray count.
    Representatives equal to 9 decimals are merged; rows are
    lexicographically sorted for deterministic output.
    """
    reps = np.array([wedge_representative(d) for d in icosphere_directions(level)])
    reps = np.unique(np.round(reps, 9), axis=0)
    reps = reps / np.linalg.norm(reps, axis=1)[:, None]
    order = np.lexsort((reps[:, 2], reps[:, 1], reps[:, 0]))
    return reps[order]


def replicate_points(points: np.ndarray, ops: np.ndarray) -> tuple:
    """Closure of a point set under point-group operations.

    Returns (images, source): the distinct images, sorted
    lexicographically, and for each the index of the point it came
    from.  Signed-permutation images of equal points are bit-identical,
    so duplicates are dropped exactly; the first operation to produce
    an image names its source.
    """
    points = np.asarray(points, dtype=float)
    images = np.concatenate([points @ op.T for op in ops])
    images, first = np.unique(images, axis=0, return_index=True)
    return images, first % len(points)  # images are stacked op by op
