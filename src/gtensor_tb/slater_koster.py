"""Two-center Slater-Koster angular table for s, p, d and excited-s orbitals.

Orbital ordering within one atom is fixed package-wide:

    s, px, py, pz, dxy, dyz, dzx, dx2y2, dz2, s2      (sp3d5s* basis)
    s, px, py, pz                                     (sp3 basis)

``s2`` denotes the excited s* orbital.  Hopping integrals are keyed per
ordered species pair (from, to); integral names put the lower shell
first in the rank s < s2 < p < d (``sp_sigma`` couples s on the source
atom to p on the target atom), and d-d elements are tabulated in
``D_ORBITALS`` order.  Matrix elements for the reversed orbital order
follow from the two-center parity relation

    E_{ba}(l, m, n; V_from_to) = (-1)^{l_a + l_b} E_{ab}(l, m, n; V_to_from).
"""
from __future__ import annotations

import numpy as np

# basis name -> (orbitals, Slater-Koster integral keys)
BASES = {
    "sp3": (("s", "px", "py", "pz"),
            ("ss_sigma", "sp_sigma", "pp_sigma", "pp_pi")),
    "sp3d5s*": (("s", "px", "py", "pz",
                 "dxy", "dyz", "dzx", "dx2y2", "dz2", "s2"),
                ("ss_sigma", "sp_sigma", "sd_sigma", "ss2_sigma",
                 "pp_sigma", "pp_pi", "pd_sigma", "pd_pi",
                 "dd_sigma", "dd_pi", "dd_delta",
                 "s2p_sigma", "s2d_sigma", "s2s2_sigma")),
}

D_ORBITALS = ("dxy", "dyz", "dzx", "dx2y2", "dz2")

SHELL = {"s": "s", "px": "p", "py": "p", "pz": "p",
         "dxy": "d", "dyz": "d", "dzx": "d", "dx2y2": "d", "dz2": "d",
         "s2": "s2"}

# (-1)^l of each shell
PARITY = {"s": 1.0, "p": -1.0, "d": 1.0, "s2": 1.0}

_P_INDEX = {"px": 0, "py": 1, "pz": 2}


def _sd_angular(d_orb, l, m, n):
    # angular factor multiplying V(sd sigma)
    r3 = np.sqrt(3.0)
    if d_orb == "dxy":
        return r3 * l * m
    if d_orb == "dyz":
        return r3 * m * n
    if d_orb == "dzx":
        return r3 * n * l
    if d_orb == "dx2y2":
        return 0.5 * r3 * (l * l - m * m)
    return n * n - 0.5 * (l * l + m * m)   # dz2


def _pd_element(p_orb, d_orb, l, m, n, v_sigma, v_pi):
    r3 = np.sqrt(3.0)
    ll, mm, nn = l * l, m * m, n * n
    key = (p_orb, d_orb)
    if key == ("px", "dxy"):
        return r3 * ll * m * v_sigma + m * (1 - 2 * ll) * v_pi
    if key == ("px", "dyz"):
        return (r3 * v_sigma - 2 * v_pi) * l * m * n
    if key == ("px", "dzx"):
        return r3 * ll * n * v_sigma + n * (1 - 2 * ll) * v_pi
    if key == ("py", "dxy"):
        return r3 * mm * l * v_sigma + l * (1 - 2 * mm) * v_pi
    if key == ("py", "dyz"):
        return r3 * mm * n * v_sigma + n * (1 - 2 * mm) * v_pi
    if key == ("py", "dzx"):
        return (r3 * v_sigma - 2 * v_pi) * l * m * n
    if key == ("pz", "dxy"):
        return (r3 * v_sigma - 2 * v_pi) * l * m * n
    if key == ("pz", "dyz"):
        return r3 * nn * m * v_sigma + m * (1 - 2 * nn) * v_pi
    if key == ("pz", "dzx"):
        return r3 * nn * l * v_sigma + l * (1 - 2 * nn) * v_pi
    lm2 = ll - mm
    if key == ("px", "dx2y2"):
        return 0.5 * r3 * l * lm2 * v_sigma + l * (1 - lm2) * v_pi
    if key == ("py", "dx2y2"):
        return 0.5 * r3 * m * lm2 * v_sigma - m * (1 + lm2) * v_pi
    if key == ("pz", "dx2y2"):
        return 0.5 * r3 * n * lm2 * v_sigma - n * lm2 * v_pi
    z2 = nn - 0.5 * (ll + mm)
    if key == ("px", "dz2"):
        return l * z2 * v_sigma - r3 * l * nn * v_pi
    if key == ("py", "dz2"):
        return m * z2 * v_sigma - r3 * m * nn * v_pi
    if key == ("pz", "dz2"):
        return n * z2 * v_sigma + r3 * n * (ll + mm) * v_pi
    raise KeyError(key)


def _dd_element(a, b, l, m, n, vs, vp, vd):
    r3 = np.sqrt(3.0)
    ll, mm, nn = l * l, m * m, n * n
    lm2 = ll - mm
    z2 = nn - 0.5 * (ll + mm)
    key = (a, b)
    if key == ("dxy", "dxy"):
        return 3 * ll * mm * vs + (ll + mm - 4 * ll * mm) * vp + (nn + ll * mm) * vd
    if key == ("dyz", "dyz"):
        return 3 * mm * nn * vs + (mm + nn - 4 * mm * nn) * vp + (ll + mm * nn) * vd
    if key == ("dzx", "dzx"):
        return 3 * nn * ll * vs + (nn + ll - 4 * nn * ll) * vp + (mm + nn * ll) * vd
    if key == ("dxy", "dyz"):
        return 3 * l * mm * n * vs + l * n * (1 - 4 * mm) * vp + l * n * (mm - 1) * vd
    if key == ("dxy", "dzx"):
        return 3 * ll * m * n * vs + m * n * (1 - 4 * ll) * vp + m * n * (ll - 1) * vd
    if key == ("dyz", "dzx"):
        return 3 * m * nn * l * vs + m * l * (1 - 4 * nn) * vp + m * l * (nn - 1) * vd
    if key == ("dxy", "dx2y2"):
        return 1.5 * l * m * lm2 * vs + 2 * l * m * (-lm2) * vp + 0.5 * l * m * lm2 * vd
    if key == ("dyz", "dx2y2"):
        return 1.5 * m * n * lm2 * vs - m * n * (1 + 2 * lm2) * vp + m * n * (1 + 0.5 * lm2) * vd
    if key == ("dzx", "dx2y2"):
        return 1.5 * n * l * lm2 * vs + n * l * (1 - 2 * lm2) * vp - n * l * (1 - 0.5 * lm2) * vd
    if key == ("dxy", "dz2"):
        return r3 * l * m * z2 * vs - 2 * r3 * l * m * nn * vp + 0.5 * r3 * l * m * (1 + nn) * vd
    if key == ("dyz", "dz2"):
        return r3 * m * n * z2 * vs + r3 * m * n * (ll + mm - nn) * vp - 0.5 * r3 * m * n * (ll + mm) * vd
    if key == ("dzx", "dz2"):
        return r3 * l * n * z2 * vs + r3 * l * n * (ll + mm - nn) * vp - 0.5 * r3 * l * n * (ll + mm) * vd
    if key == ("dx2y2", "dx2y2"):
        return 0.75 * lm2 * lm2 * vs + (ll + mm - lm2 * lm2) * vp + (nn + 0.25 * lm2 * lm2) * vd
    if key == ("dx2y2", "dz2"):
        return 0.5 * r3 * lm2 * z2 * vs + r3 * nn * (-lm2) * vp + 0.25 * r3 * (1 + nn) * lm2 * vd
    if key == ("dz2", "dz2"):
        return z2 * z2 * vs + 3 * nn * (ll + mm) * vp + 0.75 * (ll + mm) ** 2 * vd
    raise KeyError(key)


def _canonical(orb_a, orb_b, l, m, n, v):
    # (orb_a, orb_b) is in the order of ``_order``: s or s2 rows, p-p, p-d, d-d
    sa, sb = SHELL[orb_a], SHELL[orb_b]
    if sa in ("s", "s2"):
        angular = 1.0
        if sb == "p":
            angular = (l, m, n)[_P_INDEX[orb_b]]
        elif sb == "d":
            angular = _sd_angular(orb_b, l, m, n)
        return angular * v[f"{sa}{sb}_sigma"]
    if sb == "p":
        ca = (l, m, n)[_P_INDEX[orb_a]]
        cb = (l, m, n)[_P_INDEX[orb_b]]
        diag = 1.0 if orb_a == orb_b else 0.0
        return ca * cb * v["pp_sigma"] + (diag - ca * cb) * v["pp_pi"]
    if sa == "p":
        return _pd_element(orb_a, orb_b, l, m, n, v["pd_sigma"], v["pd_pi"])
    return _dd_element(orb_a, orb_b, l, m, n,
                       v["dd_sigma"], v["dd_pi"], v["dd_delta"])


def _order(orb):
    # s < s2 < p < d; d orbitals among themselves in D_ORBITALS order
    shell = SHELL[orb]
    return (("s", "s2", "p", "d").index(shell),
            D_ORBITALS.index(orb) if shell == "d" else 0)


def sk_element(orb_a: str, orb_b: str, direction, v_ab: dict, v_ba: dict) -> float:
    """Hopping matrix element <orb_a, atom A | H | orb_b, atom B>.

    ``direction`` is the unit vector from atom A to atom B; ``v_ab`` and
    ``v_ba`` are the integral dictionaries of the two ordered species pairs.
    """
    l, m, n = direction
    if _order(orb_a) <= _order(orb_b):
        return _canonical(orb_a, orb_b, l, m, n, v_ab)
    return (PARITY[SHELL[orb_a]] * PARITY[SHELL[orb_b]]
            * _canonical(orb_b, orb_a, l, m, n, v_ba))


def hop_block(orbitals, direction, v_ab: dict, v_ba: dict) -> np.ndarray:
    """Full n_orb x n_orb hopping block from atom A to atom B."""
    n = len(orbitals)
    block = np.empty((n, n))
    for i, oa in enumerate(orbitals):
        for j, ob in enumerate(orbitals):
            block[i, j] = sk_element(oa, ob, direction, v_ab, v_ba)
    return block
