import numpy as np
import pytest

from gtensor_tb import builtin_material_path, load_material
from gtensor_tb.brillouin import high_symmetry_point

from oracles import with_soc_scaled


@pytest.fixture(scope="session")
def si():
    return load_material(builtin_material_path("si"))


@pytest.fixture(scope="session")
def ge():
    return load_material(builtin_material_path("ge"))


@pytest.fixture(scope="session")
def gaas():
    return load_material(builtin_material_path("gaas"))


@pytest.fixture(scope="session")
def si_nosoc(si):
    return with_soc_scaled(si, 0.0)


def random_unit_vectors(seed, count):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def random_k_points(seed, count, scale=0.1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, 3))


def bitwise_k_points(model, seed, count=50, scale=0.6):
    """Gamma, X, L and ``count`` seeded k-points, for bitwise oracle tests."""
    named = [high_symmetry_point(name, model.lattice_constant)
             for name in ("G", "X", "L")]
    return [*named, *random_k_points(seed, count, scale)]


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import SCOREBOARD
    except ImportError:
        return
    if SCOREBOARD:
        terminalreporter.section("acceptance criteria")
        for line in SCOREBOARD:
            terminalreporter.write_line(line)
