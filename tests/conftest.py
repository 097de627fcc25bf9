"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qclique.graphs import Graph

# The bundled HiGHS child as a backend command template.
HIGHS_BACKEND = f"{sys.executable} -m qclique.highs {{model}} {{solution}} {{timelimit}}"


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.build(n, edges)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    return Graph.build(n, chosen)


@pytest.fixture(autouse=True, scope="session")
def solver_children_import_this_tree():
    """Let `python -m qclique.highs` children import the package under test,
    as the test process does through the pytest pythonpath setting."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    with pytest.MonkeyPatch.context() as patch:
        if src not in paths:
            patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, *paths])))
        yield


@pytest.fixture
def triangle() -> Graph:
    return Graph.build(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3() -> Graph:
    return Graph.build(3, [(0, 1), (1, 2)])


def make_two_k4s() -> Graph:
    """Two K4s linked by a 3-vertex path: K4 on 0..3, K4 on 4..7, path 0-8-9-10-4."""
    edges = []
    for block in ((0, 1, 2, 3), (4, 5, 6, 7)):
        for a in range(4):
            for b in range(a + 1, 4):
                edges.append((block[a], block[b]))
    edges += [(0, 8), (8, 9), (9, 10), (4, 10)]
    return Graph.build(11, edges)


@pytest.fixture
def two_k4s() -> Graph:
    return make_two_k4s()


def polbooks_path() -> Path | None:
    """Locally supplied Polbooks file, if any."""
    env = os.environ.get("QCLIQUE_POLBOOKS")
    if env and Path(env).is_file():
        return Path(env)
    here = Path(__file__).parent / "data"
    for name in ("polbooks.mtx", "polbooks.txt", "polbooks"):
        candidate = here / name
        if candidate.is_file():
            return candidate
    return None


requires_polbooks = pytest.mark.skipif(
    polbooks_path() is None,
    reason=(
        "Polbooks instance not available: supply the MatrixMarket or edge-list "
        "file via QCLIQUE_POLBOOKS=/path/to/file or tests/data/polbooks.mtx "
        "(no network access in this environment to fetch it)"
    ),
)
