"""Fixtures shared across test modules."""

import pytest

from cubicgaps.covers import search_covers
from cubicgaps.graphcore import enumerate_cubic_multigraphs


@pytest.fixture(scope="session")
def small_cell_search():
    """Every row of the rank-2 search over all 4- and 6-vertex cells at
    N=256, the search behind criteria 3 and 9 and the shipped catalog.

    Run once per session.  The dedup key carries the cell size, so the
    rows of one size equal a search over the cells of that size alone
    (`test_search_orbits.py` checks this at N=64).  Rows are frozen; tests only
    read them.
    """
    seeds = (list(enumerate_cubic_multigraphs(4))
             + list(enumerate_cubic_multigraphs(6)))
    return search_covers(seeds, rank=2, two_link=True, N=256)
