"""Test-only oracle: the cover search without the cover-identity skip.

`oracle_search_covers` tries every edge choice of every seed, as the
search did before it learned to skip isomorphic copies, and dedups with
the library's `_dedup_key`.  It decides quotient planarity as the
search once did, by one left-right test on each cyclic quotient C3..C8
(`oracle_planar_quotients`, which also asks each ring to be connected),
not from derived embeddings.  The tests compare its rows byte for byte
with `iter_search_covers`, which also holds the search's exact
planarity to the C3..C8 test.
"""

from __future__ import annotations

from cubicgaps.covers import (PeriodicGraph, bands, cyclic_quotient,
                              gap_report, restrict_subtorus)
from cubicgaps.covers.search import (SUBTORUS_DIRECTIONS, CatalogEntry,
                                     _dedup_key, _entry_id, _offsets_for)
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import is_planar


def oracle_planar_quotients(P):
    """A rank-1 cover whose cyclic quotients C3..C8 are all connected
    and pass `is_planar`.

    A derived embedding proves every ring connected as well as planar,
    so the oracle asks both; `PeriodicGraph` refuses every disconnected
    cover, so no ring here is a union of planar rings."""
    if P.rank != 1:
        return False
    rings = (cyclic_quotient(P, n) for n in range(3, 9))
    return all(Q.is_connected() and bool(is_planar(Q)) for Q in rings)


def _all_candidates(seed, rank, two_link, N):
    m = len(seed.edges)
    if rank == 1:
        assignments = [{j: (1,)} for j in range(m)]
        if two_link:
            assignments += [{j: (1,), k: (s,)} for j in range(m)
                            for k in range(j + 1, m) for s in (1, -1)]
        for assignment in assignments:
            offs = _offsets_for(m, assignment, 1)
            try:
                P = PeriodicGraph(seed, 1, offs, name=seed.name)
            except BadInput:
                continue
            yield offs, None, P, N
        return
    N2 = max(32, N // 4)
    if N2 % 2:
        N2 += 1
    for j in range(m):
        for k in range(j + 1, m):
            offs = _offsets_for(m, {j: (1, 0), k: (0, 1)}, 2)
            try:
                P2 = PeriodicGraph(seed, 2, offs, name=seed.name)
            except BadInput:
                continue
            yield offs, None, P2, N2
            for a, b in SUBTORUS_DIRECTIONS:
                yield offs, (a, b), restrict_subtorus(P2, a, b), N


def oracle_search_covers(seeds, rank=2, two_link=True, N=256):
    """The rows of the unskipped sweep, as a list of CatalogEntry."""
    seen = set()
    out = []
    for seed in seeds:
        for offs, subtorus, cover, grid in _all_candidates(seed, rank,
                                                           two_link, N):
            report = gap_report(bands(cover, grid))
            key = _dedup_key(seed.n, report)
            if key in seen:
                continue
            seen.add(key)
            out.append(CatalogEntry(
                entry_id=_entry_id(seed, offs, subtorus),
                cover=cover, base=seed, offsets=tuple(offs),
                subtorus=subtorus, report=report,
                planar_quotients=oracle_planar_quotients(cover)))
    return out

