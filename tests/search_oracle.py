"""Test-only oracle: the cover search without the automorphism-orbit skip.

`oracle_search_covers` tries every edge choice of every seed, as the
search did before it learned to skip relabelled copies, and dedups with
the library's `_dedup_key`.  It decides quotient planarity as the
search once did, by one left-right test on each cyclic quotient C3..C8
(`oracle_planar_quotients`, which also asks each ring to be connected),
not from derived embeddings.  The tests
compare its rows byte for byte with `iter_search_covers`, which also
holds the search's exact planarity to the C3..C8 test.  `brute_orbit_firsts` decides the orbit skip
from scratch: it relabels the redirected links under every vertex
permutation that `is_automorphism` accepts.
"""

from __future__ import annotations

import itertools

from cubicgaps.covers import (PeriodicGraph, bands, cyclic_quotient,
                              gap_report, restrict_subtorus)
from cubicgaps.covers.quotients import is_automorphism
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


def _links(seed, choice):
    """The redirected links of a choice as (u, v, offset) triples; the
    offset is None when its sign does not matter."""
    edges, sign = choice
    offs = (1, sign) if sign is not None else (None, None)
    return [(*seed.edges[j], o) for j, o in zip(edges, offs)]


def _normal(links):
    """Links up to orientation, loop direction and global conjugation."""
    def orient(u, v, o):
        if u > v:
            u, v, o = v, u, (None if o is None else -o)
        if u == v and o is not None:
            o = abs(o)
        return (u, v, o)

    forms = []
    for flip in (1, -1):
        forms.append(tuple(sorted(
            orient(u, v, None if o is None else flip * o)
            for u, v, o in links)))
    return min(forms, key=repr)


def brute_orbit_firsts(seed, choices):
    """The choices that no earlier choice maps to under a vertex
    automorphism, found over all n! permutations."""
    autos = [p for p in itertools.permutations(range(seed.n))
             if is_automorphism(seed, p)]
    kept, kept_forms = [], set()
    for choice in choices:
        links = _links(seed, choice)
        forms = {_normal([(p[u], p[v], o) for u, v, o in links])
                 for p in autos}
        if forms & kept_forms:
            continue
        kept.append(choice)
        kept_forms |= forms
    return kept
