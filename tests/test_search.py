import json
import math

import numpy as np
import pytest
from search_oracle import _all_candidates

from cubicgaps.cli import default_catalog_path
from cubicgaps.covers import (SUBTORUS_DIRECTIONS, CatalogEntry, bands,
                              catalog_hash, coverage_report, cyclic_quotient,
                              entry_cover, load_catalog, periodic,
                              save_catalog, search, search_covers,
                              search_planar_covers, twisted_adjacency)
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import Multigraph, enumerate_cubic_multigraphs, named_graph, spectrum

SQRT17 = math.sqrt(17.0)


def _matches(entry, intervals, tol=1e-6):
    got = entry.report.spectrum_estimate.intervals
    if len(got) != len(intervals):
        return False
    return all(abs(g[k] - w[k]) < tol for g, w in zip(got, intervals)
               for k in (0, 1))


class TestDirections:
    def test_sixteen_coprime_directions(self):
        assert len(SUBTORUS_DIRECTIONS) == 16
        assert (0, 1) in SUBTORUS_DIRECTIONS
        assert (1, 1) in SUBTORUS_DIRECTIONS
        assert (1, -1) in SUBTORUS_DIRECTIONS
        for a, b in SUBTORUS_DIRECTIONS:
            assert math.gcd(abs(a), abs(b)) == 1
            assert max(abs(a), abs(b)) <= 3
            assert (a, b) > (0, 0) or a > 0

    def test_no_mirrored_duplicates(self):
        seen = set(SUBTORUS_DIRECTIONS)
        for a, b in SUBTORUS_DIRECTIONS:
            assert (-a, -b) not in seen


class TestRankOne:
    def test_single_edge_sweep_of_k4(self):
        cat = search_covers([named_graph("k4")], rank=1, two_link=False, N=64)
        assert cat
        for e in cat:
            assert e.subtorus is None
            assert sum(1 for o in e.offsets if o != (0,)) == 1
            assert e.cover.rank == 1

    def test_two_link_includes_relative_signs(self):
        cat = search_covers([named_graph("k4")], rank=1, two_link=True, N=64)
        signs = set()
        for e in cat:
            nz = [o[0] for o in e.offsets if o != (0,)]
            if len(nz) == 2:
                signs.add((nz[0], nz[1]))
        assert (1, 1) in signs
        assert (1, -1) in signs

    def test_seed_validation(self):
        square = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(BadInput):
            search_covers([square], rank=1, two_link=False, N=64)
        with pytest.raises(BadInput):
            search_covers([named_graph("k4")], rank=3, two_link=False, N=64)
        with pytest.raises(BadInput):
            search_covers([named_graph("k4")], rank=1, two_link=False, N=15)

    def test_half_loop_seed_is_refused_by_index(self):
        # require_cubic counts a half-loop as degree 1, so this seed is
        # cubic, but no cover of it exists; the sweep used to skip every
        # candidate and return no rows
        half = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1))
        with pytest.raises(BadInput, match="seed 1 carries half-loops"):
            search_covers([named_graph("k4"), half], rank=1, N=32)

    def test_disconnected_seed_is_refused_by_index(self):
        # two theta components: every cover of it is disconnected, so
        # the sweep used to skip every candidate and return no rows
        split = Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        assert split.is_cubic and not split.is_connected()
        with pytest.raises(BadInput, match="seed 1 is disconnected"):
            search_covers([named_graph("k4"), split], rank=1, N=32)


class TestRankTwoRediscovery:
    def test_four_vertex_seeds_find_two_band_cover(self):
        cat = search_covers(enumerate_cubic_multigraphs(4), rank=2,
                            two_link=True, N=64)
        hits = [e for e in cat if _matches(e, [(-3, -1), (1, 3)])]
        assert hits
        assert hits[0].report.gaps.intervals[0] == pytest.approx((-1.0, 1.0),
                                                                 abs=1e-6)

    def test_prism_seed_finds_three_band_cover(self):
        # needs the acceptance grid: at N = 64 the sampled slice bands
        # split spuriously (sample spacing ~0.1 exceeds the threshold)
        prism = named_graph("prism3")
        cat = search_covers([prism], rank=2, two_link=True, N=256)
        want = [(-(1 + SQRT17) / 2, -2.0), (0.0, (SQRT17 - 1) / 2), (2.0, 3.0)]
        hits = [e for e in cat if _matches(e, want)]
        assert hits
        e = hits[0]
        assert e.subtorus is not None
        assert not e.planar_quotients

    def test_entries_round_trip_to_covers(self):
        cat = search_covers([named_graph("k4")], rank=2, two_link=True, N=32)
        for e in cat[:10]:
            P = entry_cover(e.to_json())
            assert P.rank == e.cover.rank
            assert P.base.edges == e.cover.base.edges
            assert P.offsets == e.cover.offsets

    def test_deterministic_ids_and_order(self):
        seeds = enumerate_cubic_multigraphs(4)
        a = search_covers(seeds, rank=2, two_link=True, N=32)
        b = search_covers(seeds, rank=2, two_link=True, N=32)
        assert [e.entry_id for e in a] == [e.entry_id for e in b]

    def test_duplicates_collapsed(self):
        cat = search_covers(enumerate_cubic_multigraphs(4), rank=2,
                            two_link=True, N=32)
        keys = set()
        for e in cat:
            est = e.report.spectrum_estimate
            rounded = [(round(a, 6), round(b, 6)) for a, b in est.intervals]
            # an interval of rounded width 0 is solver noise around a point
            points = {round(p, 6) for p in est.points}
            points |= {a for a, b in rounded if a == b}
            key = (e.base.n,
                   tuple((a, b) for a, b in rounded if a != b),
                   tuple(sorted(points)),
                   tuple((round(v, 6), m) for v, m in e.report.flat_bands))
            assert key not in keys
            keys.add(key)


class TestCatalogIO:
    def test_save_load_round_trip(self, tmp_path):
        cat = search_covers([named_graph("k4")], rank=1, two_link=True, N=32)
        path = tmp_path / "catalog.jsonl"
        digest = save_catalog(cat, path)
        assert digest == catalog_hash(path)
        rows = load_catalog(path)
        assert len(rows) == len(cat)
        for row, e in zip(rows, cat):
            assert row["id"] == e.entry_id
            assert row["planar_quotients"] == e.planar_quotients
            assert set(row) == {"id", "base", "offsets", "subtorus",
                                "spectrum", "gaps", "flat_bands",
                                "planar_quotients"}

    def test_hash_changes_with_content(self, tmp_path):
        cat = search_covers([named_graph("k4")], rank=1, two_link=False, N=32)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_catalog(cat, p1)
        save_catalog(cat[:-1], p2)
        assert catalog_hash(p1) != catalog_hash(p2)

    def test_malformed_catalog_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "x"}\nnot json\n')
        with pytest.raises(BadInput):
            load_catalog(p)

    def test_loaded_rows_rebuild_sliced_covers(self, tmp_path):
        cat = search_covers([named_graph("prism3")], rank=2, two_link=True,
                            N=32)
        sliced = [e for e in cat if e.subtorus is not None][:5]
        path = tmp_path / "catalog.jsonl"
        save_catalog(sliced, path)
        for row in load_catalog(path):
            P = entry_cover(row)
            assert P.rank == 1


class TestQuotientBandInvariant:
    def test_cataloged_covers_match_roots_of_unity(self):
        cat = search_covers([named_graph("k4")], rank=1, two_link=True, N=32)
        for e in cat[:4]:
            P = e.cover
            for n in (2, 5, 12):
                direct = spectrum(cyclic_quotient(P, n))
                twisted = np.sort(np.concatenate([
                    np.linalg.eigvalsh(
                        twisted_adjacency(P, [np.exp(2j * np.pi * m / n)]))
                    for m in range(n)]))
                assert np.allclose(direct, twisted, atol=1e-9)


class TestPlanarSearch:
    def test_four_vertex_planar_subset(self):
        entries, checks = search_planar_covers(enumerate_cubic_multigraphs(4),
                                               N=64)
        assert len(entries) >= 4
        assert all(e.planar_quotients for e in entries)
        # spot-check the filter definition on one entry
        P = entries[0].cover
        from cubicgaps.graphcore import is_planar
        assert bool(is_planar(cyclic_quotient(P, 6)))
        assert checks["required"]["covered"] is True

    def test_search_never_builds_a_kuratowski_witness(self, monkeypatch):
        import networkx.algorithms.planarity as nxp

        def refuse(H):
            raise AssertionError("the search built a Kuratowski witness")

        monkeypatch.setattr(nxp, "get_counterexample", refuse)
        entries = search_covers(enumerate_cubic_multigraphs(4), N=64)
        # not even for the rank-1 rows it does not call planar
        assert any(e.cover.rank == 1 and not e.planar_quotients
                   for e in entries)

    def test_planarity_runs_once_per_seed_and_never_on_a_quotient(
            self, monkeypatch):
        calls = {"is_planar": 0, "cyclic_quotient": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(search, "is_planar",
                            counted("is_planar", search.is_planar))
        for module in (search, periodic):
            monkeypatch.setattr(module, "cyclic_quotient",
                                counted("cyclic_quotient",
                                        periodic.cyclic_quotient),
                                raising=False)
        seeds = enumerate_cubic_multigraphs(4)
        entries = search_covers(seeds, N=64)
        assert any(e.planar_quotients for e in entries)
        assert calls == {"is_planar": len(seeds), "cyclic_quotient": 0}

    def test_each_cover_is_eigensolved_once(self, monkeypatch):
        # `_candidates` yields only covers whose identity key is new
        # (the (1, 0) and (0, 1) slices of two pairs that share an edge
        # are one single-edge cover, for one), and each is solved once;
        # the unskipped sweep of the oracle solves more
        solved = []

        def counted(P, N):
            solved.append((P.base.n, P.base.edges, P.offsets, N))
            return bands(P, N)

        monkeypatch.setattr(search, "bands", counted)
        seeds = enumerate_cubic_multigraphs(4)
        assert search_covers(seeds, N=64)
        produced = sum(1 for seed in seeds
                       for _ in search._candidates(seed, 2, True, 64))
        unskipped = sum(1 for seed in seeds
                        for _ in _all_candidates(seed, 2, True, 64))
        assert len(solved) == len(set(solved)) == produced < unskipped

    def test_regenerated_catalog_is_byte_identical(self, tmp_path,
                                                   small_cell_search):
        entries = [e for e in small_cell_search if e.planar_quotients]
        save_catalog(entries, tmp_path / "catalog.jsonl")
        assert (tmp_path / "catalog.jsonl").read_bytes() == \
            default_catalog_path().read_bytes()

    def test_coverage_report_reach(self):
        entries, checks = search_planar_covers(enumerate_cubic_multigraphs(4),
                                               N=64)
        rep = checks["stretch"]
        assert rep["reach_from_minus3"] >= 2.0
        assert "union" in rep

    def test_coverage_report_detects_holes(self):
        cat = search_covers([named_graph("k4")], rank=1, two_link=False, N=32)
        rep = coverage_report(cat, -3.0, 3.0, 0.01)
        assert rep["covered"] is False
        assert rep["missing_points"]
