import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest

from cubicgaps import cli
from cubicgaps.certifier import verify_certificate
from cubicgaps.certifier.exact import QuadExt
from cubicgaps.cli import default_catalog_path, fixture_path, main
from cubicgaps.graphcore import Multigraph


def run(*argv):
    return main([str(a) for a in argv])


def fx(name):
    return str(fixture_path(name))


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "g.json", "--seed", "1"),
        ("bands", "c.json", "--tolerance", "1e-3"),
        ("search", "--threshold", "0.1"),
    ])
    def test_options_nothing_reads_are_refused(self, argv):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)

    def test_tmap_keeps_its_tolerance(self):
        args = cli.build_parser().parse_args(
            ["tmap", "g.json", "--tolerance", "1e-3"])
        assert cli._config(args).tolerance == 1e-3


class TestSpectrum:
    def test_k4(self, tmp_path, capsys):
        assert run("spectrum", fx("k4.json"), "--out", tmp_path) == 0
        assert capsys.readouterr().out.strip() == "-1,-1,-1,3"
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[2] == "index,eigenvalue"
        assert [l.split(",")[1] for l in lines[3:]] == ["-1", "-1", "-1", "3"]

    def test_loop_star(self, tmp_path, capsys):
        assert run("spectrum", fx("star_loops.json"), "--out", tmp_path) == 0
        assert capsys.readouterr().out.strip() == "-1,2,2,3"

    def test_non_cubic_warns_but_computes(self, tmp_path, capsys):
        p = tmp_path / "square.json"
        Multigraph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3))).save(p)
        assert run("spectrum", p, "--out", tmp_path / "o") == 0
        err = capsys.readouterr().err
        assert "not cubic" in err

    def test_empty_edge_list_is_an_error(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text('{"n": 4, "edges": []}\n')
        assert run("spectrum", p, "--out", tmp_path / "o") == 4

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run("spectrum", p, "--out", tmp_path / "o") == 4

    def test_graph_too_large_for_memory_exits_4(self, tmp_path, capsys,
                                                 monkeypatch):
        # K4's edges on a million vertices: the dense matrix would need
        # 7.3 TiB, so allocating it raises MemoryError, simulated here
        def out_of_memory(self):
            raise MemoryError("simulated")

        monkeypatch.setattr(Multigraph, "adjacency", out_of_memory)
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"n": 1000000, "edges": [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
        assert run("spectrum", p, "--out", tmp_path / "o") == 4
        assert "n=1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"n": "x", "edges": [[0, 1]]}',
        '{"n": 2, "edges": [[0]]}',
    ], ids=["n", "edge"])
    def test_malformed_field_exits_4(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert run("spectrum", p, "--out", tmp_path / "o") == 4
        assert "malformed graph JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run("spectrum", tmp_path / "nope.json",
                   "--out", tmp_path / "o") == 4


class TestTmap:
    def test_k4_one_step(self, tmp_path, capsys):
        assert run("tmap", fx("k4.json"), "-k", 1, "--out", tmp_path) == 0
        assert "12 vertices" in capsys.readouterr().out
        doc = json.loads((tmp_path / "tmap_membership.json").read_text())
        assert doc["all_in_a"] is True
        assert doc["n"] == 12
        g = Multigraph.from_json(
            json.loads((tmp_path / "tmap_graph.json").read_text()))
        assert g.n == 12 and g.is_cubic

    def test_cube_one_step_has_preimages_of_minus3(self, tmp_path):
        assert run("tmap", fx("cube.json"), "-k", 1, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "tmap_membership.json").read_text())
        vals = [round(r["eigenvalue"], 6) for r in doc["rows"]]
        # f(0) = f(1) = -3, so both preimages must appear after one step.
        assert 0.0 in vals and 1.0 in vals
        assert doc["all_in_a"] is True

    def test_size_cap(self, tmp_path):
        assert run("tmap", fx("k4.json"), "-k", 6, "--out", tmp_path) == 4


class TestBands:
    def test_doubled_cycle_cover(self, tmp_path):
        assert run("bands", fx("doubled_cycle_cover.json"),
                   "--grid", 64, "--out", tmp_path) == 0
        lines = (tmp_path / "bands.csv").read_text().splitlines()
        assert lines[2] == "theta,band_0,band_1,band_2,band_3"
        assert len(lines) == 3 + 64
        gaps = json.loads((tmp_path / "gaps.json").read_text())["gaps"]
        assert any(abs(a + 1.0) < 1e-9 and abs(b - 1.0) < 1e-9
                   for a, b in gaps["intervals"])

    def test_prism_cover_three_gaps(self, tmp_path):
        assert run("bands", fx("prism_band_cover.json"),
                   "--grid", 256, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "gaps.json").read_text())
        got = doc["gaps"]["intervals"]
        s17 = math.sqrt(17.0)
        want = [(-3.0, -(1.0 + s17) / 2.0), (-2.0, 0.0),
                ((s17 - 1.0) / 2.0, 2.0)]
        assert len(got) == 3
        for (a, b), (wa, wb) in zip(got, want):
            assert a == pytest.approx(wa, abs=1e-6)
            assert b == pytest.approx(wb, abs=1e-6)

    def test_cover_without_offsets_exits_4(self, tmp_path, capsys):
        doc = json.loads(fixture_path("doubled_cycle_cover.json").read_text())
        del doc["offsets"]
        p = tmp_path / "no_offsets.json"
        p.write_text(json.dumps(doc))
        assert run("bands", p, "--out", tmp_path / "o") == 4
        assert "offsets" in capsys.readouterr().err

    def test_outputs_are_reproducible(self, tmp_path):
        assert run("bands", fx("prism_band_cover.json"), "--grid", 64,
                   "--out", tmp_path / "a") == 0
        assert run("bands", fx("prism_band_cover.json"), "--grid", 64,
                   "--out", tmp_path / "b") == 0
        for name in ("bands.csv", "gaps.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestSearch:
    def test_tiny_rank1_sweep(self, tmp_path):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(
            [json.loads(fixture_path("k4.json").read_text())]))
        assert run("search", "--seeds", seeds, "--rank", 1, "--grid", 32,
                   "--out", tmp_path / "o") == 0
        rows = [json.loads(l) for l in
                (tmp_path / "o" / "catalog.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            assert {"id", "base", "offsets", "spectrum",
                    "gaps", "flat_bands"} <= set(row)
        report = json.loads(
            (tmp_path / "o" / "search_report.json").read_text())
        assert report["entries"] == len(rows)
        assert report["partial"] is False
        assert report["meta"]["catalog_sha256"]

    def test_catalog_bytes_reproducible(self, tmp_path):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(
            [json.loads(fixture_path("k4.json").read_text())]))
        for sub in ("a", "b"):
            assert run("search", "--seeds", seeds, "--rank", 1,
                       "--grid", 32, "--out", tmp_path / sub) == 0
        assert (tmp_path / "a" / "catalog.jsonl").read_bytes() == \
            (tmp_path / "b" / "catalog.jsonl").read_bytes()
        assert (tmp_path / "a" / "search_report.json").read_bytes() == \
            (tmp_path / "b" / "search_report.json").read_bytes()

    def test_default_seed_outputs_are_pinned(self, tmp_path):
        # the 4-vertex seeds share two band pictures across seeds, so
        # these digests also pin the cross-seed dedup; they also pin the
        # cover-identity skip, the point-normalised dedup key and the
        # mirror rows that `bands` copies (83 rows, 13 planar)
        assert run("search", "--rank", 2, "--grid", 64,
                   "--out", tmp_path) == 0
        digests = {name: hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest()
            for name in ("catalog.jsonl", "search_report.json")}
        assert digests == {
            "catalog.jsonl": "02e97ff75feb117d04c859cebb1eddc6"
                             "b4e20a55c0daaa534f44438c41ee8ce7",
            "search_report.json": "696ab30629870c02f178abcbce7570fd"
                                  "d961a6a63ffcd9e65d4d2c31d3c426e5",
        }

    def test_half_loop_seed_exits_4(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        half = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1))
        seeds.write_text(json.dumps([half.to_json()]))
        assert run("search", "--seeds", seeds, "--rank", 1, "--grid", 32,
                   "--out", tmp_path / "o") == 4
        assert "seed 0 carries half-loops" in capsys.readouterr().err

    def test_interrupt_keeps_flushed_rows(self, tmp_path, monkeypatch):
        catalog = tmp_path / "catalog.jsonl"
        search = cli.iter_search_covers
        on_disk = []

        def one_row_then_interrupt(*args, **kwargs):
            yield next(search(*args, **kwargs))
            # the command asks for row 2 only after row 1 is on disk
            on_disk.append(catalog.read_text())
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "iter_search_covers", one_row_then_interrupt)
        assert run("search", "--rank", 1, "--grid", 32,
                   "--out", tmp_path) == 130
        assert len(on_disk) == 1 and len(on_disk[0].splitlines()) == 1
        assert catalog.read_text() == on_disk[0]
        report = json.loads((tmp_path / "search_report.json").read_text())
        assert report["partial"] is True and report["entries"] == 1


class TestQuotient:
    def test_doubled_cycle_ring(self, tmp_path):
        assert run("quotient", fx("doubled_cycle_cover.json"), "-n", 8,
                   "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "quotient_report.json").read_text())
        assert doc["n"] == 32
        assert all(not -1.0 + 1e-9 < v < 1.0 - 1e-9
                   for v in doc["spectrum"])

    def test_second_axis_on_rank_one_cover_is_refused(self, tmp_path, capsys):
        assert run("quotient", fx("doubled_cycle_cover.json"), "-n", 8,
                   "--n2", 3, "--out", tmp_path) == 4
        assert "--n2" in capsys.readouterr().err
        assert not (tmp_path / "quotient.json").exists()

    def test_torus_quotient(self, tmp_path):
        base = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        offsets = [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [0, 0]]
        cover = tmp_path / "k4_torus.json"
        cover.write_text(json.dumps({"base": base.to_json(), "rank": 2,
                                     "offsets": offsets, "name": "k4"}))
        assert run("quotient", cover, "-n", 3, "--n2", 2,
                   "--out", tmp_path / "o") == 0
        doc = json.loads((tmp_path / "o" / "quotient.json").read_text())
        assert doc["n"] == 24 and doc["name"] == "k4/T3x2"


class TestCertify:
    def test_doubled_cycle_gap(self, tmp_path, capsys):
        assert run("certify", "--target", "(-1,1)", "--out", tmp_path) == 0
        assert "certified" in capsys.readouterr().out
        doc = json.loads((tmp_path / "certificate.json").read_text())
        cert = verify_certificate(doc)
        assert [float(x) for x in cert.gap] == [-1.0, 1.0]

    def test_prism_gap_exact(self, tmp_path):
        assert run("certify", "--target", "(-2,0)", "--exact",
                   "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["touch_angle"] == "0"

    @pytest.mark.parametrize("argv,digest", [
        (("--target", "(-1,1)"),
         "a4eaa29c97efa444a64036f3fe023c4a121f8cbce9cdf582ef022fdda36f8b9b"),
        (("--target", "(-2,0)", "--exact"),
         "0484b0d54458ab3524fdeb52e356a23c6312b1a212fffe3133651750ae7a16b3"),
    ])
    def test_certificate_bytes_are_pinned(self, tmp_path, argv, digest):
        assert run("certify", *argv, "--out", tmp_path) == 0
        got = hashlib.sha256((tmp_path / "certificate.json").read_bytes())
        assert got.hexdigest() == digest

    def test_requested_gap_is_certified(self, tmp_path, capsys):
        # the prism cover's widest gap is (-2, 0); the certificate must
        # carry the gap that was asked for
        assert run("certify", "--target", "(1.5616,2)",
                   "--out", tmp_path) == 0
        assert "gap (1.56155281281, 2) certified" in capsys.readouterr().out
        cert = verify_certificate(
            json.loads((tmp_path / "certificate.json").read_text()))
        assert cert.gap == (QuadExt(-1, 1, 17), Fraction(2))
        assert float(cert.gap[0]) == pytest.approx((math.sqrt(17) - 1) / 2)

    def test_exact_compares_the_requested_gap(self, tmp_path):
        assert run("certify", "--target", "(1.5615528128,2)", "--exact",
                   "--out", tmp_path) == 0
        assert run("certify", "--target", "(1.5616,2)", "--exact",
                   "--out", tmp_path) == 2

    def test_target_missing_from_certified_gaps_refused(self, tmp_path,
                                                        monkeypatch):
        real = cli.certify_touchpoint
        monkeypatch.setattr(cli, "certify_touchpoint",
                            lambda *a: dataclasses.replace(real(*a), gaps=()))
        assert run("certify", "--target", "(-1,1)", "--out", tmp_path) == 2

    def test_unachievable_target_refused(self, tmp_path):
        assert run("certify", "--target", "(-2.5,0.5)",
                   "--out", tmp_path) == 2

    def test_bad_target_string(self, tmp_path):
        assert run("certify", "--target", "pi", "--out", tmp_path) == 4

    def test_missing_catalog_exits_4(self, tmp_path, capsys):
        assert run("certify", "--target", "(-1,1)", "--catalog",
                   tmp_path / "missing.jsonl", "--out", tmp_path / "o") == 4
        assert "cannot read catalog" in capsys.readouterr().err

    def test_catalog_row_without_base_exits_4(self, tmp_path, capsys):
        cat = tmp_path / "cat.jsonl"
        cat.write_text(json.dumps(
            {"id": "x", "gaps": [], "planar_quotients": True}) + "\n")
        assert run("certify", "--target", "(-1,1)", "--catalog", cat,
                   "--out", tmp_path / "o") == 4
        assert "no 'base' field" in capsys.readouterr().err

    @staticmethod
    def _catalog_with_bad_second_row(
            tmp_path, offsets=lambda rows: [["x"] for _ in rows]):
        lines = default_catalog_path().read_text().splitlines()
        bad = json.loads(lines[1])
        bad["offsets"] = offsets(bad["offsets"])
        cat = tmp_path / "cat.jsonl"
        cat.write_text(lines[0] + "\n" + json.dumps(bad) + "\n")
        return cat

    def test_catalog_covers_are_built_only_when_tried(self, tmp_path):
        # the doubled-cycle cover matches (-1, 1) before any catalog row
        cat = self._catalog_with_bad_second_row(tmp_path)
        assert run("certify", "--target", "(-1,1)", "--catalog", cat,
                   "--out", tmp_path / "o") == 0

    def test_malformed_catalog_row_is_refused_when_reached(self, tmp_path,
                                                            capsys):
        cat = self._catalog_with_bad_second_row(tmp_path)
        assert run("certify", "--target", "(-2.5,0.5)", "--catalog", cat,
                   "--out", tmp_path / "o") == 4
        assert "field 'offsets'" in capsys.readouterr().err

    def test_catalog_row_with_float_offsets_is_refused(self, tmp_path,
                                                       capsys):
        # offsets such as 1.0 were read as 1, and certify exited 0
        cat = self._catalog_with_bad_second_row(
            tmp_path, lambda rows: [[float(c) for c in row] for row in rows])
        assert run("certify", "--target", "(-2.5,0.5)", "--catalog", cat,
                   "--out", tmp_path / "o") == 4
        assert "field 'offsets'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "true", "[1, 2]"])
@pytest.mark.parametrize("argv", [
    ("bands", "COVER"),
    ("quotient", "COVER", "-n", 3),
    ("certify", "--target", "(-1,1)", "--cover", "COVER"),
], ids=["bands", "quotient", "certify"])
def test_cover_file_not_an_object_exits_4(tmp_path, capsys, argv, text):
    p = tmp_path / "c.json"
    p.write_text(text + "\n")
    argv = [p if a == "COVER" else a for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 4
    assert "not a periodic cover fixture" in capsys.readouterr().err


K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


# each document is a cubic graph once int() has truncated its numbers or
# dropped the extra edge entries, so only the strict parser refuses it
@pytest.mark.parametrize("doc, field", [
    ({"n": 4.7, "edges": K4_EDGES}, "n"),
    ({"n": True, "edges": [[0, 0]], "half_loops": [0]}, "n"),
    ({"n": 4, "edges": [[0, 1, 2]] + K4_EDGES[1:]}, "edges"),
    ({"n": 4, "edges": [[0, 1.5]] + K4_EDGES[1:]}, "edges"),
    ({"n": 2, "edges": [[0, 1], [0, 1]], "half_loops": [0, True]},
     "half_loops"),
], ids=["n-float", "n-bool", "edge-triple", "edge-float", "half-loop-bool"])
def test_graph_json_non_integer_exits_4(tmp_path, capsys, doc, field):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    assert run("spectrum", p, "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert f"malformed graph JSON field {field!r}" in err


def _doubled_cycle_with(**changes):
    doc = json.loads(fixture_path("doubled_cycle_cover.json").read_text())
    for key, value in changes.items():
        if key == "n":
            doc["base"]["n"] = value
        elif key == "offset":
            doc["offsets"][0] = value
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize("argv", [
    ("bands", "COVER"),
    ("quotient", "COVER", "-n", 3),
], ids=["bands", "quotient"])
@pytest.mark.parametrize("changes, field", [
    ({"offset": [0.6]}, "offsets"),
    ({"offset": [False]}, "offsets"),
    ({"rank": 1.9}, "rank"),
    ({"rank": True}, "rank"),
    ({"n": 4.0}, "base"),
], ids=["offset-float", "offset-bool", "rank-float", "rank-bool",
        "base-n-float"])
def test_cover_json_non_integer_exits_4(tmp_path, capsys, argv, changes,
                                        field):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_doubled_cycle_with(**changes)))
    argv = [p if a == "COVER" else a for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 4
    assert f"malformed cover JSON field {field!r}" in capsys.readouterr().err


class TestCapacity:
    def test_level_four(self, tmp_path):
        assert run("capacity", "--set", "level:4", "--points", 64,
                   "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "capacity.json").read_text())
        assert doc["estimate"] == pytest.approx(1.5 ** (1.0 / 16.0),
                                                abs=0.02)

    def test_full_interval(self, tmp_path):
        assert run("capacity", "--set", "full", "--points", 64,
                   "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "capacity.json").read_text())
        assert doc["estimate"] == pytest.approx(1.5, abs=0.02)

    def test_unknown_set(self, tmp_path):
        assert run("capacity", "--set", "julia", "--out", tmp_path) == 4


class TestWitness:
    def test_plan_from_shipped_catalog(self, tmp_path, capsys):
        assert run("witness", "--xi", -1.5, "--delta", 0.05,
                   "--out", tmp_path) == 0
        assert "k=0" in capsys.readouterr().out
        doc = json.loads((tmp_path / "witness_plan.json").read_text())
        assert doc["k"] == 0
        assert doc["route"] == "gap"
        assert doc["family_id"]
        assert doc["meta"]["catalog_sha256"]

    def test_realize(self, tmp_path):
        assert run("witness", "--xi", -1.5, "--delta", 0.05, "--realize",
                   "--decks", 8, "--out", tmp_path) == 0
        check = json.loads((tmp_path / "witness_check.json").read_text())
        assert check["min_distance_to_xi"] >= check["half_width"] - 1e-9
        g = Multigraph.from_json(
            json.loads((tmp_path / "witness_graph.json").read_text()))
        assert g.is_cubic

    def test_unplannable_point_is_numerical_failure(self, tmp_path):
        # A gapless catalog pins xi = -2 (a junk eigenvalue of every
        # pull-back step), so no depth can ever work.
        cat = tmp_path / "cat.jsonl"
        cat.write_text(json.dumps(
            {"id": "x", "gaps": {"intervals": [], "points": []},
             "planar_quotients": True}) + "\n")
        assert run("witness", "--xi", -2.0, "--delta", 0.05,
                   "--catalog", cat, "--out", tmp_path / "o") == 3

    def test_catalog_gaps_as_bare_list_exits_4(self, tmp_path, capsys):
        # a catalog row stores its gaps as an interval set object
        cat = tmp_path / "cat.jsonl"
        cat.write_text(json.dumps(
            {"id": "x", "gaps": [], "planar_quotients": True}) + "\n")
        assert run("witness", "--xi", -2.0, "--delta", 0.05,
                   "--catalog", cat, "--out", tmp_path / "o") == 4
        assert "not an object" in capsys.readouterr().err

    def test_bad_delta(self, tmp_path):
        assert run("witness", "--xi", 0.0, "--delta", -1.0,
                   "--out", tmp_path) == 4

    def test_missing_catalog_exits_4(self, tmp_path, capsys):
        assert run("witness", "--xi", -1.5, "--delta", 0.05, "--catalog",
                   tmp_path / "missing.jsonl", "--out", tmp_path / "o") == 4
        assert "cannot read catalog" in capsys.readouterr().err

    def test_catalog_row_without_gaps_exits_4(self, tmp_path, capsys):
        cat = tmp_path / "cat.jsonl"
        cat.write_text(json.dumps({"id": "x", "planar_quotients": True})
                       + "\n")
        assert run("witness", "--xi", -1.5, "--delta", 0.05,
                   "--catalog", cat, "--out", tmp_path / "o") == 4
        assert "no 'gaps' field" in capsys.readouterr().err

    def test_catalog_line_not_an_object_exits_4(self, tmp_path, capsys):
        cat = tmp_path / "cat.jsonl"
        cat.write_text("[1, 2]\n")
        assert run("witness", "--xi", -1.5, "--delta", 0.05,
                   "--catalog", cat, "--out", tmp_path / "o") == 4
        assert "catalog line 1 is not a JSON object" in \
            capsys.readouterr().err


class TestShippedCatalog:
    def test_present_and_well_formed(self):
        path = default_catalog_path()
        assert path.exists()
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(rows) >= 4
        planar = [r for r in rows if r.get("planar_quotients")]
        assert len(planar) >= 4
