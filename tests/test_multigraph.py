import json

import numpy as np
import pytest

from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (
    Multigraph,
    adjacency_matrix,
    are_isomorphic,
    diameter_and_geodesic,
    is_bipartite,
    named_graph,
    permute,
    spectrum,
)

K4 = named_graph("k4")
CUBE = named_graph("cube")


def test_adjacency_simple():
    A = adjacency_matrix(K4)
    assert A.dtype == np.int64
    assert A.sum() == 12
    assert np.all(A == A.T)
    assert np.all(np.diag(A) == 0)


def test_loop_counts_two_on_diagonal():
    G = Multigraph(2, [(0, 0), (0, 1), (1, 1)])
    A = adjacency_matrix(G)
    assert A[0, 0] == 2 and A[1, 1] == 2 and A[0, 1] == 1
    assert G.is_cubic
    # eigenvalues of [[2,1],[1,2]]
    assert np.allclose(spectrum(G), [1, 3])


def test_half_loop_counts_one():
    G = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1))
    A = adjacency_matrix(G)
    assert A[0, 0] == 1 and A[1, 1] == 1 and A[0, 1] == 2
    assert G.is_cubic
    assert np.allclose(spectrum(G), [-1, 3])


def test_parallel_edges_stack():
    G = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
    assert adjacency_matrix(G)[0, 1] == 3
    assert np.allclose(spectrum(G), [-3, 3])


def test_bad_vertex_rejected():
    with pytest.raises(BadInput):
        Multigraph(3, [(0, 5)])
    with pytest.raises(BadInput):
        Multigraph(0, [])


# frozen spectra; top eigenvalue of a connected cubic graph is always 3
SPECTRA = {
    "k4": [-1, -1, -1, 3],
    "cube": [-3, -1, -1, -1, 1, 1, 1, 3],
    "prism3": [-2, -2, 0, 0, 1, 3],
    "k33": [-3, 0, 0, 0, 0, 3],
    "theta_loop": [-2, -1, 2, 3],
    "star_loops": [-1, 2, 2, 3],
}


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_named_spectra(name):
    G = named_graph(name)
    assert G.is_cubic and G.is_connected()
    assert np.allclose(spectrum(G), SPECTRA[name], atol=1e-9)


def test_spectrum_in_cubic_range():
    for name in SPECTRA:
        s = spectrum(named_graph(name))
        assert s[0] >= -3 - 1e-12 and s[-1] <= 3 + 1e-12


def test_diameter_k4():
    d, path = diameter_and_geodesic(K4)
    assert d == 1
    assert len(path) == 2


def test_diameter_cube_geodesic_is_path():
    d, path = diameter_and_geodesic(CUBE)
    assert d == 3
    assert len(path) == d + 1
    nbrs = CUBE.neighbors()
    for a, b in zip(path, path[1:]):
        assert b in nbrs[a]
    assert len(set(path)) == len(path)


def test_diameter_disconnected_rejected():
    G = Multigraph(8, [(0, 1)] * 3 + [(2, 3)] * 3 + [(4, 5)] * 3 + [(6, 7)] * 3)
    with pytest.raises(BadInput):
        diameter_and_geodesic(G)


def test_bipartite():
    assert is_bipartite(CUBE)
    assert is_bipartite(named_graph("k33"))
    assert not is_bipartite(K4)
    assert not is_bipartite(named_graph("prism3"))
    # a loop is an odd closed walk
    assert not is_bipartite(named_graph("star_loops"))


def test_permute_preserves_spectrum_and_iso():
    perm = [2, 0, 3, 1, 7, 5, 4, 6]
    H = permute(CUBE, perm)
    assert np.allclose(spectrum(H), spectrum(CUBE))
    assert are_isomorphic(H, CUBE)


def test_non_isomorphic_pairs():
    assert not are_isomorphic(named_graph("prism3"), named_graph("k33"))
    assert not are_isomorphic(named_graph("theta_loop"), named_graph("star_loops"))

def test_json_round_trip(tmp_path):
    G = named_graph("theta_loop")
    p = tmp_path / "g.json"
    G.save(p)
    H = Multigraph.load(p)
    assert H == G
    data = json.loads(p.read_text())
    assert data["n"] == 4
    assert "edges" in data


def test_half_loops_survive_round_trip(tmp_path):
    G = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1), name="hl")
    p = tmp_path / "hl.json"
    G.save(p)
    assert Multigraph.load(p) == G


@pytest.mark.parametrize("where", ["adjacency", "eigensolve"])
def test_spectrum_out_of_memory_is_bad_input(monkeypatch, where):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("simulated")

    if where == "adjacency":
        monkeypatch.setattr(Multigraph, "adjacency", out_of_memory)
    else:
        monkeypatch.setattr(np.linalg, "eigvalsh", out_of_memory)
    with pytest.raises(BadInput, match="n=4 "):
        spectrum(K4)
