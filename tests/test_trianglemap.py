import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicgaps.dynamics import (
    NOT_IN_IMAGE,
    tmap,
    tmap_inverse,
    tmap_spectrum_predict,
)
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (
    Multigraph,
    are_isomorphic,
    enumerate_cubic_multigraphs,
    is_bipartite,
    is_planar,
    named_graph,
    permute,
    spectrum,
)


def test_sizes_triple():
    for name in ("k4", "cube", "prism3", "theta_loop", "star_loops"):
        G = named_graph(name)
        T = tmap(G)
        assert T.n == 3 * G.n
        assert T.is_cubic
        assert T.is_connected()


def test_k4_gives_truncated_tetrahedron():
    T = tmap(named_graph("k4"))
    assert T.n == 12
    want = sorted([3, 2, 2, 2, 0, 0, -1, -1, -1, -2, -2, -2])
    assert np.allclose(spectrum(T), want, atol=1e-9)
    assert is_planar(T).planar
    assert not is_bipartite(T)


def test_planarity_preserved():
    for name in ("k4", "cube", "star_loops"):
        assert is_planar(tmap(named_graph(name))).planar
    # and non-planarity of the source does not magically vanish
    assert not is_planar(tmap(named_graph("k33"))).planar


def test_prediction_matches_direct_k4():
    pred = tmap_spectrum_predict(spectrum(named_graph("k4")))
    direct = spectrum(tmap(named_graph("k4")))
    assert np.allclose(pred, direct, atol=1e-9)


def test_spectral_law_full_enumeration_n8():
    for n in (2, 4, 6, 8):
        for G in enumerate_cubic_multigraphs(n):
            pred = tmap_spectrum_predict(spectrum(G))
            assert np.allclose(pred, spectrum(tmap(G)), atol=1e-9), G


@st.composite
def connected_cubic_multigraphs(draw):
    """A connected random pairing of the 3n half-edges of n <= 12
    vertices; loops and parallel edges allowed."""
    n = 2 * draw(st.integers(1, 6))
    halves = draw(st.permutations(range(3 * n)))
    G = Multigraph(n, [(halves[i] // 3, halves[i + 1] // 3)
                       for i in range(0, 3 * n, 2)])
    assume(G.is_connected())
    return G


@settings(max_examples=150, deadline=None)
@given(connected_cubic_multigraphs())
def test_spectral_law_on_random_multigraphs(G):
    assert np.abs(spectrum(tmap(G))
                  - tmap_spectrum_predict(spectrum(G))).max() < 1e-9


def test_loop_handling():
    # a loop turns into a doubled triangle side; spectra must still obey the law
    G = named_graph("star_loops")
    T = tmap(G)
    assert T.has_multi and not T.has_loops
    assert np.allclose(spectrum(T), tmap_spectrum_predict(spectrum(G)), atol=1e-9)


def test_predict_size_and_errors():
    assert tmap_spectrum_predict([3, -1]).size == 6
    with pytest.raises(BadInput):
        tmap_spectrum_predict([3.0])
    with pytest.raises(BadInput):
        tmap_spectrum_predict([-3.5, 3.0])


def test_non_cubic_rejected():
    with pytest.raises(BadInput):
        tmap(Multigraph(2, [(0, 1)]))


def test_round_trip_small():
    for name in ("k4", "cube", "prism3", "theta_loop", "star_loops"):
        G = named_graph(name)
        Z = tmap_inverse(tmap(G))
        assert Z is not NOT_IN_IMAGE
        assert are_isomorphic(Z, G)


def test_not_in_image_cases():
    assert tmap_inverse(named_graph("k4")) is NOT_IN_IMAGE    # 4 % 3 != 0
    assert tmap_inverse(named_graph("cube")) is NOT_IN_IMAGE  # no triangles, -3 in spectrum
    assert tmap_inverse(named_graph("k33")) is NOT_IN_IMAGE   # triangle-free
    assert not NOT_IN_IMAGE


def test_prism_is_image_of_triple_edge():
    Z = tmap_inverse(named_graph("prism3"))
    assert Z is not NOT_IN_IMAGE
    assert Z.n == 2 and Z.edges == ((0, 1), (0, 1), (0, 1))


def test_double_application():
    G = named_graph("theta_loop")
    T2 = tmap(tmap(G))
    assert T2.n == 9 * G.n
    Z = tmap_inverse(T2)
    assert are_isomorphic(Z, tmap(G))


def test_t5_k4_inverts_without_search():
    # 972 vertices, where the backtracking matcher is exponential
    X = named_graph("k4")
    for _ in range(4):
        X = tmap(X)
    p = list(range(3 * X.n))
    random.Random(5).shuffle(p)
    Z = tmap_inverse(permute(tmap(X), p))
    assert Z is not NOT_IN_IMAGE
    assert Z.n == 324 and Z.is_cubic
    assert np.allclose(spectrum(Z), spectrum(X))


def _has_triangle_partition(G):
    # brute force over sets of n/3 triangles, independent of the
    # backtracking partition inside tmap_inverse
    edges = {e for e in G.edges if e[0] != e[1]}
    triangles = [t for t in itertools.combinations(range(G.n), 3)
                 if all(e in edges for e in itertools.combinations(t, 2))]
    return any(len({v for t in pick for v in t}) == G.n
               for pick in itertools.combinations(triangles, G.n // 3))


@pytest.mark.parametrize("n", [6, 12])
def test_inverse_against_isomorphism_oracle(n):
    images = 0
    for G in enumerate_cubic_multigraphs(n):
        Z = tmap_inverse(G)
        assert (Z is not NOT_IN_IMAGE) == _has_triangle_partition(G), G
        if Z is not NOT_IN_IMAGE:
            assert are_isomorphic(tmap(Z), G), G
            images += 1
    # tmap is injective on classes, and every image class is enumerated
    assert images == len(enumerate_cubic_multigraphs(n // 3))


CELLS = [Z for n in (2, 4, 6, 8) for Z in enumerate_cubic_multigraphs(n)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_of_relabelled_image(data):
    Z = data.draw(st.sampled_from(CELLS))
    T = tmap(Z)
    p = data.draw(st.permutations(range(T.n)))
    back = tmap_inverse(permute(T, p))
    assert back is not NOT_IN_IMAGE
    assert are_isomorphic(back, Z)


def test_image_spectrum_lies_in_pullback_range():
    # eigenvalues of any tmap image lie in [-2, 0] u [1, 3] u {0, -2}
    for G in enumerate_cubic_multigraphs(6):
        s = spectrum(tmap(G))
        assert np.all(((-2 - 1e-9 <= s) & (s <= 1e-9))
                      | ((1 - 1e-9 <= s) & (s <= 3 + 1e-9)))


def test_t7_k4_inverts_past_the_recursion_limit():
    # 8748 vertices, 2916 triangles: more search levels than Python's
    # default recursion limit of 1000
    X = named_graph("k4")
    for _ in range(7):
        X = tmap(X)
    p = list(range(X.n))
    random.Random(7).shuffle(p)
    Z = permute(X, p)
    for _ in range(3):
        Z = tmap_inverse(Z)
        assert Z is not NOT_IN_IMAGE
    T4 = named_graph("k4")
    for _ in range(4):
        T4 = tmap(T4)
    assert Z.n == 324 and Z.is_cubic
    assert np.allclose(spectrum(Z), spectrum(T4))
