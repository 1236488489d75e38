import numpy as np
import pytest

from cubicgaps.covers import (cyclic_quotient, doubled_cycle_cover,
                              doubled_cycle_ring, folded_doubled_cycle_ring,
                              folded_prism_ring, folded_ring, is_automorphism,
                              prism_band_cover, prism_ring,
                              quotient_by_involution, ring_reflection)
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (Multigraph, are_isomorphic, is_planar,
                                 named_graph, spectrum)


def quotient_adjacency_by_row_sums(G, sigma):
    """Independent oracle: compress the adjacency matrix to orbit space
    by summing each row of the representative over the target orbit
    {w, sigma w}.  With a free action this is exactly the quotient's
    adjacency."""
    orbit_of = {}
    reps = []
    for v in range(G.n):
        if v in orbit_of:
            continue
        idx = len(reps)
        reps.append(v)
        orbit_of[v] = orbit_of[sigma[v]] = idx
    A = G.adjacency()
    k = len(reps)
    Q = np.zeros((k, k), dtype=np.int64)
    for a, r in enumerate(reps):
        for w in range(G.n):
            Q[a, orbit_of[w]] += A[r, w]
    return Q


class TestAutomorphisms:
    def test_rotation_of_k4(self):
        G = named_graph("k4")
        assert is_automorphism(G, (1, 2, 3, 0))
        assert is_automorphism(G, (0, 1, 2, 3))

    def test_non_automorphism(self):
        G = named_graph("theta_loop")
        # swapping a loop vertex with a plain vertex cannot preserve edges
        assert not is_automorphism(G, (1, 0, 2, 3))

    def test_not_a_permutation(self):
        assert not is_automorphism(named_graph("k4"), (0, 0, 1, 2))


class TestQuotientByAutomorphism:
    def test_rejects_non_automorphism(self):
        with pytest.raises(BadInput):
            quotient_by_involution(named_graph("theta_loop"), (1, 0, 2, 3))

    def test_rejects_non_free_action(self):
        # transposition fixing two vertices of K4
        with pytest.raises(BadInput):
            quotient_by_involution(named_graph("k4"), (1, 0, 2, 3))

    def test_rejects_free_automorphism_of_order_four(self):
        # the 4-cycle rotation of K4 is free but not an involution
        assert is_automorphism(named_graph("k4"), (1, 2, 3, 0))
        with pytest.raises(BadInput, match="involution"):
            quotient_by_involution(named_graph("k4"), (1, 2, 3, 0))

    def test_k4_by_double_transposition(self):
        G = named_graph("k4")
        Q = quotient_by_involution(G, (1, 0, 3, 2))
        # orbits {0,1} and {2,3}: the orbit pair edge (0,1) swaps, so a
        # half-loop; the four cross edges give a doubled quotient edge
        assert Q.n == 2
        assert Q.half_loops == (0, 1)
        assert Q.edges == ((0, 1), (0, 1))
        assert Q.is_cubic

    def test_structural_rule_matches_row_sum_oracle(self):
        cases = []
        G = named_graph("k4")
        cases.append((G, (1, 0, 3, 2)))
        rot = ring_reflection(doubled_cycle_cover(), 2, (3, 2, 1, 0), 1)
        cases.append((cyclic_quotient(doubled_cycle_cover(), 2), rot))
        for n in (2, 3, 4):
            Q = cyclic_quotient(doubled_cycle_cover(), 2 * n)
            cases.append((Q, ring_reflection(doubled_cycle_cover(), 2 * n,
                                             (3, 2, 1, 0), 1)))
        for parent, sigma in cases:
            folded = quotient_by_involution(parent, sigma)
            assert np.array_equal(
                folded.adjacency(),
                quotient_adjacency_by_row_sums(parent, sigma))

    def test_quotient_spectrum_inside_parent(self):
        for n in (2, 3, 5):
            parent = cyclic_quotient(doubled_cycle_cover(), 2 * n)
            sigma = ring_reflection(doubled_cycle_cover(), 2 * n, (3, 2, 1, 0), 1)
            Q = quotient_by_involution(parent, sigma)
            sp, sq = spectrum(parent), spectrum(Q)
            for lam in sq:
                assert np.min(np.abs(sp - lam)) < 1e-9

    def test_loops_descend_to_loops(self):
        # two star_loops glued by an involution: use the ring of the
        # 2-vertex wrapped-loop cell instead, whose quotients keep loops
        from cubicgaps.covers import PeriodicGraph
        P = PeriodicGraph.from_links(2, [(0, 0, 1), (0, 1, 0), (1, 1, 1)])
        R = cyclic_quotient(P, 4)
        sigma = ring_reflection(P, 4, (1, 0), 1)
        assert is_automorphism(R, sigma)
        Q = quotient_by_involution(R, sigma)
        assert Q.is_cubic
        assert np.array_equal(Q.adjacency(),
                              quotient_adjacency_by_row_sums(R, sigma))

    def test_half_loops_descend(self):
        base = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1))
        sigma = (1, 0)
        assert is_automorphism(base, sigma)
        Q = quotient_by_involution(base, sigma)
        # both parallel in-orbit edges are swapped by sigma and fold to
        # half-loops, joining the descended one: three in total, cubic
        assert Q.n == 1
        assert Q.half_loops == (0, 0, 0)
        assert Q.edges == ()
        assert Q.is_cubic


class TestFoldedFamilies:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_folded_doubled_cycle_ring(self, n):
        F = folded_doubled_cycle_ring(n)
        assert F.n == 4 * n
        assert F.half_loops == ()
        assert all(u != v for u, v in F.edges)
        assert bool(is_planar(F))
        vals = spectrum(F)
        assert not np.any((vals > -1 + 1e-9) & (vals < 1 - 1e-9))
        parent = spectrum(doubled_cycle_ring(2 * n))
        for lam in vals:
            assert np.min(np.abs(parent - lam)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_folded_prism_ring(self, n):
        F = folded_prism_ring(n)
        assert F.n == 6 * n
        assert len(F.half_loops) == 2
        assert bool(is_planar(F))
        parent = spectrum(prism_ring(2 * n))
        for lam in spectrum(F):
            assert np.min(np.abs(parent - lam)) < 1e-9

    def test_prism_fold_keeps_all_three_gaps(self):
        vals = spectrum(folded_prism_ring(4))
        for a, b in ((-2.9, -2.58), (-1.95, -0.05), (1.6, 1.95)):
            assert not np.any((vals > a) & (vals < b))

    def test_single_involution_folds_never_make_full_loops(self):
        # an edge with both ends in one orbit of an order-2 group always
        # has its ends swapped by the involution, so only half-loops can
        # appear
        for n in (2, 3, 4):
            F = folded_prism_ring(n)
            assert all(u != v for u, v in F.edges)
            G = folded_doubled_cycle_ring(n)
            assert all(u != v for u, v in G.edges)

    def test_fold_rejects_bad_reflection(self):
        # reflection without the deck shifts is not an automorphism of
        # the prism ring
        with pytest.raises(BadInput):
            folded_ring(prism_band_cover(), 4, (4, 5, 3, 2, 0, 1), 1)


class TestRingReflectionShape:
    def test_reflection_is_involution(self):
        sigma = ring_reflection(doubled_cycle_cover(), 6, (3, 2, 1, 0), 1)
        n = len(sigma)
        assert sorted(sigma) == list(range(n))
        assert all(sigma[sigma[v]] == v for v in range(n))

    def test_reflection_images_are_pinned(self):
        plain = ring_reflection(doubled_cycle_cover(), 3, (3, 2, 1, 0), 1)
        assert plain == (7, 6, 5, 4, 3, 2, 1, 0, 11, 10, 9, 8)
        assert ring_reflection(doubled_cycle_cover(), 3, (3, 2, 1, 0), 1,
                               shifts=(0, 0, 0, 0)) == plain
        shifted = ring_reflection(prism_band_cover(), 4, (4, 5, 3, 2, 0, 1),
                                  1, shifts=(0, 0, 1, 1, 0, 0))
        assert shifted == (10, 11, 15, 14, 6, 7, 4, 5, 9, 8, 0, 1,
                           22, 23, 3, 2, 18, 19, 16, 17, 21, 20, 12, 13)

    def test_shifted_reflection_is_free_involutive_automorphism(self):
        # the prism ring reverses its links only after the deck shifts
        rho, shifts = (4, 5, 3, 2, 0, 1), (0, 0, 1, 1, 0, 0)
        for decks in (4, 6):
            R = cyclic_quotient(prism_band_cover(), decks)
            sigma = ring_reflection(prism_band_cover(), decks, rho, 1,
                                    shifts=shifts)
            assert is_automorphism(R, sigma)
            assert all(sigma[sigma[v]] == v != sigma[v] for v in range(R.n))
            assert not is_automorphism(
                R, ring_reflection(prism_band_cover(), decks, rho, 1))

    def test_two_cell_fold_of_cube(self):
        # the cube is the 2-cell ring; folding it halves to 4 vertices
        R = cyclic_quotient(doubled_cycle_cover(), 2)
        assert are_isomorphic(R, named_graph("cube"))
        F = folded_doubled_cycle_ring(1)
        assert F.n == 4
        assert F.is_cubic
