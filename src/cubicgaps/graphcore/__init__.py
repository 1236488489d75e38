from .multigraph import (
    Multigraph,
    adjacency_matrix,
    spectrum,
    diameter_and_geodesic,
    is_bipartite,
    signatures,
    are_isomorphic,
    automorphisms,
    permute,
)
from .enumeration import enumerate_cubic_multigraphs, named_graph, NAMED_BUILDERS
from .planarity import is_planar, planar_rotations, PlanarityReport

__all__ = [
    "Multigraph",
    "adjacency_matrix",
    "spectrum",
    "diameter_and_geodesic",
    "is_bipartite",
    "signatures",
    "are_isomorphic",
    "automorphisms",
    "permute",
    "enumerate_cubic_multigraphs",
    "named_graph",
    "NAMED_BUILDERS",
    "is_planar",
    "planar_rotations",
    "PlanarityReport",
]
