"""
The triangle map and its spectral law
=====================================

Replacing every vertex of a cubic multigraph by a triangle triples the
vertex count and transforms the spectrum by a fixed rule: pull every old
eigenvalue back through f(x) = x^2 - x - 3 and add n/2 copies each of 0
and -2.  This script walks K4 through a few iterations and checks the
rule numerically.
"""

import numpy as np

from cubicgaps.dynamics import a_membership, tmap, tmap_inverse, tmap_spectrum_predict
from cubicgaps.graphcore import named_graph, spectrum

k4 = named_graph("k4")
print("K4 spectrum:", np.round(spectrum(k4), 6))

# One application: 12 vertices (the truncated tetrahedron).
t1 = tmap(k4)
print("T(K4): n =", t1.n)
print("  computed :", np.round(spectrum(t1), 6))
print("  predicted:", np.round(tmap_spectrum_predict(spectrum(k4)), 6))

# Iterating four times keeps every eigenvalue inside the invariant set:
# the orbit of each eigenvalue under f stays in [-3, 3] (or hits a
# preimage of 0, which the classifier reports separately).
X = k4
for k in range(1, 5):
    X = tmap(X)
print("T^4(K4): n =", X.n, "(4 * 3^4 =", 4 * 3 ** 4, ")")
kinds = {}
for v in spectrum(X):
    m = a_membership(float(v), 4, tol=1e-6)
    kinds[m.kind] = kinds.get(m.kind, 0) + 1
print("classification at depth 4:", kinds)

# The map is invertible on its image: each triangle collapses back to
# one vertex.  Any partition into triangles gives a preimage, so the
# first one found is used; graphs with none are not in the image.
back = tmap_inverse(t1)
print("T^{-1}(T(K4)) has", back.n, "vertices")
print("cube in the image of T?", tmap_inverse(named_graph("cube")))
