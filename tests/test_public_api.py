"""Every name a cubicgaps package or module exports resolves.

The walk imports each submodule with pkgutil and reads its `__all__`,
so deleting a function without its export fails here rather than at a
user's import.
"""

import importlib
import pkgutil

import pytest

import cubicgaps


def _modules():
    yield cubicgaps
    for info in pkgutil.walk_packages(cubicgaps.__path__, "cubicgaps."):
        yield importlib.import_module(info.name)


MODULES = list(_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


def test_walk_reaches_every_subpackage():
    names = {m.__name__ for m in MODULES}
    for sub in ("certifier", "covers", "dynamics", "graphcore"):
        assert f"cubicgaps.{sub}" in names


def test_quadratic_field_kernel_is_not_exported():
    # exact checks run on integers; Q(sqrt(d)) elimination is gone
    for module in MODULES:
        assert "quad_kernel" not in getattr(module, "__all__", ())
        assert not hasattr(module, "quad_kernel")


def test_quotient_planarity_names():
    # exact quotient planarity replaced the C3..C8 heuristic and its range
    from cubicgaps import covers, graphcore
    assert callable(graphcore.planar_rotations)
    assert callable(covers.derived_embedding)
    for module in MODULES:
        assert "PLANAR_QUOTIENT_RANGE" not in getattr(module, "__all__", ())
        assert not hasattr(module, "PLANAR_QUOTIENT_RANGE")


def test_one_quotient_by_one_involution():
    # every fold is by one free involution, so the group closure is gone
    from cubicgaps import covers
    assert callable(covers.quotient_by_involution)
    for module in MODULES:
        for name in ("group_closure", "quotient_by_automorphism"):
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name)


def test_no_canonical_form():
    # enumeration generates each class once and tmap_inverse proves its
    # round trip, so no graph identity is computed by canonical search
    for module in MODULES:
        for name in ("canonical_code", "graph_id"):
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name)
