"""Exact gap certificates and spectral distance bounds."""

from .exact import (QuadExt, char_poly, is_char_root, rational_kernel,
                    rank_over_field, split_spectrum)
from .touchpoint import (GapCertificate, certify_touchpoint, cover_id,
                         exact_eigenpairs, locate_touch_angle,
                         verify_band_extremum, verify_certificate,
                         verify_transpose_symmetry)
from .bounds import (DecompositionFailure, Segment, SegmentDecomposition,
                     audit_gap_interval, decompose_geodesic,
                     fekete_finiteness, find_hamilton_path, geodesic_bound,
                     hampath_bound)

__all__ = [
    "QuadExt",
    "char_poly",
    "is_char_root",
    "rational_kernel",
    "rank_over_field",
    "split_spectrum",
    "GapCertificate",
    "certify_touchpoint",
    "cover_id",
    "exact_eigenpairs",
    "locate_touch_angle",
    "verify_band_extremum",
    "verify_certificate",
    "verify_transpose_symmetry",
    "DecompositionFailure",
    "Segment",
    "SegmentDecomposition",
    "audit_gap_interval",
    "decompose_geodesic",
    "fekete_finiteness",
    "find_hamilton_path",
    "geodesic_bound",
    "hampath_bound",
]
