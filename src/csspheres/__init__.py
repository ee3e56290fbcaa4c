"""Centrally symmetric triangulated spheres and balls.

Constructions (sewn spheres, stacked sewing balls, edge-link spheres,
symmetric bistellar flips, facet-tree balls, squeezed-ball embeddings) plus
the combinatorial machinery to verify their properties at desk scale:
neighborliness and stackedness reports, shelling verification, GF(2)
homology, and isomorphism/automorphism search.
"""

from .builders import (
    build_B,
    build_delta,
    build_lambda,
    cross_polytope,
    rho_embed,
    sew,
    squeezed_ball,
)
from .core import (
    Complex,
    Face,
    FHVectors,
    TopologyReport,
    canon_face,
    cone,
    face_key,
    facet_ridge_graph,
    fh_vectors,
    from_walk,
    simplex,
    suspension,
    topology_report,
    vertex_key,
    z2_betti_numbers,
)
from .flips import FlipPair, bistellar_flip, build_gamma, fg_pair
from .iso import automorphisms, canonical_form, isomorphic
from .props import (
    cs_neighborliness,
    delta3_facet_formula,
    edge_link_census,
    enum_S,
    facet_necessary_check,
    is_cs,
    is_subcomplex,
    stackedness,
)
from .sew3 import IndexSet, build_B_I, build_delta_I, build_T, enum_I, tree_isomorphic
from .shelling import ShellingOrder, is_shelling, shelling_B42, symmetric_shelling_delta3

__all__ = [
    "Complex",
    "Face",
    "FHVectors",
    "FlipPair",
    "IndexSet",
    "ShellingOrder",
    "TopologyReport",
    "automorphisms",
    "bistellar_flip",
    "build_B",
    "build_B_I",
    "build_T",
    "build_delta",
    "build_delta_I",
    "build_gamma",
    "build_lambda",
    "canon_face",
    "canonical_form",
    "cone",
    "cross_polytope",
    "cs_neighborliness",
    "delta3_facet_formula",
    "edge_link_census",
    "enum_I",
    "enum_S",
    "face_key",
    "facet_necessary_check",
    "facet_ridge_graph",
    "fg_pair",
    "fh_vectors",
    "from_walk",
    "is_cs",
    "is_shelling",
    "is_subcomplex",
    "isomorphic",
    "rho_embed",
    "sew",
    "shelling_B42",
    "simplex",
    "squeezed_ball",
    "stackedness",
    "suspension",
    "symmetric_shelling_delta3",
    "topology_report",
    "tree_isomorphic",
    "vertex_key",
    "z2_betti_numbers",
]

__version__ = "0.1.0"
