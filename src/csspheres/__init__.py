"""Centrally symmetric triangulated spheres and balls.

Constructions (sewn spheres, stacked sewing balls, edge-link spheres,
symmetric bistellar flips, facet-tree balls, squeezed-ball embeddings) plus
the combinatorial machinery to verify their properties at desk scale:
neighborliness and stackedness reports, shelling verification, GF(2)
homology, and isomorphism/automorphism search.
"""

import importlib

# Every public name, grouped by the submodule that defines it.  A name is
# imported from its home module on first access (PEP 562), so ``import
# csspheres`` loads no submodule and each CLI command loads only its own.
_EXPORTS = {
    "builders": ("build_B", "build_delta", "build_lambda", "cross_polytope", "rho_embed", "sew", "squeezed_ball"),
    "core": (
        "Complex", "Face", "FHVectors", "TopologyReport", "canon_face", "cone", "face_key",
        "facet_ridge_graph", "fh_vectors", "from_walk", "is_cs", "simplex", "topology_report",
        "vertex_key", "z2_betti_numbers",
    ),
    "flips": ("FlipPair", "bistellar_flip", "build_gamma", "fg_pair"),
    "iso": ("automorphisms", "canonical_form", "isomorphic"),
    "props": (
        "cs_neighborliness", "edge_link_census", "enum_S",
        "facet_necessary_check", "is_subcomplex", "stackedness",
    ),
    "sew3": ("IndexSet", "build_B_I", "build_T", "build_delta_I", "enum_I", "tree_isomorphic"),
    "shelling": ("ShellingOrder", "is_shelling", "shelling_B42", "symmetric_shelling_delta3"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME, key=str.lower)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # looked up on the home module each time, so a rebinding there shows here
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
