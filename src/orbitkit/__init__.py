"""Exact computations with finite group actions.

Orbit categories, G-sets and G-simplicial sets with their fixed points,
equivariant chain complexes with Smith-normal-form homology, the
fixed-point adjunction between orbit diagrams and G-objects, and
chain-level homotopy-equivalence certificates.
"""

from .groups import Group, Subgroup, all_subgroups, conjugating_element, \
    cyclic_group, dihedral_group, direct_product, klein_four_group, make_group, \
    subgroup, symmetric_group, trivial_subgroup, full_subgroup
from .gsets import GMap, GSet, coset_gset, equivariant_maps, make_gmap, make_gset, \
    orbit_analysis, product_gset, regular_gset, trivial_gset
from .orbitcat import OrbitCategory, OrbitMorphism, build_orbit_category, compose, \
    orbit_morphism, realize
from .simplicial import CellStructure, CofibrationVerdict, GSSet, Prism, ReplayError, \
    SMap, SimplexRef, apply_operator, boundary_simplex, build_sset, \
    cell_decomposition, check_F_cofibration, disjoint_copies, empty_sset, \
    fixed_sset, gtensor, identity_smap, make_smap, point_sset, prism, skeleton, \
    sset_to_json, standard_simplex, sub_sset
from .chains import ChainComplex, ChainHomotopy, ChainMap, HomologyGroup, \
    SignConventionError, concentrated, disk, fixed_chains, homology, identity_chain_map, \
    invariants, is_quasi_iso, mapping_cone, normalized_chain_map, \
    normalized_chains, orbit_reduction, prism_homotopy, restrict_to_invariants, \
    zero_complex
from .elmendorf import AdjunctionReport, CellularityReport, CensusReport, ChainCat, \
    FinSSetCat, FinSetCat, OrbitDiagram, adjunction_check, \
    arrow_poset_census, cellularity_report, free_cell_diagram, i_lower, i_upper
from .errors import InternalError
from .whitehead import Certificate, WhiteheadReport, certificate_search, \
    verify_certificate, whitehead_verify
from .rings import QQ, PrimeField, ZZ, ring_from_tag

__all__ = [name for name in dir() if not name.startswith("_")]
