"""Exact-arithmetic toolkit for 2-term representations up to homotopy,
weak representations, and VB-groupoids over finite groupoids.

Everything is computed over the rationals with zero tolerance: validators
return located counterexamples, constructions are deterministic, and all
the category equivalences between the three models are executable with
verified isomorphism witnesses.
"""

from .errors import (CompositionError, DegreeError, DimensionError,
                     NotInducedError, NotInvertibleError, NotSurjectiveError,
                     RuthVBError, StructureError, UsageError, ValidationError)
from .linalg import (LinearMap, compose, inverse, kernel_basis, rat,
                     right_inverse_on_image, solve)
from .groupoid import (FiniteGroupoid, cyclic_groupoid, disjoint_union,
                       pair_groupoid, transitive_groupoid, trivial_groupoid,
                       validate_groupoid, z2_groupoid)
from .reports import CheckEntry, Report
from .twoterm import (ChainHomotopy, ChainMap, TwoTermComplex, check_interchange,
                      compose_chain_maps, extract_chain_map, extract_homotopy,
                      hcompose, identity_chain_map, phi_object, phi_onemorphism,
                      phi_twomorphism, split_bundle, vcompose, zero_homotopy)
from .cochains import (ScalarCochain, SectionCochain, coboundary, is_normalized,
                       star, twisted_differential)
from .ruth import (Ruth, RuthMorphism, TotalCochain, check_leibniz,
                   compose_morphisms, gauge_transport, identity_morphism,
                   invert_morphism, square_is_zero, total_operator,
                   validate_morphism, validate_ruth)
from .vb import (BundleTransformation, Connection, VBGroupoid, VBMap,
                 compose_vb_maps, connection_report, find_unital_connection,
                 identity_vb_map, kernel_groupoid, validate_bundle_transformation,
                 validate_vb, validate_vb_map, vb_map_is_isomorphism)
from .semidirect import psi_morphism, semidirect
from .weak import (ActionChart, EquivariantMap, WeakRepresentation,
                   act_on_morphism, action_groupoid_bundle, compose_equivariant,
                   identity_equivariant, validate_equivariant,
                   validate_weak_representation)
from .equivalences import (KernelActionResult, connection_change_witness,
                           reconstruct_equivariant, ruth_from_wrep,
                           ruth_morphism_from_wrep_map, triangle_witness,
                           vb_to_wrep, wrep_from_ruth, wrep_from_ruth_morphism)

__version__ = "0.1.0"
