"""Computational profinite towers: directed index posets, families of
finite-dimensional levels tied by projections and injections, their limits
(threads and section points), cylindrical calculus, and pseudo-distances.
"""

from .maps import (DifferentiableMap, DimensionMismatch, FD_STEP, as_point,
                   compose, fanout_map, fd_jacobian, identity_map,
                   linear_combination_map, matrix_map, ScalarMap,
                   scatter_map, selection_map)
from .poset import (EmptySection, IndexPoset, JoinFailure, Section,
                    chain_poset, enumerate_sections, finite_poset,
                    is_directed, is_section, subset_poset)
from .report import AxiomCheck, VerificationReport
from .family import (FamilyMismatch, FibrationData, ProfiniteFamily,
                     ProfiniteMap, check_profinite_map,
                     compose_profinite_maps, cotangent_maps,
                     is_profinite_diffeomorphism, sample_chains,
                     sample_point, tangent_family, verify_family,
                     verify_fibration)
from .limits import (AlgebraicStructure, IllDefinedSection, Incomparable,
                     MorphismViolation, NotInvertible, ScalarAction,
                     SectionPoint, Thread, check_thread, is_inductive,
                     lift_binary, lift_inverse, lift_scalar_action,
                     restrict_thread, thread_axpy, thread_from_section)
from .cylinder import (CylindricalFunction, coordinate_function, differential,
                       eval_representative, level_function, linear_combination,
                       pair_with_direction, product, reexpress, refine_sections,
                       representative, separate)
from .calculus import (CompatibleMetric, TameForm, TangentThread,
                       alternating_sum, check_tame, check_tangent_thread,
                       constant_form, exterior_derivative, metric_check,
                       pull_components, pullback_inj, pulled_level_field,
                       pushforward_proj, symbolic_form, tangent_duality_check)
from .symplectic import (MomentumMap, NonSymplecticAction, NonconvergentSolve,
                         ProfiniteGroupAction, SchemeMismatch, SingularForm,
                         SymplecticStructure, Trajectory, ZeroVector,
                         canonical_omega, check_action_compat, flow,
                         hamiltonian_compat_check, hamiltonian_field,
                         hamiltonian_identity_residual,
                         is_projectively_nondegenerate,
                         is_weakly_nondegenerate, level_rank, momentum_verify)
from .profmetric import (IndexMeasure, LevelMetricFamily, d_inf, d_mu,
                         discrete_metrics, euclidean_metrics,
                         injection_isometry_check, pseudo_metric_audit,
                         squash)
from .gallery import (GalleryFamily, build_gallery, gallery_names,
                      brownian_sample, cross_family, euclid_tower, jet_tower,
                      matrix_tower, odd_symplectic_tower, pairing, pl_path,
                      pl_weights, poly_tower, sequence_thread,
                      symplectic_even_tower, wiener_family)
from .expr import ExpressionError, cylindrical_from_expression
from .descriptors import (MAP_KINDS, SCHEMA_VERSION, DescriptorError,
                          decode_index, encode_index, family_from_descriptor,
                          family_to_descriptor, form_from_descriptor,
                          gallery_reference_descriptor, load_family,
                          dump_family, load_measure_csv, map_from_entry,
                          poset_from_descriptor, poset_to_descriptor,
                          thread_from_descriptor)

__version__ = "0.1.0"
