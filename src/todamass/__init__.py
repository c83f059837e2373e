"""Exact affine Weyl group local-mass calculus for Toda systems of
types A and Ct: generator actions, chain words, closed-form blow-up
targets, Pohozaev residuals, orbit enumeration, and membership
certificates, all over exact rational arithmetic.
"""

from .algebra import (AFFINE_A, AFFINE_CT, AlgebraSpec, LinForm, MassVector)
from .action import (Word, apply_generator, apply_word, pohozaev_residual,
                     pohozaev_residual_cyclic_difference,
                     presentation_relations, verify_relation)
from .cartan import (CartanMatrix, ConsecutiveSet, build, inverse,
                     inverse_finite_a, inverse_submatrix, principal_submatrix)
from .chains import (BlowupResult, ChainPlan, Decomposition, blowup_step,
                     chain_word_a, chain_word_ct, closed_form_a,
                     closed_form_ct)
from .errors import (DecompositionError, DomainError, EvaluationError,
                     FormatError, NotMassForm, RankError, SingularError,
                     SymmetryError, TodamassError)
from .orbit import (CoefficientMatrix, MembershipReport, OrbitNode,
                    coefficient_matrix, descend_to_zero, enumerate_orbit,
                    export_graph, gamma_n_test)
from .perms import (CyclicRotation, FinitePermutation, SPermC,
                    fold_ct_to_a, finite_a_mass, mu_star, rotate_vector,
                    rotated_weights, rotation_covariance, sc_simple,
                    sigma_f_ct, unfold_a_to_ct)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
