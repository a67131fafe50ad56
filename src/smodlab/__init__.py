"""smodlab: an executable workbench for Σ-semirings with partial countable
sums, based modules and matrices over them, and the coherence / finiteness /
probabilistic-coherence models of linear logic at finite web scale."""

from .scalars import (INF, OMEGA, UNDEF, SEMIRINGS, Semiring, axiom_report,
                      naive_complete)
from .basedmod import (UNKNOWN, BasedModule, Vector, Verdict, Web,
                       classify_submodule, coproduct_module, equalizer_submodule,
                       free_module, preorder_leq_vec, product_module,
                       scalar_action, vec, vec_sum, zero_module)
from .linmaps import (DualBasis, LinMap, Matrix, apply, compose, dual_and_eta,
                      identity, is_morphism, lolli_obj, matrix_of, tensor_obj,
                      validate_basis)
from .models import (CoherenceSpace, FinitenessSpace, GlueObject, ProbCohSpace,
                     F_embed, F_invert, F_map, H_embed, H_map,
                     coherence_lolli, coherence_space, fin_dual,
                     glue_is_morphism, glue_tight_closure, pcoh_bipolar_member,
                     pcoh_dual, pcoh_gamma_and_basis, pcoh_space, wrel_compose)

__version__ = "0.1.0"
