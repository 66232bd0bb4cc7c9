"""Twisted Alexander invariants of fibred knots over exact integer
arithmetic, with the three-part fibredness obstruction."""

from .laurent import (LaurentPoly, canonicalize, cyclotomic_resultants, gcd,
                      is_monic, parse_laurent, resultant_with_cyclotomic,
                      to_text)
from .exactla import (IntMatrix, LambdaMatrix, SmithForm,
                      CokernelInvariants, char_poly, maximal_minor_gcd,
                      rank_over_fractions, smith_normal_form)
from .freegrp import FreeEndo, Word
from .grouphom import (CyclicTarget, FiniteHom, Perm, PermutationTarget,
                       Presentation, alternating, cyclic,
                       generated_subgroup_order, perm_from_cycle_text,
                       perm_to_cycle_text, symmetric, verify_homomorphism)
from .cover import (CoverGraph, TwistedInvariants,
                    branched_cover_homology_from_monodromy, build_cover,
                    lift_power_matrix, twisted_invariants)
from .seifert import (BranchedCover, CharacterJump, SeifertMatrix,
                      alexander_polynomial, branched_cover,
                      random_seifert_matrix)
from .obstruction import (CONSISTENT, INCONCLUSIVE, NOT_FIBRED,
                          ObstructionReport, evaluate_fibred_obstruction,
                          fibred_verdict)
from .fixtures import FIXTURE_NAMES, load_fixture

__version__ = "0.1.0"
