"""Exact arithmetic for real quadratic fields of the shape m**2 * p**(2r) + 1.

Everything runs on plain Python integers and Fractions: continued-fraction
fundamental units, split-prime valuations by Hensel lifting, reduced-form
class numbers, a torsion-valuation ledger with p-rationality and
mu-lambda-zero verdicts, and closed-form Pell sequence arithmetic.
"""

from .classno import class_number, narrow_class_number, reduced_forms
from .errors import (DefectError, DiscriminantTooLarge, IncompleteFactorization,
                     NoEmbedding, NotAUnit, PrecisionExhausted, ToolkitError)
from .intkit import (Factorization, factor, is_prime, is_wieferich, jacobi,
                     perfect_power, squarefree_decompose, valuation)
from .invariants import (CoatesLedger, InvariantReport, build_report, coates_ledger,
                         epsilon_congruence_check, field_context,
                         fib_unit_equivalence, gen_fib, lemma_n1_congruence,
                         n1_certificate, n2_of)
from .padic import (SplitPrimeEmbedding, congruence_order, family_embedding,
                    hensel_sqrt, power_is_one_mod, pvaluation, split_embedding,
                    unit_congruence_order)
from .pellseq import (PellPair, addition_identity_check, g_gcd, g_gcd_oracle,
                      g_sequence, pair_reduce, pell_pair, prime_power_search)
from .quadfield import (FamilyField, QuadInt, QuadraticField, construct_family,
                        element, fundamental_unit, m_bound, m_bound_satisfied,
                        qi_norm, unit_index, unit_norm_sign)

__version__ = "0.1.0"
