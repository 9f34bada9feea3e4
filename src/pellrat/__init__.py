"""Exact arithmetic for real quadratic fields of the shape m**2 * p**(2r) + 1.

Everything runs on plain Python integers: continued-fraction fundamental
units, congruence orders at the family prime along the root 1/b of
x**2 = d mod p**k (lifted by Newton steps), class numbers from one exact
sum of infrastructure distances, a torsion-valuation ledger with
p-rationality and mu-lambda-zero verdicts, and closed-form Pell sequence
arithmetic.
"""

from .classno import class_number, narrow_class_number, reduced_forms
from .errors import (DefectError, DiscriminantTooLarge, IncompleteFactorization,
                     NoEmbedding, NotAUnit, PrecisionExhausted, ToolkitError)
from .intkit import (Factorization, factor, is_prime, is_wieferich, jacobi,
                     perfect_power, squarefree_decompose, valuation)
from .invariants import (CoatesLedger, build_report, coates_ledger,
                         epsilon_congruence_check, field_context, n1_certificate,
                         n2_of)
from .padic import (SplitPrimeEmbedding, congruence_order, family_embedding,
                    hensel_sqrt, power_is_one_mod, pvaluation, split_embedding,
                    unit_congruence_order)
from .pellseq import PellPair, g_gcd, g_sequence, pell_pair, prime_power_search
from .quadfield import (FamilyField, QuadInt, QuadraticField, construct_family,
                        element, fundamental_unit, m_bound, m_bound_satisfied,
                        qi_norm, unit_index, unit_norm_sign)

__version__ = "0.1.0"
