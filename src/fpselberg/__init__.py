"""Exact verification of finite-field Selberg integrals of type A_n.

Integrals are single coefficients of truncated polynomial expansions over
F_p; closed forms are factorial products evaluated in the same field.  The
harness compares the two over exhaustive or seeded-sample parameter grids.
"""

from .admissible import (AdmissibilityReport, decrement_path, distinguished_point,
                         enumerate_admissible, enumerate_admissible_I,
                         is_admissible, is_admissible_I)
from .errors import (AccumulatorOverflow, CapacityExceeded, FpSelbergError,
                     IndexOutOfCaps, InvalidExponent, InvariantViolation,
                     NegativeExponent, NoPath, NotAllowable, OutOfRange,
                     PreconditionViolation, ZeroFactor)
from .formulas import (FormulaResult, b_factor_values, beta_values,
                       dyson_values, i000_rhs, i000_rhs_values,
                       induction_values, r_value, r_values, rhs_3_11,
                       rhs_3_11_values, rhs_4_111_values, shift_factor_values)
from .gf import FpContext, FpElement, checked_factorial, sign_pow
from .harness import CampaignSpec, VerificationReport, bench, run_campaign
from .integrals import (AllowableTriple, KComposition, ParamPoint, PCycle,
                        WeightSummand, cycle_from_composition, fp_integral,
                        master_polynomial, point_rows, row_points,
                        selberg_integral, selberg_integrals, weight_summands,
                        weighted_integral, weighted_integrals)
from .mpoly import (FactorProduct, LinearForm, TruncatedPoly, expand,
                    extract_coefficient, slot_budget, sparse_expand_oracle)

__version__ = "0.1.0"
