"""Exact spectra of conformal intertwining operators on the twistor bundle
over a circle times an even-dimensional sphere.

Everything is exact: rationals are arbitrary-precision fractions and
gamma-function quotients reduce to rationals through the functional equation.
The verification suites certify each closed form against an independent exact
route and return verdicts with exact residuals.
"""
from .exact import (GammaPoleError, GammaQuotient, NonCommensurableError,
                    Tagged, evaluate_numeric, format_rational, ratio_tagged,
                    rational, reduce_exact)
from .ktypes import (BadDimensionError, DIRECTIONS, Direction,
                     InterfaceSquare, InvalidWeightError, KType, Labels, Params,
                     SphereEigenvalues, case1_partners, enumerate_ktypes,
                     interface_square, make_ktype, neighbors)
from .operators import (Case1Data, Case2Data, Case3Data, DBlock,
                        DegenerateTargetError, MissingLError,
                        NotNeighborsError, case1_data, case2_data, case3_data,
                        d_block)
from .spectra import (Block, CalibrationResult, InconsistentSystemError,
                      QuotientEntry, SingularCoefficientError,
                      block2x2, block_coefficients, calibrate_L,
                      exchanged_rs_eigenvalue, first_order_block,
                      mult1_quotient_matrix, mult2_det_quotient_matrix,
                      mult2_gamma_product, z_for, z_value)
from .verify import (EdgeCheck, SuiteReport, run_all_suites,
                     verify_case2_relation, verify_interface,
                     verify_mult1_quotients, verify_mult2_quotients)

__version__ = "0.1.0"
