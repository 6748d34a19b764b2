"""Variance statistics for weighted prime counts in arithmetic progressions.

The package computes, at desk scale, the objects behind
Barban-Davenport-Halberstam style variance bounds for three weightings of
the von Mangoldt function: twisted by e(t n^c), restricted to
Piatetski-Shapiro index sets, and both at once.  Supporting machinery
(segmented sieve, Dirichlet character groups, sawtooth approximation,
oscillatory integrals, a large-sieve checker) is exposed directly.
"""

from .arith import factorize, lambda_support, primes_segment
from .characters import CharacterGroup, character_group
from .errors import ParameterError, ResourceError
from .oscillatory import (ExpWeightParams, VaalerExpansion, main_term_integral,
                          oscillatory_integral, phase_frac_array,
                          prime_exp_sum, saw_psi, vaaler_eval,
                          vaaler_expansion)
from .psprimes import (PSConfig, ps_array, ps_config, ps_count_main_term,
                       ps_indicator_at)
from .variance import (LargeSieveResult, VarianceReport, WeightKind,
                       WeightTable, build_weight_table, custom_weight_table,
                       large_sieve_check, variance_report)

__version__ = "0.1.0"
