"""paleyzyg: numerical workbench for Paley/Zygmund type Fourier inequalities.

Torus-side machinery (sparse trigonometric polynomials, exact even-p
quadrature, dyadic block multipliers, kernel extremals, moment-growth
probes) and a real-line counterpart (compact signals, Paley measures, the
weighted inequality harnesses).  Every randomized experiment takes an
explicit seed and reproduces bit-identically.
"""

from .torus import (TrigPoly, GridSignal, synthesize, analyze, lp_norm,
                    orlicz_functional, weighted_l2, periodic_square_function_norm,
                    coeffs_close, next_pow2)
from .spectra import (LacunarySeq, FrequencySet, DyadicBlocks, geometric_lacunary,
                      block_counts, sumset_bonami, product_set,
                      is_lacunary_with_ratio_in)
from .multipliers import MultiplierSeq, PaleyReport, paley_block_sums, apply, h1_paley_ratio
from .zygmund import (GreedySelection, ZygmundReport, dyadic_max_select, even_odd_split,
                      zygmund_ratio, inverse_sqrt_ratio_check, block_filling_corpus)
from .extremals import (fejer, vallee_poussin, sharpness_experiment, SharpnessTable,
                        ingham_partial_sum, ingham_tail_sup, sidon_weight_divergence,
                        ingham_weight_trend)
from .growth import (Ensemble, PlainSpectrum, SumsetSpectrum, TensorSpectrum,
                     even_p_ratio, best_ratios, lambda_p_ratio,
                     growth_exponent, tensor_growth, GrowthReport, EMatrix, e_matrix,
                     cauchy_schwarz_check, offdiagonal_split, sidon_lower_bound)
from .realline import (CompactSignal, PaleyMeasure, fourier_transform, lp_block,
                       square_function_norm, paley_sup, mu_l2_sq, paley_inequality_probe,
                       raised_cosine_bump, mean_zero_reduction, rudin_counterexample,
                       zygmund_realline_probe, low_block_divergence, product_paley_sup_2d,
                       random_mean_zero_corpus)
from . import window

__version__ = "0.1.0"
