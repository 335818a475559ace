"""Exact desk-scale laboratory for composition-operator dynamics on product
probability spaces: odometers, diagonal translations and weighted shifts."""

from .errors import (BracketFailure, CapExceeded, CarryOverflow,
                     HypothesisUnavailable, NotFoundWithinHorizon, OdolabError,
                     StrategyInfeasible, UnknownTheorem, UnresolvedTail,
                     WindowTooSmall)
from .space import (DepthSet, SimpleFunction, SystemSpec, TruncatedSpace,
                    atomless_monitor, build_truncation, set_measure)
from .maps import (AddResult, BoundReport, InducedBijection, boundedness,
                   forward_image_measure, kakutani_check, odometer_add,
                   preimage_cylinder, preimage_measure, rn_derivative)
from .functions import (OrbitTrace, apply_composition, lp_distance, lp_norm,
                        lp_norm_pow, orbit_trace, orlicz_indicator_norm,
                        period_of)
from .criteria import (CriteriaTable, Verdict, alpha_shift, beta_sup,
                       evaluate, gamma_odometer, gamma_tilde, kappa, omega,
                       theta)
from .witness import (WitnessReport, fhc_witness, mixing_witness,
                      rigidity_probe, shift_fhc_witness, src_evaluate,
                      src_search, transitivity_witness, translation_witnesses,
                      ufhc_count)
from .gallery import GALLERY, get_spec, list_gallery

__version__ = "0.1.0"
