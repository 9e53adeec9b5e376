"""Desk-scale statistical CT reconstruction toolkit.

Shifted-Poisson penalized-likelihood reconstruction with a union of learned
sparsifying transforms, its weighted-least-squares baselines, filtered
backprojection, a low-dose measurement simulator, and quality metrics.
"""

from .errors import ConfigurationError, NumericalError, ValidationError
from .geometry import (SystemGeometry, back_project, compute_kappa, forward_project,
                       weighted_gram_diag)
from .metrics import RoiMask, line_profile, rmse_roi, roi_stats, ssim, to_hu
from .recon import (ConvergenceTrace, EpParams, ReconConfig, fbp_reconstruct,
                    os_lalm_image_update, pwls_ep_reconstruct, pwls_ultra_reconstruct,
                    rho_schedule, spultra_reconstruct)
from .sim import Ellipse, make_phantom, nonpositive_fraction, scale_dose, simulate_prelog
from .spstats import (SpModel, SurrogateState, build_surrogate,
                      likelihood_gradient, neg_log_likelihood,
                      optimum_curvature, post_log_convert)
from .ultra import (PatchConfig, SparseState, TransformUnion, extract_patches,
                    hard_threshold, learn_transforms, load_transforms,
                    regularizer_majorizer_diag, regularizer_value,
                    save_transforms, sparse_code_and_cluster)

__version__ = "0.1.0"
