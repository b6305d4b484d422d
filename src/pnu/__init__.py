"""Binary classification from any two of positive, negative, and unlabeled
samples, with unbiased risk estimation, ramp-loss CCCP training, and a
closed-form comparison of the three modes' estimation error bounds."""

from .bounds import (
    AlphaStarResult,
    ComparatorInput,
    alpha_nu_pn,
    alpha_nu_pn_from_ratios,
    alpha_nu_pn_matched_prior,
    alpha_pu_pn,
    alpha_pu_pn_from_ratios,
    alpha_pu_pn_matched_prior,
    alpha_star,
    bound_values,
    matched_prior_argmin,
    matched_prior_min,
    rademacher_mc_check,
)
from .datasets import (
    InsufficientDataError,
    LabeledPool,
    SampleTriple,
    gen_gaussian_artificial,
    gen_gaussian_labeled,
    load_csv,
    sample_triple_from_pool,
)
from .harness import ExperimentGrid, ResultTable, advise, emit, run_sweep, verify
from .losses import (
    SCALED_RAMP,
    ZERO_ONE,
    LossDescriptor,
    conditional_risk,
    scaled_ramp,
    verify_calibration,
    zero_one,
)
from .models import DecisionModel, EmpiricalKernelMap, kernel_map
from .risk import risk_nu, risk_pn, risk_pu, risk_true_gaussian, risk_true_mc
from .training import (
    CccpMonotonicityError,
    CvConfig,
    ModelTemplate,
    TrainConfig,
    cross_validate,
    train,
)

__version__ = "0.1.0"
