"""Neural control barrier functions with finite-sample conformal
certification and a CBF-QP deployment filter."""

from .certificate import (ConformalReport, LossWeights, conformal_quantile,
                          epsilon_for, quantify_safety, total_loss)
from .controller import InfeasibleFilterError, SafetyFilter, filter_input
from .dynamics import (ControlAffineSystem, Label, closed_loop_field,
                       collision_cone_label, dubins_system, make_system,
                       planar_aerial_system, quadruped_system, register_system)
from .mlp import (MlpCertificate, adam_step, forward, init_adam,
                  init_certificate, input_gradient, load_certificate,
                  save_certificate)
from .sampling import TrainingDatasets, build_datasets, sample_uniform
from .simulator import (Rollout, RolloutStatus, SliceSpec,
                        empirical_safety_rate, levelset_grid, rk4_step, rollout)
from .special import regularized_incomplete_beta
from .trainer import TrainConfig, TrainingHistory, alpha_epsilon_curve, refine

__all__ = [
    "ConformalReport", "ControlAffineSystem", "InfeasibleFilterError", "Label",
    "LossWeights", "MlpCertificate", "Rollout", "RolloutStatus", "SafetyFilter",
    "SliceSpec", "TrainConfig", "TrainingDatasets", "TrainingHistory",
    "adam_step", "alpha_epsilon_curve", "build_datasets", "closed_loop_field",
    "collision_cone_label", "conformal_quantile", "dubins_system",
    "empirical_safety_rate", "epsilon_for", "filter_input", "forward",
    "init_adam", "init_certificate", "input_gradient", "levelset_grid",
    "load_certificate", "make_system",
    "planar_aerial_system", "quadruped_system", "quantify_safety", "refine",
    "register_system", "regularized_incomplete_beta", "rk4_step", "rollout",
    "sample_uniform", "save_certificate", "total_loss",
]
