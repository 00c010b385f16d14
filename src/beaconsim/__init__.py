"""Simulation and analysis of beacon-assisted cooperative spectrum access.

The package models a primary transmitter/receiver pair that announce channel
availability with beacon and feedback signals, plus secondary users that may
cooperatively relay those announcements.  It provides:

- closed-form and Monte Carlo estimates of beacon miss and false-alarm
  probabilities for the non-cooperative, cooperative, opportunistic and
  multiuser access schemes (:mod:`beaconsim.protocols`,
  :mod:`beaconsim.analysis`);
- low-probability "tail" estimators whose relative error stays bounded deep
  into the high-SNR regime (:mod:`beaconsim.fadeprob`);
- capacity bounds for the secondary link, ergodic and outage variants, and
  the losses caused by imperfect channel-metric estimates and by beacon
  overhead (:mod:`beaconsim.capacity`);
- a deterministic, thread-count-independent command line front end
  (:mod:`beaconsim.cli`).
"""

from .analysis import (
    DiversityFit,
    SweepResult,
    SweepSpec,
    db_to_linear,
    estimate_diversity,
    estimate_joint_success_curve,
    estimate_miss_curve,
)
from .capacity import (
    ActivityModel,
    CapacityEstimate,
    OutageResult,
    OverheadParams,
    capacity_draws,
    capacity_lower,
    capacity_upper,
    ergodic_capacity,
    imperfect_capacity,
    outage_capacity,
    relative_capacity_loss,
    state_probs,
    throughput,
    throughput_loss_bound,
    throughput_loss_mc,
    wrong_relay_bound,
    wrong_relay_probability_mc,
)
from .channel import (
    ChannelSet,
    MeanGains,
    MetricTriple,
    MultiuserChannelSet,
    MultiuserMeans,
    compute_metrics,
    perturb_metrics,
    sample_channels,
    sample_multiuser,
)
from .fadeprob import (
    abs_diff_q_mean,
    exp_erlang_box_prob,
    exp_q_mean,
    exp_sum_box_prob,
    ocsa_fade_regions,
)
from .numerics import (
    alternating_binomial_moment,
    deep_fade_integral,
    fit_diversity_slope,
    gaussian_q,
)
from .protocols import (
    MAX_PAIRS,
    ProtocolConfig,
    RelayIdentity,
    Scheme,
    csa_conditional_miss,
    csa_joint_success,
    mucsa_conditional_miss,
    mucsa_pair_joint_success,
    nc_conditional_miss,
    nc_joint_success,
    ocsa_conditional_miss,
    ocsa_joint_success,
    ocsa_select_relay,
    phase1_failure,
    split_channel_uses,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityModel",
    "CapacityEstimate",
    "ChannelSet",
    "DiversityFit",
    "MAX_PAIRS",
    "MeanGains",
    "MetricTriple",
    "MultiuserChannelSet",
    "MultiuserMeans",
    "OutageResult",
    "OverheadParams",
    "ProtocolConfig",
    "RelayIdentity",
    "Scheme",
    "SweepResult",
    "SweepSpec",
    "abs_diff_q_mean",
    "alternating_binomial_moment",
    "capacity_draws",
    "capacity_lower",
    "capacity_upper",
    "compute_metrics",
    "csa_conditional_miss",
    "csa_joint_success",
    "db_to_linear",
    "deep_fade_integral",
    "ergodic_capacity",
    "estimate_diversity",
    "estimate_joint_success_curve",
    "estimate_miss_curve",
    "exp_erlang_box_prob",
    "exp_q_mean",
    "exp_sum_box_prob",
    "fit_diversity_slope",
    "gaussian_q",
    "imperfect_capacity",
    "mucsa_conditional_miss",
    "mucsa_pair_joint_success",
    "nc_conditional_miss",
    "nc_joint_success",
    "ocsa_conditional_miss",
    "ocsa_fade_regions",
    "ocsa_joint_success",
    "ocsa_select_relay",
    "outage_capacity",
    "perturb_metrics",
    "phase1_failure",
    "relative_capacity_loss",
    "sample_channels",
    "sample_multiuser",
    "split_channel_uses",
    "state_probs",
    "throughput",
    "throughput_loss_bound",
    "throughput_loss_mc",
    "wrong_relay_bound",
    "wrong_relay_probability_mc",
]
