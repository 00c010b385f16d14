"""The package root re-exports every public name of the library modules."""

from __future__ import annotations

import importlib

import beaconsim

ROOT_NAMES = [
    "ActivityModel", "CapacityEstimate", "ChannelSet", "DiversityFit",
    "MAX_PAIRS", "MeanGains", "MetricTriple", "MultiuserChannelSet",
    "MultiuserMeans", "OutageResult", "OverheadParams", "ProtocolConfig",
    "RelayIdentity", "Scheme", "SweepResult", "SweepSpec", "abs_diff_q_mean",
    "alternating_binomial_moment", "capacity_draws", "capacity_lower",
    "capacity_upper", "compute_metrics", "csa_conditional_miss",
    "csa_joint_success", "db_to_linear", "deep_fade_integral",
    "ergodic_capacity", "estimate_diversity", "estimate_joint_success_curve",
    "estimate_miss_curve", "exp_erlang_box_prob", "exp_q_mean",
    "exp_sum_box_prob", "fit_diversity_slope", "gaussian_q",
    "imperfect_capacity", "mucsa_conditional_miss", "mucsa_pair_joint_success",
    "nc_conditional_miss", "nc_joint_success", "ocsa_conditional_miss",
    "ocsa_fade_regions", "ocsa_joint_success", "ocsa_select_relay",
    "outage_capacity", "perturb_metrics", "phase1_failure",
    "relative_capacity_loss", "sample_channels", "sample_multiuser",
    "split_channel_uses", "state_probs", "throughput", "throughput_loss_bound",
    "throughput_loss_mc", "wrong_relay_bound", "wrong_relay_probability_mc",
]

MODULES = ("analysis", "capacity", "channel", "fadeprob", "numerics",
           "protocols")


def test_root_names():
    assert beaconsim.__all__ == ROOT_NAMES


def test_root_names_are_module_objects():
    owners = {}
    for mod_name in MODULES:
        mod = importlib.import_module(f"beaconsim.{mod_name}")
        for name in mod.__all__:
            assert name not in owners, (name, owners.get(name), mod_name)
            owners[name] = mod
            assert getattr(beaconsim, name) is getattr(mod, name)
    assert sorted(owners) == ROOT_NAMES


def test_readme_quick_start_import():
    from beaconsim import (MeanGains, Scheme, SweepSpec,  # noqa: F401
                           estimate_diversity, estimate_miss_curve)
