"""Tabular imitation-learning laboratory: adversarial instances, cloning /
moment-matching / replay-estimation learners, and a seeded experiment
harness whose gap measurements are exact dynamic-programming values."""

from .datasets import Dataset, SplitConfig, empirical_occupancy, \
    load_dataset, missing_mass, sample_dataset, save_dataset, split, \
    visited_table
from .harness import ExperimentConfig, ResultRow, conditional_gap_check, \
    event_probe, fit_slope, load_csv, rows_to_csv, run_cell, run_experiment
from .instances import geometric_reset, make_bc_lb, make_fan, make_mm_lb, \
    make_two_state_uniform
from .learners import MembershipOracle, bc_train, complement_exact, \
    hybrid_estimate, match, membership_tabular, mm_train, prefix_weights, \
    re_pipeline, re_train, replay_exact, replay_mc
from .matching import LpSolution, MatchTarget, brute_force_match, \
    build_match_lp, extract_policy, solve_occupancy_match
from .mdp import MarkovPolicy, OccupancyMeasures, TabularMdp, \
    deterministic_policy, exact_occupancy, l1_layer_distance, load_json, \
    mdp_from_json, mdp_to_json, policy_from_json, policy_to_json, \
    policy_value, rollout_batch, save_json
from .rng import mix64, mix64_array

__version__ = "0.1.0"
