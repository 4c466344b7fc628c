"""The acceptance gate: one test per criterion, each printing a single
ACCEPTANCE <id> (<name>): PASS/FAIL line to the live terminal (capture
disabled) so the verdicts survive into piped pytest output. The gate's own
failure reporting is tested at the end."""

import numpy as np
import pytest

from il_lab import acceptance
from il_lab.matching import LpSolution


def _run(capsys, cid):
    with capsys.disabled():
        results = acceptance.run(only={cid})
    ok, detail = results[cid]
    assert ok, f"criterion {cid}: {detail}"


@pytest.mark.acceptance
def test_acceptance_1_rare_start_gap_scales_like_inverse_sqrt_n(capsys):
    _run(capsys, 1)


@pytest.mark.acceptance
def test_acceptance_2_conditional_gap_is_exact_on_conditioned_draws(capsys):
    _run(capsys, 2)


@pytest.mark.acceptance
def test_acceptance_3_conditioning_events_are_not_rare(capsys):
    _run(capsys, 3)


@pytest.mark.acceptance
def test_acceptance_4_bc_gap_scales_with_h_squared_over_n(capsys):
    _run(capsys, 4)


@pytest.mark.acceptance
def test_acceptance_5_replay_estimation_beats_both_baselines(capsys):
    _run(capsys, 5)


@pytest.mark.acceptance
def test_acceptance_6_lp_matches_brute_force_and_policy_grids(capsys):
    _run(capsys, 6)


@pytest.mark.acceptance
def test_acceptance_7_replay_identities_hold(capsys):
    _run(capsys, 7)


@pytest.mark.acceptance
def test_acceptance_8_exact_targets_close_the_gap(capsys):
    _run(capsys, 8)


@pytest.mark.acceptance
def test_acceptance_9_structural_properties_hold(capsys):
    _run(capsys, 9)


def test_run_rejects_unknown_ids():
    with pytest.raises(ValueError, match="valid ids are 1-9"):
        acceptance.run(only={8, 42}, out=lambda line: None)


def test_flow_property_reports_lp_failure(monkeypatch):
    def failing(mdp, target):
        return LpSolution(None, np.inf, "numeric-failure", 0)

    monkeypatch.setattr(acceptance, "solve_occupancy_match", failing)
    ok, note = acceptance._prop_flow_conservation()
    assert not ok
    assert "numeric-failure" in note
