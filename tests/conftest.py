import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def clear_caches():
    """Returns a function that empties every per-instance cache: the
    instances, their draw tables, match LPs and crash factors, and the
    experts' values.
    The caches are empty when the test starts."""
    from il_lab import harness, instances, matching, mdp

    def clear():
        for cached in (instances.make_mm_lb, instances._bc_lb,
                       instances.make_two_state_uniform, instances.make_fan,
                       mdp._arrival_tables, mdp._policy_tables,
                       matching.build_match_lp, matching.crash_factor,
                       harness._expert_value):
            cached.cache_clear()
    clear()
    return clear
