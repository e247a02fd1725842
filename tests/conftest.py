"""Shared test settings: one hypothesis profile for every property test.

Property tests are derandomized and keep no example database, so a run
is reproducible; they have no deadline, because a solve's time varies
with the machine. Each test states only its ``max_examples``.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "bitrans", derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bitrans")
