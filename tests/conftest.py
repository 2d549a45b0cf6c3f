import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# A longer fuzz of the same tests: MM_HYPOTHESIS_PROFILE=deep.
settings.register_profile(
    "deep",
    deadline=None,
    max_examples=1000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("MM_HYPOTHESIS_PROFILE", "suite"))
