import os
import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs derandomized, and a failure prints the blob that replays it
# with @reproduce_failure
settings.register_profile("ci", settings.get_profile("default"), derandomize=True, print_blob=True)
settings.load_profile("ci" if os.environ.get("CI") else "default")


@pytest.fixture
def rng():
    # fixed seed: failures must reproduce byte-for-byte
    return random.Random(0xC0FFEE)
