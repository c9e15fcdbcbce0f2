import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI runs with --hypothesis-profile=ci, so a failure there replays the same
# examples locally under the same flag.
settings.register_profile("ci", derandomize=True)
