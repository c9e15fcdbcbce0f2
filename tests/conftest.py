import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI runs with --hypothesis-profile=ci and the hypothesis version pinned in
# .github/workflows/tests.yml, so a failure there replays the same examples
# locally under the same flag and version: derandomized examples are stable
# only within one hypothesis version.
settings.register_profile("ci", derandomize=True)
