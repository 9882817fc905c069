import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run (no example database
# replays an earlier failure), and a slow example (a projector assembly) is
# not a failure
settings.register_profile("roitomo", derandomize=True, deadline=None, database=None)
settings.load_profile("roitomo")
