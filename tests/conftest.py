"""Hypothesis profiles for the suite.

``derandomized``, the default, seeds each property test from a hash of its
own source and keeps no example database, so every run draws the same
examples and a pass or a failure repeats in any checkout.  ``random`` draws
fresh examples on each run and replays earlier failures from the local
database, for exploration:

    python -m pytest --hypothesis-profile=random

Both keep each test's own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")
