"""Shared test settings.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's source (``derandomize``), so every run draws the same
cases; no per-example deadline applies, since a lattice SVD can exceed the
default 200 ms on a loaded machine; and the example count is bounded to
keep the suite's run time predictable.
"""

from hypothesis import settings

settings.register_profile(
    "oamlis", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("oamlis")
