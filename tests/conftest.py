"""Test-session settings shared by every test module.

Property tests run under one hypothesis profile: derandomized, so a tier-1
run draws the same examples every time, and without a per-example deadline,
since example times vary with machine load. A test's own `@settings` still
sets its `max_examples`.
"""

from hypothesis import settings

settings.register_profile("stratseg", derandomize=True, deadline=None)
settings.load_profile("stratseg")
