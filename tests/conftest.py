"""Test-suite settings.

Hypothesis runs derandomized (examples drawn from a fixed seed) and
without a per-example deadline, so property tests give the same result
on every run and do not fail on a slow or shared machine.
"""

from hypothesis import settings

settings.register_profile("measrep", derandomize=True, deadline=None)
settings.load_profile("measrep")
