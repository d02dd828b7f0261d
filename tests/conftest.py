"""Shared test settings.

Property tests run with no per-example deadline, because timings on a
shared machine can swing by about 2x, and with derandomized examples, so
a run is repeatable.
"""

from hypothesis import settings

settings.register_profile("spectral_torelli", deadline=None, derandomize=True)
settings.load_profile("spectral_torelli")
