"""Shared test settings.

Property tests run with no per-example deadline, because timings on a
shared machine can swing by about 2x, and with derandomized examples, so
a run is repeatable. They also run without the explain phase: on a
failure it replays a many-operation property for minutes while memory
grows, before the failing example is reported.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "spectral_torelli",
    deadline=None,
    derandomize=True,
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("spectral_torelli")
