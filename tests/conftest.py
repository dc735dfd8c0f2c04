"""Suite-wide test settings.

Property tests draw the same examples on every run: a derandomized
hypothesis profile with no example database and no deadline, so two runs
of the suite (say, on two commits) test the same inputs, and a slow host
cannot fail a property by the clock.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None, deadline=None)
settings.load_profile("repro")
