"""Suite-wide hypothesis settings: every property draws the same examples
on every run (derandomized, no example database), so a failure repeats.
A test's own settings (max_examples, deadline, health checks) still apply."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
