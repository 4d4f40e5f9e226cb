"""One hypothesis profile for every test: derandomized, with no example
database, so each run on each Python draws the same examples."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
