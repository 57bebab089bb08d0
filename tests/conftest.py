"""One hypothesis profile for every property in the suite: derandomized, so each run draws the same examples,
with no example database and no deadline, so a run neither depends on earlier runs nor fails on a slow host."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
