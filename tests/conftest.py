"""The property tests draw the same examples on every run, as the rest of
this bit-reproducible project does: derandomized, with no example
database carried between runs."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
