"""Shared test configuration: hypothesis runs a fixed, bounded set of examples
so every test run is reproducible."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=25,
                          database=None)
settings.load_profile("deterministic")
