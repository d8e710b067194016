"""Sweeps that more than one test reads, each computed once per session."""

from functools import lru_cache

from affineschur._sweeps import verify_hopf


@lru_cache(maxsize=None)
def cached_verify_hopf(n: int, r_max: int, window: int) -> tuple:
    """verify_hopf's rows; test_hopf_sweep_rank_three and the run_hopf(n=3)
    of acceptance criterion 5 make the same call, (3, 3, 6)."""
    return tuple(verify_hopf(n, r_max, window))
