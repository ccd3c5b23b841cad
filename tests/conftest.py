"""The property tests draw the same examples on every run, as the rest of
this bit-reproducible project does: derandomized, with no example
database carried between runs."""
import numpy as np
import pytest
from hypothesis import settings

from aeronav.plants import GRAVITY, QuadrotorState, step_quadrotor

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def long_hover_state():
    """The quadrotor state after 10^5 hover steps of 0.01 s from rest,
    computed once for every test that checks the SO(3) drift."""
    st = QuadrotorState(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    for _ in range(100_000):
        st = step_quadrotor(st, GRAVITY, np.zeros(3), 0.01)
    return st
