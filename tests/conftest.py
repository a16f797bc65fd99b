import numpy as np
import pytest

from doslab import ContinuousPlant, make_gain_set, sample_plant
from doslab.gains import build_gain_set

# Unstable batch reactor, as printed in the case study this library ships.
BATCH_A = [
    [1.38, -0.2077, 6.715, -5.676],
    [-0.5814, -4.29, 0.0, 0.675],
    [1.067, 4.273, -6.654, 5.893],
    [0.048, 4.273, -1.343, -2.104],
]
# The same reactor as it appears elsewhere in the literature: entry (4, 3)
# carries the opposite sign.  The published reference feedback gain below is
# deadbeat for THIS variant, not for the printed one -- see the gain tests.
BATCH_A_TEXTBOOK = [
    [1.38, -0.2077, 6.715, -5.676],
    [-0.5814, -4.29, 0.0, 0.675],
    [1.067, 4.273, -6.654, 5.893],
    [0.048, 4.273, 1.343, -2.104],
]
BATCH_B = [[0.0, 0.0], [5.679, 0.0], [1.136, -3.146], [1.136, 0.0]]
BATCH_C = [[1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, 0.0]]

# Published 4-decimal reference gains for the reactor case study.
K_REF = [
    [1.0106, -1.5661, 0.0385, -4.0366],
    [8.1074, -0.0347, 4.3337, -3.6241],
]
M_REF = [
    [0.5534, -0.0249],
    [-0.0287, 0.0396],
    [0.1489, 0.0892],
    [0.0810, 0.0931],
]

BIG_DELTA = 0.2
X0 = [1.0, -1.0, 1.0, -1.0]


@pytest.fixture(scope="session")
def reactor():
    return ContinuousPlant(a=BATCH_A, b=BATCH_B, c=BATCH_C)


@pytest.fixture(scope="session")
def reactor_textbook():
    return ContinuousPlant(a=BATCH_A_TEXTBOOK, b=BATCH_B, c=BATCH_C)


@pytest.fixture(scope="session")
def reactor_dp(reactor):
    return sample_plant(reactor, BIG_DELTA)


@pytest.fixture(scope="session")
def reactor_gains(reactor_dp):
    """Synthesized deadbeat feedback paired with the reference observer gain."""
    synth = build_gain_set(reactor_dp)
    return make_gain_set(reactor_dp, synth.controller_gain, M_REF)


@pytest.fixture(scope="session")
def reactor_synth_gains(reactor_dp):
    return build_gain_set(reactor_dp)


def rng(seed=0):
    return np.random.default_rng(seed)
