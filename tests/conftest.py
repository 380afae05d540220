import numpy as np
import pytest
from hypothesis import settings

from collisim import scenarios

# property tests draw the same examples on every run, with no time limit per
# example (timings drift on shared machines) and no example database
settings.register_profile("tier1", deadline=None, derandomize=True, database=None,
                          max_examples=100)
settings.load_profile("tier1")


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


@pytest.fixture(scope="session")
def thermalization_result():
    return scenarios.run_scenario("thermalization")


@pytest.fixture(scope="session")
def nonmarkov_result():
    return scenarios.run_scenario("nonmarkov_sweep")


@pytest.fixture(scope="session")
def battery_result():
    return scenarios.run_scenario("battery")


@pytest.fixture(scope="session")
def exchange_battery_result():
    return scenarios.run_scenario("battery", {"interaction": "exchange"})


@pytest.fixture(scope="session")
def two_qubit_result():
    return scenarios.run_scenario("two_qubit_local_global")


@pytest.fixture(scope="session")
def landauer_result():
    return scenarios.run_scenario("landauer")


@pytest.fixture(scope="session")
def continuous_limit_result():
    return scenarios.run_scenario("continuous_limit")
