import numpy as np
import pytest
from hypothesis import settings

from psilab.numerics import CircleGrid
from psilab.symbols import (CutFunction, Loop, Symbol, SymbolClass, bump_profile,
                            cap_profile, constant_profile, rational_decay_profile,
                            rational_vanishing_profile, step_profile)

# every property test draws the same examples on every run (derived from the
# test's own code), so a failure reproduces from the commit alone; each test
# keeps its own example count
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def grid16():
    return CircleGrid(J=68, N=16, k=1)


@pytest.fixture(scope="session")
def grid32():
    return CircleGrid(J=132, N=32, k=1)


@pytest.fixture(scope="session")
def grid64():
    return CircleGrid(J=260, N=64, k=1)


@pytest.fixture(scope="session")
def theta():
    return CutFunction(4.0)


def random_separable_symbol(k, seed):
    """One to three terms: a random trigonometric loop of degree <= 3 times a
    profile from the vocabulary, with transition widths of at least 1/4."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        degree = int(rng.integers(0, 4))
        shape = (2 * degree + 1, k, k)
        coeffs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / (2 * degree + 1)
        lo, width, scale = rng.uniform(0.0, 5.0), rng.uniform(1.0, 10.0), rng.uniform(0.25, 4.0)
        profile = (rational_decay_profile(scale), rational_vanishing_profile(scale),
                   cap_profile(width), bump_profile(lo, lo + width),
                   step_profile(lo, lo + width),
                   constant_profile(rng.uniform(-2.0, 2.0)))[int(rng.integers(6))]
        terms.append((Loop.from_coeffs(coeffs), profile))
    return Symbol(tuple(terms), k, SymbolClass.FULL_C0)


@pytest.fixture(scope="session")
def random_symbol():
    """Builder ``(k, seed) -> Symbol`` of random separable symbols."""
    return random_separable_symbol
