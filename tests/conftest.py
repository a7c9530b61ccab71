import os

import numpy as np
import pytest
from hypothesis import settings

import helpers

# Property tests draw the same examples on every run: a fixed-seed search
# and no example database carried between runs.
settings.register_profile("fixed-seed", derandomize=True, database=None)
settings.load_profile("fixed-seed")


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def std2():
    return helpers.two_qubit_interp()


@pytest.fixture
def std1():
    return helpers.one_qubit_interp()


@pytest.fixture
def fixture_path():
    def _path(name):
        return os.path.join(FIXTURES, name)

    return _path


@pytest.fixture
def fixture_text(fixture_path):
    def _text(name):
        with open(fixture_path(name), "r", encoding="utf-8") as fh:
            return fh.read()

    return _text
