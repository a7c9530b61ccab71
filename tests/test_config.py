import dataclasses
import math

import pytest

from bvn import ConfigurationError
from bvn.config import DEFAULT_TOL, Tolerances


@pytest.mark.parametrize("name", ["tau_num", "tau_rank", "tau_sub"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_tolerance_must_be_finite_and_positive(name, value):
    with pytest.raises(ConfigurationError, match=name):
        Tolerances(**{name: value})


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_rank_cutoff_must_be_below_one(value):
    with pytest.raises(ConfigurationError, match="tau_rank"):
        Tolerances(tau_rank=value)


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_angle_threshold_must_be_below_one(value):
    # every sine of a principal angle is at most 1, so at tau_sub >= 1
    # every inclusion would hold
    with pytest.raises(ConfigurationError, match="tau_sub"):
        Tolerances(tau_sub=value)


@pytest.mark.parametrize("value", [0, -5])
def test_dim_cap_must_be_positive(value):
    with pytest.raises(ConfigurationError, match="dim_cap"):
        Tolerances(dim_cap=value)


def test_boundary_values_accepted():
    tol = Tolerances(tau_num=1e-300, tau_rank=0.999, tau_sub=0.999, dim_cap=1)
    assert tol.dim_cap == 1 and DEFAULT_TOL == Tolerances()


def test_as_dict_holds_the_four_fields_in_order():
    tol = Tolerances(tau_num=1e-8, tau_rank=2e-9, tau_sub=3e-7, dim_cap=64)
    assert list(tol.as_dict().items()) == [
        (f.name, getattr(tol, f.name)) for f in dataclasses.fields(Tolerances)]
    assert tol.as_dict() == dataclasses.asdict(tol)
    assert DEFAULT_TOL.as_dict() == {"tau_num": 1e-9, "tau_rank": 1e-9, "tau_sub": 1e-7,
                                     "dim_cap": 1024}
