"""Numeric tolerances and global caps.

Every decision procedure in this package is numerical, so the thresholds
below are part of every answer.  Every query reads them from its
interpretation alone (for others, pass ``dataclasses.replace(i, tol=T)``),
and every report echoes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by the linear-algebra kernels.

    tau_num   general numeric tolerance (Hermiticity, trace checks,
              Choi-matrix comparison, unitarity, ...)
    tau_rank  relative cutoff for singular/eigenvalues when deciding the
              rank of a spanning set: the support of a state, a subspace
              given by spanning vectors, a channel image
    tau_sub   the one angle threshold between two subspaces: inclusion,
              equality, meet, join and Sasaki implication keep or drop a
              principal vector by whether its sine exceeds tau_sub.  It
              must be below 1: no sine exceeds 1, so at tau_sub >= 1
              every inclusion would hold
    dim_cap   maximum total ambient dimension an interpretation may declare
    """

    tau_num: float = 1e-9
    tau_rank: float = 1e-9
    tau_sub: float = 1e-7
    dim_cap: int = 1024

    def __post_init__(self):
        for name in ("tau_num", "tau_rank", "tau_sub"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.tau_rank >= 1:
            raise ConfigurationError(f"tau_rank is a relative cutoff below 1, got {self.tau_rank}")
        if self.tau_sub >= 1:
            raise ConfigurationError(f"tau_sub is a sine threshold below 1, got {self.tau_sub}")
        if self.dim_cap < 1:
            raise ConfigurationError(f"dim_cap must be at least 1, got {self.dim_cap}")

    def as_dict(self) -> dict:
        return {"tau_num": self.tau_num, "tau_rank": self.tau_rank, "tau_sub": self.tau_sub,
                "dim_cap": self.dim_cap}


DEFAULT_TOL = Tolerances()
