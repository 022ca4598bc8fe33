"""Model parameters shared by every engine in the package.

The process has three rate parameters on top of the unit death rate:

* ``beta``    -- baseline birth rate available to both types,
* ``beta_c``  -- extra birth rate cooperators earn from cooperating neighbors,
* ``beta_d``  -- flat extra birth rate defectors award themselves,

plus the spatial dimension ``dim`` of the integer lattice / torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, FlavorMismatch


@dataclass(frozen=True, slots=True)
class Params:
    """Rate parameters (birth rates are per unit death rate)."""

    beta: float
    beta_c: float = 0.0
    beta_d: float = 0.0
    dim: int = 1

    def __post_init__(self) -> None:
        for name in ("beta", "beta_c", "beta_d", "dim"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.beta_c < 0:
            raise DomainError(f"beta_c must be nonnegative, got {self.beta_c}")
        if self.beta_d < 0:
            raise DomainError(f"beta_d must be nonnegative, got {self.beta_d}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim}")


def equal_rate_benefit(beta_d: float, dim: int) -> float:
    """Cooperator benefit that exactly balances a defector bonus ``beta_d``.

    With ``beta_c = 2 * dim * beta_d / (2 * dim - 1)`` the total extra birth
    rate through the (2d - 1) cooperation channels that do not point back at
    the newborn site equals the defector bonus channel:
    ``(2d - 1) * beta_c / (4 d^2) == beta_d / (2d)``.
    """
    if beta_d < 0:
        raise DomainError(f"beta_d must be nonnegative, got {beta_d}")
    if dim < 1:
        raise DomainError(f"dim must be a positive integer, got {dim}")
    return 2.0 * dim * beta_d / (2.0 * dim - 1.0)


def require_equal_rate(p: Params, what: str) -> None:
    """Raise :class:`FlavorMismatch` unless ``p.beta_c`` is the equal-rate benefit."""
    required = equal_rate_benefit(p.beta_d, p.dim)
    if abs(p.beta_c - required) > 1e-12:
        raise FlavorMismatch(f"{what} needs beta_c = {required!r}, got {p.beta_c!r}")
