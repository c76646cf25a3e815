"""System parameters for the gain-loss dimer.

The loss rate at site 1 and the gain rate at site 2 are tied together so
that the total particle number is stationary when both sites are equally
occupied: gamma_loss = (n0 + 2)/n0 * gamma_gain, with n0 the initial
particle number.  The single knob ``gamma`` equals gamma_loss.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """Tunneling J, on-site interaction U, gain-loss strength gamma and the
    initial particle number n0 (which fixes the gain/loss ratio).

    Rates are in units of J; the default J = 1 sets the time unit 1/J.
    """

    J: float = 1.0
    U: float = 0.0
    gamma: float = 0.0
    n0: int = 1

    def __post_init__(self):
        if self.J <= 0:
            raise ValueError("J must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")

    @classmethod
    def from_g(cls, g: float, gamma: float, n0: int, J: float = 1.0) -> "SystemParams":
        """Build params from the macroscopic interaction g = U*(n0 - 1)."""
        if n0 < 2 and g != 0.0:
            raise ValueError("g requires n0 >= 2")
        u = 0.0 if g == 0.0 else g / (n0 - 1)
        return cls(J=J, U=u, gamma=gamma, n0=n0)

    @property
    def g(self) -> float:
        """Macroscopic interaction strength U*(n0 - 1)."""
        return self.U * (self.n0 - 1)

    @property
    def gamma_loss(self) -> float:
        return self.gamma

    @property
    def gamma_gain(self) -> float:
        return self.gamma * self.n0 / (self.n0 + 2)

    @property
    def gamma_minus(self) -> float:
        return self.gamma / (self.n0 + 2)

    @property
    def gamma_plus(self) -> float:
        return self.gamma * (self.n0 + 1) / (self.n0 + 2)
