"""Analytic results for the non-interacting limit (U = 0).

The first-moment equations close on themselves at U = 0 and are solved in
closed form: a damped oscillation around a constant steady vector, whose
purity is the steady-state purity.  On top of that solution sit the two
non-oscillating pure initial states and the geometric single-site steady
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, atan2, hypot, pi, sqrt

import numpy as np

from .errors import (CoalescenceError, DivergentSteadyStateError,
                     NonNormalizableError, RegimeError)
from .fock import _purity
from .system import SystemParams

_CLAMP = 1e-12


@dataclass(frozen=True)
class SteadyMoments:
    """Constant solution of the U = 0 first-moment equations."""

    s_x: float
    s_y: float
    s_z: float
    n: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.s_x, self.s_y, self.s_z, self.n])

    @property
    def reduced_s_y(self) -> float:
        return self.s_y / self.n

    @property
    def purity(self) -> float:
        return _purity(self.s_x, self.s_y, self.s_z, self.n)


def steady_alpha(params: SystemParams) -> SteadyMoments:
    """Steady first moments.

    All components share the prefactor (gp^2 - gm^2)/(4J^2 - gp^2 + gm^2);
    they are evaluated here in a form with the gamma -> 0 cancellations done
    analytically, so the gamma -> 0 limit (0, 0, 0, n0) is reached smoothly.
    """
    J, g, n0 = params.J, params.gamma, params.n0
    gm, gp = params.gamma_minus, params.gamma_plus
    denom = 4 * J**2 - gp**2 + gm**2
    if abs(denom) < 1e-14 * 4 * J**2:
        raise DivergentSteadyStateError(
            "constant solution diverges at 4J^2 = gamma_plus^2 - gamma_minus^2")
    c = g**2 * n0 / (n0 + 2) / denom
    return SteadyMoments(
        s_x=0.0,
        s_y=2 * J * g * n0 / denom,
        s_z=c,
        n=c + 4 * J**2 * n0 / denom,
    )


@dataclass(frozen=True)
class OscillatorySolution:
    """Damped-oscillation solution of the U = 0 first-moment equations.

    Fields: the steady part, the s_x amplitude, the non-oscillatory
    relaxation amplitude, the oscillation amplitude (>= 0) and phase, and
    the oscillation frequency omega = sqrt(4J^2 - gamma_plus^2).
    """

    steady: SteadyMoments
    amp_x: float
    amp_relax: float
    amp_osc: float
    phase: float
    omega: float
    J: float
    gamma_minus: float
    gamma_plus: float

    def moments(self, t) -> np.ndarray:
        """Evaluate (s_x, s_y, s_z, n) at time(s) t; shape (4,) or (4, len)."""
        t = np.asarray(t, dtype=float)
        decay = np.exp(-self.gamma_minus * t)
        wt = self.omega * t - self.phase
        a = self.steady
        s_x = self.amp_x * decay
        s_y = a.s_y + (self.gamma_plus * self.amp_relax
                       + 2 * self.J * self.amp_osc * np.cos(wt)) * decay
        s_z = a.s_z - self.omega * self.amp_osc * np.sin(wt) * decay
        n = a.n + (2 * self.J * self.amp_relax
                   + self.gamma_plus * self.amp_osc * np.cos(wt)) * decay
        return np.array([s_x, s_y, s_z, n])


def oscillatory_solution(initial, params: SystemParams) -> OscillatorySolution:
    """Fit the closed-form U = 0 solution to initial first moments
    (s_x, s_y, s_z, n).  Valid in the oscillatory regime gp^2 < 4J^2."""
    J, gm, gp = params.J, params.gamma_minus, params.gamma_plus
    if gp**2 >= 4 * J**2:
        raise RegimeError("oscillatory solution requires gamma_plus^2 < 4J^2")
    s_x0, s_y0, s_z0, n0 = (float(v) for v in initial)
    alpha = steady_alpha(params)
    omega = sqrt(4 * J**2 - gp**2)
    amp_relax = (2 * J * (n0 - alpha.n) - gp * (s_y0 - alpha.s_y)) / omega**2
    k1 = (2 * J * (s_y0 - alpha.s_y) - gp * (n0 - alpha.n)) / omega**2
    k2 = (s_z0 - alpha.s_z) / omega
    return OscillatorySolution(
        steady=alpha, amp_x=s_x0, amp_relax=amp_relax,
        amp_osc=hypot(k1, k2), phase=atan2(k2, k1), omega=omega,
        J=J, gamma_minus=gm, gamma_plus=gp,
    )


@dataclass(frozen=True)
class NonOscillatoryPair:
    """The two pure initial states whose U = 0 trajectory does not
    oscillate: polar angle theta, azimuths of the ground-like and
    excited-like branch (phi_ground + phi_excited = pi), the magnitude of
    the s_x amplitude (the branches differ only in its sign) and the
    relaxation amplitude."""

    theta: float
    phi_ground: float
    phi_excited: float
    amp_x: float
    amp_relax: float
    s_y0: float
    s_z0: float


def _acos_clamped(arg: float, what: str) -> float:
    if arg > 1.0:
        if arg <= 1.0 + _CLAMP:
            return 0.0
        raise CoalescenceError(
            f"{what} argument {arg} > 1: branches have coalesced and vanished")
    if arg < -1.0:
        if arg >= -1.0 - _CLAMP:
            return pi
        raise CoalescenceError(f"{what} argument {arg} < -1")
    return acos(arg)


def nonoscillatory_states(params: SystemParams) -> NonOscillatoryPair:
    """Angles of the two non-oscillating pure initial states (U = 0)."""
    J, g, n0 = params.J, params.gamma, params.n0
    gp = params.gamma_plus
    alpha = steady_alpha(params)

    theta_arg = (g**2 / (n0 + 2)) / (4 * J**2 - n0 * g**2 / (n0 + 2))
    theta = _acos_clamped(theta_arg, "polar-angle")

    f1 = 4 * J**2 - (n0 + 1) ** 2 / (n0 + 2) ** 2 * g**2
    f2 = 4 * J**2 - (n0 + 1) / (n0 + 2) * g**2
    f3 = 4 * J**2 - (n0 - 1) / (n0 + 2) * g**2
    if f2 <= 0 or f3 <= 0:
        raise CoalescenceError("azimuth closed form undefined at this gamma")
    phi_arg = (g / (2 * J)) * f1 / (sqrt(f2) * sqrt(f3))
    half = _acos_clamped(phi_arg, "azimuth")
    phi_ground = pi / 2 - half
    phi_excited = pi / 2 + half

    amp_relax = (n0 - alpha.n) / (2 * J)
    s_y0 = alpha.s_y + gp * amp_relax
    s_z0 = alpha.s_z
    # the sign analysis behind the branch construction: s_y(0) > 0
    # throughout the gain-loss regime (s_y(0) = 0 exactly at gamma = 0)
    if g > 0 and not s_y0 > 0:
        raise AssertionError(
            "expected s_y(0) > 0 for non-oscillatory states in this regime")
    amp_x_sq = n0**2 - s_y0**2 - s_z0**2
    if amp_x_sq < 0:
        if amp_x_sq > -_CLAMP * n0**2:
            amp_x_sq = 0.0
        else:
            raise CoalescenceError(
                "purity condition unsatisfiable: branches have coalesced")
    return NonOscillatoryPair(
        theta=theta, phi_ground=phi_ground, phi_excited=phi_excited,
        amp_x=sqrt(amp_x_sq), amp_relax=amp_relax, s_y0=s_y0, s_z0=s_z0,
    )


def critical_gamma(n0: int, J: float = 1.0) -> float:
    """Gain-loss strength at which the oscillatory regime ends
    (gamma_plus = 2J)."""
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    return 2 * J * (n0 + 2) / (n0 + 1)


@dataclass(frozen=True)
class SingleModeSteady:
    """Geometric steady distribution of a single mode with gain and loss."""

    xi: float

    def probabilities(self, j_max: int) -> np.ndarray:
        j = np.arange(j_max + 1)
        return (1 - self.xi) * self.xi**j


def single_mode_steady(gamma_gain: float, gamma_loss: float) -> SingleModeSteady:
    if gamma_loss <= 0 or gamma_gain < 0:
        raise ValueError("rates must be positive (loss) and non-negative (gain)")
    xi = gamma_gain / gamma_loss
    if xi >= 1.0:
        raise NonNormalizableError(
            "single-mode steady state requires gamma_gain < gamma_loss")
    return SingleModeSteady(xi=xi)


def combined_product_probs(xi: float, j_max: int) -> np.ndarray:
    """Total-number distribution of the product of two geometric modes:
    q(j) = (1 - xi)^2 xi^j (j + 1)."""
    if not 0 <= xi < 1:
        raise NonNormalizableError("xi must lie in [0, 1)")
    j = np.arange(j_max + 1)
    return (1 - xi) ** 2 * xi**j * (j + 1)
