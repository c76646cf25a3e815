"""Two-mode mean-field equation with antisymmetric gain and loss.

State: two complex amplitudes psi = (c1, c2).  The equation of motion

    i dc1/dt = -J c2 + g |c1|^2 c1 - i (gamma/2) c1
    i dc2/dt = -J c1 + g |c2|^2 c2 + i (gamma/2) c2

changes the norm except on its stationary states, so states are
renormalized only when angles are extracted, never during integration.
The gauge-invariant angles are phi = arg(c1 c2*) and
theta = acos(1 - 2|c1|^2 / n) with n = |c1|^2 + |c2|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, pi, sin

import numpy as np

from .errors import RegimeError
from .ode import integrate_dp45, sample_grid

CSV_COLUMNS = ("t", "re_c1", "im_c1", "re_c2", "im_c2", "phi", "theta", "n_mf")


@dataclass(frozen=True)
class AngleRepr:
    """Gauge-invariant angles of a (normalized) two-mode state."""

    phi: float
    theta: float


def state_from_angles(phi: float, theta: float) -> np.ndarray:
    """Normalized amplitudes (sin(theta/2) e^{i phi}, cos(theta/2))."""
    return np.array([sin(theta / 2) * np.exp(1j * phi), cos(theta / 2)],
                    dtype=complex)


def angles(psi: np.ndarray) -> AngleRepr:
    c1, c2 = psi
    n = abs(c1) ** 2 + abs(c2) ** 2
    if n <= 0:
        raise ValueError("angles undefined for the zero state")
    arg = 1 - 2 * abs(c1) ** 2 / n
    arg = min(1.0, max(-1.0, arg))
    return AngleRepr(phi=float(np.angle(c1 * np.conj(c2))), theta=acos(arg))


def norm_squared(psi: np.ndarray) -> float:
    return float(abs(psi[0]) ** 2 + abs(psi[1]) ** 2)


def gpe_rhs(psi: np.ndarray, J: float, g: float, gamma: float) -> np.ndarray:
    # Python complex arithmetic: numpy scalar operations cost several times
    # more, and this runs once per Runge-Kutta stage
    c1, c2 = np.asarray(psi).tolist()
    dc1 = 1j * (J * c2 - g * abs(c1) ** 2 * c1) - 0.5 * gamma * c1
    dc2 = 1j * (J * c1 - g * abs(c2) ** 2 * c2) + 0.5 * gamma * c2
    return np.array([dc1, dc2])


def angle_velocities(psi: np.ndarray, J: float, g: float,
                     gamma: float) -> tuple[float, float]:
    """(d phi/dt, d theta/dt) evaluated analytically from the equation of
    motion; useful for stationarity checks."""
    c1, c2 = psi
    d = gpe_rhs(psi, J, g, gamma)
    dphi = float(np.imag(d[0] / c1) - np.imag(d[1] / c2))
    n1, n2 = abs(c1) ** 2, abs(c2) ** 2
    n = n1 + n2
    dn1 = 2 * np.real(np.conj(c1) * d[0])
    dn2 = 2 * np.real(np.conj(c2) * d[1])
    p = n1 / n
    dp = (dn1 * n - n1 * (dn1 + dn2)) / n**2
    s = sin(angles(psi).theta)
    if abs(s) < 1e-12:
        return dphi, 0.0 if abs(dp) < 1e-14 else np.sign(dp) * np.inf
    return dphi, float(2 * dp / s)


def bloch_embedding(psi: np.ndarray) -> np.ndarray:
    """Unit Bloch vector (sin t cos p, sin t sin p, cos t) of the
    normalized state."""
    a = angles(psi)
    return np.array([sin(a.theta) * cos(a.phi),
                     sin(a.theta) * sin(a.phi),
                     cos(a.theta)])


def pt_stationary_states(J: float, gamma: float) -> tuple[AngleRepr, AngleRepr]:
    """The two stationary states: phi = pi/2 -+ acos(gamma / 2J),
    theta = pi/2.  Upper sign: ground state.  Requires gamma <= 2J."""
    if gamma > 2 * J:
        raise RegimeError(
            "no real stationary angles for gamma > 2J (broken symmetry)")
    half = acos(min(1.0, gamma / (2 * J)))
    return (AngleRepr(phi=pi / 2 - half, theta=pi / 2),
            AngleRepr(phi=pi / 2 + half, theta=pi / 2))


@dataclass
class GpeTrajectory:
    ts: np.ndarray
    c: np.ndarray          # shape (len(ts), 2)
    phi: np.ndarray
    theta: np.ndarray
    n_mf: np.ndarray
    bloch: np.ndarray      # shape (len(ts), 3), reduced (unit) Bloch vector

    def rows(self):
        for i in range(len(self.ts)):
            c1, c2 = self.c[i]
            yield (self.ts[i], c1.real, c1.imag, c2.real, c2.imag,
                   self.phi[i], self.theta[i], self.n_mf[i])


def integrate_gpe(psi0: np.ndarray, t_final: float, J: float, g: float,
                  gamma: float, *, rtol: float = 1e-10, atol: float = 1e-12,
                  sample_interval: float | None = None) -> GpeTrajectory:
    ts = sample_grid(t_final, sample_interval, 400)
    res = integrate_dp45(
        lambda _t, y: gpe_rhs(y, J, g, gamma),
        (0.0, t_final), np.asarray(psi0, dtype=complex),
        rtol=rtol, atol=atol, sample_times=ts,
    )
    cs = res.sample_ys
    reprs = [angles(c) for c in cs]
    return GpeTrajectory(
        ts=res.sample_ts,
        c=cs,
        phi=np.array([r.phi for r in reprs]),
        theta=np.array([r.theta for r in reprs]),
        n_mf=np.array([norm_squared(c) for c in cs]),
        bloch=np.array([bloch_embedding(c) for c in cs]),
    )
