"""Closed equations of motion for the first and second Bloch moments
of the gain-loss dimer (third-order factorization closure).

Generated by tools/derive_moment_rhs.py; do not edit by hand.
"""

import numpy as np


def moment_rhs(y, J, U, gamma_gain, gamma_loss, out=None):
    """Time derivative of the 14-component moment vector
    (s_x, s_y, s_z, n, D_xx, D_xy, D_xz, D_xn, D_yy, D_yz, D_yn,
    D_zz, D_zn, D_nn).

    y is any sequence of 14 numbers (an ndarray is unpacked to Python
    floats first, so the arithmetic runs on floats, not numpy
    scalars); out is any mutable 14-slot sequence, a new array when
    omitted.  Returns out."""
    if out is None:
        out = np.empty(14)
    if isinstance(y, np.ndarray):
        y = y.tolist()
    gg = gamma_gain
    gl = gamma_loss
    sx, sy, sz, n, Dxx, Dxy, Dxz, Dxn, Dyy, Dyz, Dyn, Dzz, Dzn, Dnn = y
    x0 = 2*U
    x1 = Dyz*x0
    x2 = (0.5)*gl
    x3 = sx*x2
    x4 = U*sz
    x5 = Dxz*x0
    x6 = 2*J
    x7 = (0.5)*gg
    x8 = sy*x7
    x9 = sy*x2
    x10 = gl*n
    x11 = (0.5)*x10
    x12 = gl*sz
    x13 = (0.5)*x12
    x14 = gg + n*x7 + sz*x7
    x15 = -x11 + x13 + x14
    x16 = Dxy*sz*x0
    x17 = gg*sz
    x18 = (0.25)*x17
    x19 = (0.25)*x12
    x20 = gg*n
    x21 = (0.25)*x10 + (0.25)*x20 + x7
    x22 = -x18 + x19 + x21
    x23 = U*sx
    x24 = U*sy
    x25 = Dxz*gl
    x26 = 4*Dyz*J
    x27 = Dyz*gg
    x28 = Dyn*gg
    x29 = Dyn*gl
    x30 = Dyz*gl
    x31 = (0.25)*sy
    x32 = Dzz*gg
    x33 = Dzn*gl
    x34 = Dzz*gl
    x35 = Dzn*gg
    x36 = Dnn*gg
    x37 = Dnn*gl
    out[0] = (0.5)*gg*sx - sy*x4 - x1 - x3
    out[1] = sx*x4 + sz*x6 + x5 + x8 - x9
    out[2] = -sy*x6 + x11 - x13 + x14
    out[3] = x15
    out[4] = Dxx*gg - Dxx*gl - sy*x5 - x16 + x22
    out[5] = Dxx*x4 + Dxy*gg - Dxy*gl + Dxz*x23 + Dxz*x6 - Dyy*x4 - Dyz*x24
    out[6] = (0.25)*Dxn*gg + (0.25)*Dxn*gl - Dxy*x6 + Dxz*gg - Dyz*x4 - Dzz*x24 + (0.25)*gg*sx - 0.25*gl*sx - x25
    out[7] = Dxn*gg - Dxn*gl + Dxz*gg - Dyn*x4 - Dzn*x24 + sx*x7 + x25 + x3
    out[8] = Dyy*gg - Dyy*gl + sx*x1 + x16 + x22 + x26
    out[9] = Dxz*x4 - Dyy*x6 + Dzz*x23 + Dzz*x6 + gg*x31 - gl*x31 + x27 + (0.25)*x28 + (0.25)*x29 - x30
    out[10] = Dxn*x4 + Dzn*x23 + Dzn*x6 + x27 + x28 - x29 + x30 + x8 + x9
    out[11] = Dzn*x7 + x18 - x19 + x21 - x26 + x32 + (0.5)*x33 - x34
    out[12] = -Dyn*x6 + x15 + x32 - x33 + x34 + x35 + (0.25)*x36 + (0.25)*x37
    out[13] = 2*gg + x10 - x12 + x17 + x20 + 2*x33 + 2*x35 + x36 - x37
    return out


def moment_jacobian(y, J, U, gamma_gain, gamma_loss):
    """Jacobian of moment_rhs: the 14 x 14 matrix d out[i] / d y[j] at
    fixed U, as a list of rows, and the column d out[i] / dU, as a
    list.

    y is any sequence of 14 numbers (an ndarray is unpacked to Python
    floats first)."""
    if isinstance(y, np.ndarray):
        y = y.tolist()
    gg = gamma_gain
    gl = gamma_loss
    sx, sy, sz, n, Dxx, Dxy, Dxz, Dxn, Dyy, Dyz, Dyn, Dzz, Dzn, Dnn = y
    x0 = gg - gl
    x1 = (0.5)*x0
    x2 = U*sz
    x3 = -x2
    x4 = U*sy
    x5 = -x4
    x6 = 2*U
    x7 = 2*J
    x8 = U*sx + x7
    x9 = -x7
    x10 = gg + gl
    x11 = (0.5)*x10
    x12 = (0.25)*gg
    x13 = Dxy*x6
    x14 = (0.25)*x10
    x15 = 2*x2
    x16 = Dxz*U
    x17 = -Dyz*U
    x18 = (0.25)*x0
    x19 = Dzz*U
    x20 = Dzn*U
    x21 = Dxy*sz
    rows = [
        [x1, x3, x5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -x6, 0.0, 0.0, 0.0, 0.0],
        [x2, x1, x8, 0.0, 0.0, 0.0, x6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, x9, x1, x11, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, x11, x1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, -Dxz*x6, (0.25)*gl - x12 - x13, x14, x0, -x15, -2*x4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [x16, x17, U*(Dxx - Dyy), 0.0, x2, x0, x8, 0.0, x3, x5, 0.0, 0.0, 0.0, 0.0],
        [x18, -x19, x17, 0.0, 0.0, x9, x0, x14, 0.0, x3, 0.0, x5, 0.0, 0.0],
        [x11, -x20, -Dyn*U, 0.0, 0.0, 0.0, x10, x0, 0.0, 0.0, x3, 0.0, x5, 0.0],
        [Dyz*x6, 0.0, (0.25)*gl - x12 + x13, x14, 0.0, x15, 0.0, 0.0, x0, 2*x8, 0.0, 0.0, 0.0, 0.0],
        [x19, x18, x16, 0.0, 0.0, 0.0, x2, 0.0, x9, x0, x14, x8, 0.0, 0.0],
        [x20, x11, Dxn*U, 0.0, 0.0, 0.0, 0.0, x2, 0.0, x10, x0, 0.0, x8, 0.0],
        [0.0, 0.0, x18, x14, 0.0, 0.0, 0.0, 0.0, 0.0, -4*J, 0.0, x0, x11, 0.0],
        [0.0, 0.0, x11, x1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, x9, x10, x0, x14],
        [0.0, 0.0, x0, x10, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2*x10, x0],
    ]
    d_du = [
        -2*Dyz - sy*sz,
        2*Dxz + sx*sz,
        0.0,
        0.0,
        -2*Dxz*sy - 2*x21,
        Dxx*sz + Dxz*sx - Dyy*sz - Dyz*sy,
        -Dyz*sz - Dzz*sy,
        -Dyn*sz - Dzn*sy,
        2*Dyz*sx + 2*x21,
        Dxz*sz + Dzz*sx,
        Dxn*sz + Dzn*sx,
        0.0,
        0.0,
        0.0,
    ]
    return rows, d_du


def moment_rate_jacobian(y, J, U, gamma_gain, gamma_loss):
    """Columns d out[i] / d gamma_gain and d out[i] / d gamma_loss of
    moment_rhs, as two lists.

    y is any sequence of 14 numbers (an ndarray is unpacked to Python
    floats first)."""
    if isinstance(y, np.ndarray):
        y = y.tolist()
    gg = gamma_gain
    gl = gamma_loss
    sx, sy, sz, n, Dxx, Dxy, Dxz, Dxn, Dyy, Dyz, Dyn, Dzz, Dzn, Dnn = y
    x0 = (0.5)*sx
    x1 = (0.5)*sy
    x2 = (0.5)*n
    x3 = (0.5)*sz
    x4 = x2 + x3 + 1
    x5 = (0.25)*n
    x6 = (0.25)*sz
    x7 = x5 - x6
    x8 = x7 + 0.5
    x9 = Dxz + (0.25)*sx
    x10 = Dxz + x0
    x11 = Dyz + (0.25)*sy
    x12 = Dyz + x1
    x13 = (0.5)*Dzn
    x14 = x5 + x6
    x15 = (0.25)*Dnn + Dzz
    x16 = Dnn + sz
    x17 = n - sz
    d_gain = [
        x0,
        x1,
        x4,
        x4,
        Dxx + x8,
        Dxy,
        (0.25)*Dxn + x9,
        Dxn + x10,
        Dyy + x8,
        (0.25)*Dyn + x11,
        Dyn + x12,
        Dzz + x13 + x14 + 0.5,
        Dzn + x15 + x4,
        2*Dzn + n + x16 + 2,
    ]
    d_loss = [
        -x0,
        -x1,
        (0.5)*x17,
        -0.5*x17,
        -Dxx + x14,
        -Dxy,
        (0.25)*Dxn - x9,
        -Dxn + x10,
        -Dyy + x14,
        (0.25)*Dyn - x11,
        -Dyn + x12,
        -Dzz + x13 + x7,
        -Dzn + x15 - x2 + x3,
        2*Dzn + n - x16,
    ]
    return d_gain, d_loss
