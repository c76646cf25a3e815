# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel for the closed moment equations of motion.

Generated by tools/derive_moment_rhs.py; do not edit by hand.
"""

COMPILED = True


def moment_rhs(y, double J, double U, double gamma_gain,
               double gamma_loss, out):
    """Same contract as the pure-Python kernel (y any 14-number
    sequence, out any mutable 14-slot sequence); fills and returns
    the preallocated out buffer."""
    cdef double gg = gamma_gain
    cdef double gl = gamma_loss
    cdef double sx = y[0]
    cdef double sy = y[1]
    cdef double sz = y[2]
    cdef double n = y[3]
    cdef double Dxx = y[4]
    cdef double Dxy = y[5]
    cdef double Dxz = y[6]
    cdef double Dxn = y[7]
    cdef double Dyy = y[8]
    cdef double Dyz = y[9]
    cdef double Dyn = y[10]
    cdef double Dzz = y[11]
    cdef double Dzn = y[12]
    cdef double Dnn = y[13]
    cdef double x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15, x16, x17, x18, x19, x20, x21, x22, x23, x24, x25, x26, x27, x28, x29, x30, x31, x32, x33, x34, x35, x36, x37
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
