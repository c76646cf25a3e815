"""Derive the closed first/second-moment equations of motion and emit code.

Starting from the generator of the open two-site system (tunneling J,
on-site interaction U, loss at site 1 with rate gl, gain at site 2 with
rate gg), this script computes

    d<O>/dt = <i[H, O]> + gl <a1+ O a1 - (n1 O + O n1)/2>
                        + gg <a2 O a2+ - (a2 a2+ O + O a2 a2+)/2>

for the four Hermitian quadratics L_x, L_y, L_z, n and their ten
symmetrized pair products, using exact normal-ordering algebra.  Exact
third-order block expectations <B1 B2 B3> (B = a_j^dag a_k) appear only
through the interaction term; they are replaced by the standard
factorization

    <B1 B2 B3> ~= <B1 B2><B3> + <B1 B3><B2> + <B2 B3><B1> - 2<B1><B2><B3>

which closes the hierarchy.  Everything is then rewritten in the Bloch
variables (s_x, s_y, s_z, n) and their covariances Delta_jk, and the
resulting expressions, and their derivatives, are emitted as

    src/gldimer/_moment_rhs_py.py   the kernel `moment_rhs`, its
                                    Jacobian `moment_jacobian` (the 14 x 14
                                    matrix at fixed U and the U column) and
                                    `moment_rate_jacobian` (the columns in
                                    gamma_gain and gamma_loss)
    src/gldimer/_closure_defects.py table of the factorized triples per
                                    component, for exact defect accounting
                                    in tests

The script verifies symbolically, before writing anything, that
 * the four first-moment equations contain no factorization at all and
   equal the known closed forms,
 * the factorization only ever enters through terms proportional to U,
 * every emitted expression is real,
 * at U = 0 every covariance equation is linear in the state, and
 * the emitted `moment_jacobian` and `moment_rate_jacobian`, run on
   symbols, equal the derivatives of the emitted `moment_rhs` run on
   symbols.

Run it from anywhere as

    python tools/derive_moment_rhs.py           # rewrite the generated files
    python tools/derive_moment_rhs.py --check   # exit 1 if one is stale
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import sympy as sp

# ---------------------------------------------------------------------------
# exact normal-ordered polynomial algebra for two bosonic modes
#
# Monomial key (p, q, r, s)  <->  a1+^p a1^q a2+^r a2^s

Poly = dict


def poly(*items) -> Poly:
    out = {}
    for mono, coeff in items:
        out[mono] = out.get(mono, sp.Integer(0)) + coeff
    return {m: sp.simplify(c) for m, c in out.items() if c != 0}


def padd(*ps: Poly) -> Poly:
    out = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, sp.Integer(0)) + c
    return {m: c for m, c in out.items() if sp.simplify(c) != 0}


def pscale(p: Poly, f) -> Poly:
    return {m: c * f for m, c in p.items()}


def mono_mul(m1, m2) -> Poly:
    """Normal-order the product of two monomials (exact)."""
    p1, q1, r1, s1 = m1
    p2, q2, r2, s2 = m2
    out = {}
    for k in range(min(q1, p2) + 1):
        ck = factorial(k) * comb(q1, k) * comb(p2, k)
        for l in range(min(s1, r2) + 1):
            cl = factorial(l) * comb(s1, l) * comb(r2, l)
            mono = (p1 + p2 - k, q1 + q2 - k, r1 + r2 - l, s1 + s2 - l)
            out[mono] = out.get(mono, 0) + ck * cl
    return {m: sp.Integer(c) for m, c in out.items()}


def pmul(a: Poly, b: Poly) -> Poly:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for m, c in mono_mul(m1, m2).items():
                out[m] = out.get(m, sp.Integer(0)) + c1 * c2 * c
    return {m: c for m, c in out.items() if sp.simplify(c) != 0}


# parameters and state symbols
J, U, gg, gl = sp.symbols("J U gg gl", real=True)
sx, sy, sz, n = sp.symbols("sx sy sz n", real=True)
DSYM = {}
NAMES = ["x", "y", "z", "n"]
for j in range(4):
    for k in range(j, 4):
        DSYM[(j, k)] = sp.Symbol(f"D{NAMES[j]}{NAMES[k]}", real=True)
        DSYM[(k, j)] = DSYM[(j, k)]

EA = {0: sx / 2, 1: sy / 2, 2: sz / 2, 3: n}

# <[A_a, A_b]>: su(2) algebra of the L's, n commutes with everything
_COMM = {}
for a in range(4):
    for b in range(4):
        _COMM[(a, b)] = sp.Integer(0)
for (a, b, c) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _COMM[(a, b)] = sp.I * EA[c]
    _COMM[(b, a)] = -sp.I * EA[c]

# one-body blocks B_jk = a_j^dag a_k expressed over the Hermitian basis
_BLOCK_COEF = {
    (1, 1): {2: sp.Integer(-1), 3: sp.Rational(1, 2)},
    (2, 2): {2: sp.Integer(1), 3: sp.Rational(1, 2)},
    (1, 2): {0: sp.Integer(1), 1: -sp.I},
    (2, 1): {0: sp.Integer(1), 1: sp.I},
}

_BLOCK_POLY = {
    (1, 1): {(1, 1, 0, 0): sp.Integer(1)},
    (1, 2): {(1, 0, 0, 1): sp.Integer(1)},
    (2, 1): {(0, 1, 1, 0): sp.Integer(1)},
    (2, 2): {(0, 0, 1, 1): sp.Integer(1)},
}


def block_mean(pair):
    return sum(c * EA[a] for a, c in _BLOCK_COEF[pair].items())


def block_pair_mean(pa, pb):
    """Exact <B_pa B_pb> in Bloch variables (order matters)."""
    out = sp.Integer(0)
    for a, ca in _BLOCK_COEF[pa].items():
        for b, cb in _BLOCK_COEF[pb].items():
            out += ca * cb * (DSYM[(a, b)] / 2 + EA[a] * EA[b] + _COMM[(a, b)] / 2)
    return out


def closed_triple(p1, p2, p3):
    """Factorized <B1 B2 B3>."""
    return (block_pair_mean(p1, p2) * block_mean(p3)
            + block_pair_mean(p1, p3) * block_mean(p2)
            + block_pair_mean(p2, p3) * block_mean(p1)
            - 2 * block_mean(p1) * block_mean(p2) * block_mean(p3))


def canonical_blocks(mono):
    """Assign the creations/annihilations of a monomial to ordered blocks."""
    p, q, r, s = mono
    crs = [1] * p + [2] * r
    ans = [1] * q + [2] * s
    return tuple(zip(crs, ans))


class Reducer:
    """Rewrite normal-ordered monomial expectations in Bloch variables,
    recording every factorized triple."""

    def __init__(self):
        self.cache = {}
        self.triples = []  # (coeff, (pair, pair, pair)) applied so far

    def mono(self, m):
        p, q, r, s = m
        assert p + r == q + s, f"non-number-conserving monomial {m}"
        deg = p + r
        if deg == 0:
            return sp.Integer(1)
        if m in self.cache and deg < 3:
            return self.cache[m]
        pairs = canonical_blocks(m)
        if deg == 1:
            val = block_mean(pairs[0])
            self.cache[m] = val
            return val
        prod = _BLOCK_POLY[pairs[0]]
        for pr in pairs[1:]:
            prod = pmul(prod, _BLOCK_POLY[pr])
        assert prod.get(m) == 1, f"leading coefficient of {pairs} is not 1"
        if deg == 2:
            lead = block_pair_mean(pairs[0], pairs[1])
        else:
            lead = closed_triple(*pairs)
            self.triples.append((sp.Integer(1), pairs))
        corr = sp.Integer(0)
        for m2, c2 in prod.items():
            if m2 == m:
                continue
            corr += c2 * self.mono(m2)
        val = sp.expand(lead - corr)
        if deg == 2:
            self.cache[m] = val
        return val

    def reduce(self, p: Poly, weight=sp.Integer(1)):
        """Expectation of a polynomial; triples recorded with coefficients."""
        out = sp.Integer(0)
        for m, c in p.items():
            before = len(self.triples)
            val = self.mono(m)
            for i in range(before, len(self.triples)):
                cc, pairs = self.triples[i]
                self.triples[i] = (sp.simplify(cc * c * weight), pairs)
            out += c * val
        return sp.expand(out)


# generator pieces
H = {
    (1, 0, 0, 1): -J, (0, 1, 1, 0): -J,
    (2, 2, 0, 0): U / 2, (0, 0, 2, 2): U / 2,
}
A1 = {(0, 1, 0, 0): sp.Integer(1)}
A1D = {(1, 0, 0, 0): sp.Integer(1)}
A2 = {(0, 0, 0, 1): sp.Integer(1)}
A2D = {(0, 0, 1, 0): sp.Integer(1)}
N1 = {(1, 1, 0, 0): sp.Integer(1)}
KG = pmul(A2, A2D)  # a2 a2+ = n2 + 1


def adjoint(obs: Poly) -> Poly:
    comm = pscale(padd(pmul(H, obs), pscale(pmul(obs, H), -1)), sp.I)
    loss = pscale(
        padd(pmul(pmul(A1D, obs), A1),
             pscale(padd(pmul(N1, obs), pmul(obs, N1)), sp.Rational(-1, 2))),
        gl)
    gain = pscale(
        padd(pmul(pmul(A2, obs), A2D),
             pscale(padd(pmul(KG, obs), pmul(obs, KG)), sp.Rational(-1, 2))),
        gg)
    return padd(comm, loss, gain)


A_POLY = {
    0: poly(((1, 0, 0, 1), sp.Rational(1, 2)), ((0, 1, 1, 0), sp.Rational(1, 2))),
    1: poly(((1, 0, 0, 1), sp.I / 2), ((0, 1, 1, 0), -sp.I / 2)),
    2: poly(((0, 0, 1, 1), sp.Rational(1, 2)), ((1, 1, 0, 0), sp.Rational(-1, 2))),
    3: poly(((1, 1, 0, 0), sp.Integer(1)), ((0, 0, 1, 1), sp.Integer(1))),
}


def derive() -> dict[str, str]:
    """Derive and gate the equations; return {file name: source text}."""
    red = Reducer()

    # first moments: no factorization may occur
    dEA = {}
    for a in range(4):
        before = len(red.triples)
        dEA[a] = red.reduce(adjoint(A_POLY[a]))
        assert len(red.triples) == before, "first-moment equations must close exactly"

    d_first = [sp.expand(2 * dEA[0]), sp.expand(2 * dEA[1]),
               sp.expand(2 * dEA[2]), sp.expand(dEA[3])]

    gm = (gl - gg) / 2
    gp = (gl + gg) / 2
    expected = [
        -U * (sy * sz + 2 * DSYM[(1, 2)]) - gm * sx,
        2 * J * sz + U * (sx * sz + 2 * DSYM[(0, 2)]) - gm * sy,
        -2 * J * sy + gp * n - gm * sz + gg,
        -gm * n + gp * sz + gg,
    ]
    for got, want, label in zip(d_first, expected, ["sx", "sy", "sz", "n"]):
        diff = sp.simplify(sp.expand(got - want))
        assert diff == 0, f"first-moment equation for {label} mismatch: {diff}"
    print("gate 1 passed: first-moment equations match the closed forms")

    # covariances
    pair_keys = [(j, k) for j in range(4) for k in range(j, 4)]
    d_delta = {}
    defects = {}
    for (j, k) in pair_keys:
        red.triples = []
        sym_prod = padd(pmul(A_POLY[j], A_POLY[k]), pmul(A_POLY[k], A_POLY[j]))
        dM = red.reduce(adjoint(sym_prod))
        raw = sp.expand(dM - 2 * dEA[j] * EA[k] - 2 * EA[j] * dEA[k])
        # The exact symmetrized derivative is real; an imaginary residue can
        # only be a factorization-ordering artifact of the same subleading
        # order as the closure error itself.  Keep the real part (the
        # defect table accounts for the full complex closure terms).
        re_part, im_part = raw.as_real_imag()
        assert sp.simplify(im_part.subs(U, 0)) == 0, (
            f"imaginary residue in dDelta{(j, k)} not a pure closure artifact")
        d_delta[(j, k)] = sp.expand(re_part)
        defects[(j, k)] = list(red.triples)

    # The angular-momentum Casimir identity ties the covariances together:
    #   D_xx + D_yy + D_zz - D_nn/4 - n^2/2 - n + s^2/2 = 0
    # holds for the moments of every state, so equations of motion are only
    # defined modulo multiples of this expression.  Canonicalize by removing
    # the multiple that makes every covariance equation affine at U = 0
    # (the exact dynamics is linear there).
    casimir = (DSYM[(0, 0)] + DSYM[(1, 1)] + DSYM[(2, 2)] - DSYM[(3, 3)] / 4
               - n**2 / 2 - n + (sx**2 + sy**2 + sz**2) / 2)
    state = [sx, sy, sz, n] + [DSYM[kk] for kk in pair_keys]
    for key in pair_keys:
        at_u0 = sp.expand(d_delta[key].subs(U, 0))
        quad = sum(c * sp.Mul(*[v**e for v, e in zip(state, mono)])
                   for mono, c in sp.Poly(at_u0, *state).terms()
                   if sum(mono) >= 2)
        lam = sp.simplify(2 * sp.expand(quad).coeff(sx, 2))
        assert sp.simplify(quad - lam * (sx**2 + sy**2 + sz**2 - n**2) / 2) == 0, (
            f"U = 0 nonlinearity of dDelta{key} is not a Casimir multiple")
        d_delta[key] = sp.expand(d_delta[key] - lam * casimir)

    # gates on the canonicalized covariance equations
    for key, expr in d_delta.items():
        assert not sp.expand(expr).has(sp.I), f"complex residue in dDelta{key}"
        at_u0 = sp.expand(expr.subs(U, 0))
        po = sp.Poly(at_u0, *state)
        assert po.total_degree() <= 1, f"dDelta{key} not linear at U = 0"
    for key, tri in defects.items():
        for coeff, pairs in tri:
            c_over_u = sp.simplify(coeff / U)
            assert c_over_u.is_number and not c_over_u.free_symbols, (
                f"triple coefficient {coeff} for {key} not proportional to U")
    print("gate 2 passed: covariance equations real, linear at U = 0 after "
          "Casimir canonicalization, factorization only via U terms")

    # flatten in the canonical component order
    order = [("s_x", d_first[0]), ("s_y", d_first[1]), ("s_z", d_first[2]),
             ("n", d_first[3])]
    for (j, k) in pair_keys:
        order.append((f"D{NAMES[j]}{NAMES[k]}", d_delta[(j, k)]))

    files = render_files(order, defects, pair_keys, state)
    check_emitted_jacobian(files["_moment_rhs_py.py"], state)
    print("gate 3 passed: the emitted Jacobian and rate columns are the "
          "derivatives of the emitted right-hand side")
    return files


def check_emitted_jacobian(source: str, state) -> None:
    """Run the emitted kernel module on symbols and assert that
    `moment_jacobian` and `moment_rate_jacobian` equal sp.diff of
    `moment_rhs`, entry by entry."""
    namespace = {}
    exec(compile(source, "_moment_rhs_py.py", "exec"), namespace)
    rhs = namespace["moment_rhs"](list(state), J, U, gg, gl, [0] * 14)
    rows, d_du = namespace["moment_jacobian"](list(state), J, U, gg, gl)
    for i, f in enumerate(rhs):
        for j, v in enumerate(state):
            diff = sp.expand(rows[i][j] - sp.diff(f, v))
            assert diff.is_zero, f"d out[{i}]/d y[{j}] mismatch: {diff}"
        diff = sp.expand(d_du[i] - sp.diff(f, U))
        assert diff.is_zero, f"d out[{i}]/dU mismatch: {diff}"
    d_gain, d_loss = namespace["moment_rate_jacobian"](list(state), J, U,
                                                       gg, gl)
    for i, f in enumerate(rhs):
        for column, rate in ((d_gain, gg), (d_loss, gl)):
            diff = sp.expand(column[i] - sp.diff(f, rate))
            assert diff.is_zero, f"d out[{i}]/d{rate} mismatch: {diff}"


_HEADER_VARS = ["sx", "sy", "sz", "n", "Dxx", "Dxy", "Dxz", "Dxn",
                "Dyy", "Dyz", "Dyn", "Dzz", "Dzn", "Dnn"]


from sympy.printing.pycode import PythonCodePrinter


class _FloatRationalPrinter(PythonCodePrinter):
    """Render rationals as double literals (`(0.5)*gl`, not `gl/2`), which
    fixes the spelling, and with it the floating-point operations, of the
    generated kernel."""

    def _print_Rational(self, expr):
        return repr(float(sp.Float(expr, 17)))

    def _print_Half(self, expr):
        return "0.5"


def _code(expr) -> str:
    return _FloatRationalPrinter().doprint(expr)


def render_files(order, defects, pair_keys, state) -> dict[str, str]:
    exprs = [e for _, e in order]
    subs_list, reduced = sp.cse(exprs, optimizations="basic")
    # the Jacobian: d f / d y at fixed U, row by row, then d f / dU
    jac = [sp.diff(e, v) for e in exprs for v in state]
    jac += [sp.diff(e, U) for e in exprs]
    jac_subs, jac_reduced = sp.cse(jac, optimizations="basic")
    # the rate columns: d f / d gamma_gain, then d f / d gamma_loss
    rates = [sp.diff(e, gg) for e in exprs] + [sp.diff(e, gl) for e in exprs]
    rate_subs, rate_reduced = sp.cse(rates, optimizations="basic")
    size = len(state)

    py_lines = [
        '"""Closed equations of motion for the first and second Bloch moments',
        "of the gain-loss dimer (third-order factorization closure).",
        "",
        "Generated by tools/derive_moment_rhs.py; do not edit by hand.",
        '"""',
        "",
        "import numpy as np",
        "",
        "",
        "def moment_rhs(y, J, U, gamma_gain, gamma_loss, out=None):",
        '    """Time derivative of the 14-component moment vector',
        "    (s_x, s_y, s_z, n, D_xx, D_xy, D_xz, D_xn, D_yy, D_yz, D_yn,",
        "    D_zz, D_zn, D_nn).",
        "",
        "    y is any sequence of 14 numbers (an ndarray is unpacked to Python",
        "    floats first, so the arithmetic runs on floats, not numpy",
        "    scalars); out is any mutable 14-slot sequence, a new array when",
        '    omitted.  Returns out."""',
        "    if out is None:",
        "        out = np.empty(14)",
        "    if isinstance(y, np.ndarray):",
        "        y = y.tolist()",
        "    gg = gamma_gain",
        "    gl = gamma_loss",
        f"    {', '.join(_HEADER_VARS)} = y",
    ]
    py_lines += [f"    {sym} = {_code(val)}" for sym, val in subs_list]
    py_lines += [f"    out[{i}] = {_code(e)}" for i, e in enumerate(reduced)]
    py_lines.append("    return out")
    py_lines += [
        "",
        "",
        "def moment_jacobian(y, J, U, gamma_gain, gamma_loss):",
        '    """Jacobian of moment_rhs: the 14 x 14 matrix d out[i] / d y[j] at',
        "    fixed U, as a list of rows, and the column d out[i] / dU, as a",
        "    list.",
        "",
        "    y is any sequence of 14 numbers (an ndarray is unpacked to Python",
        '    floats first)."""',
        "    if isinstance(y, np.ndarray):",
        "        y = y.tolist()",
        "    gg = gamma_gain",
        "    gl = gamma_loss",
        f"    {', '.join(_HEADER_VARS)} = y",
    ]
    py_lines += [f"    {sym} = {_code(val)}" for sym, val in jac_subs]
    # zeros as float literals: numpy converts an all-float list faster
    jac_code = ["0.0" if e == 0 else _code(e) for e in jac_reduced]
    py_lines.append("    rows = [")
    for i in range(size):
        entries = ", ".join(jac_code[i * size:(i + 1) * size])
        py_lines.append(f"        [{entries}],")
    py_lines.append("    ]")
    py_lines.append("    d_du = [")
    py_lines += [f"        {c}," for c in jac_code[size * size:]]
    py_lines.append("    ]")
    py_lines.append("    return rows, d_du")
    py_lines += [
        "",
        "",
        "def moment_rate_jacobian(y, J, U, gamma_gain, gamma_loss):",
        '    """Columns d out[i] / d gamma_gain and d out[i] / d gamma_loss of',
        "    moment_rhs, as two lists.",
        "",
        "    y is any sequence of 14 numbers (an ndarray is unpacked to Python",
        '    floats first)."""',
        "    if isinstance(y, np.ndarray):",
        "        y = y.tolist()",
        "    gg = gamma_gain",
        "    gl = gamma_loss",
        f"    {', '.join(_HEADER_VARS)} = y",
    ]
    py_lines += [f"    {sym} = {_code(val)}" for sym, val in rate_subs]
    rate_code = ["0.0" if e == 0 else _code(e) for e in rate_reduced]
    for name, column in (("d_gain", rate_code[:size]),
                         ("d_loss", rate_code[size:])):
        py_lines.append(f"    {name} = [")
        py_lines += [f"        {c}," for c in column]
        py_lines.append("    ]")
    py_lines.append("    return d_gain, d_loss")

    # defect table: component index -> [(complex coeff over U, triple), ...]
    defect_lines = [
        '"""Factorized third-order block expectations per covariance component.',
        "",
        "Component i of the moment derivative (indices 4..13, covariance",
        "block) differs from the exact derivative by",
        "    Re[ U * sum_t coeff_t * (<B1 B2 B3>_exact - <B1 B2 B3>_factorized) ]",
        "with B_jk = a_j^dag a_k, ordered pair/triple expectations, and the",
        "factorization",
        "    <B1 B2 B3> ~= <B1 B2><B3> + <B1 B3><B2> + <B2 B3><B1>",
        "                  - 2<B1><B2><B3>.",
        "Exact accounting of this difference is used by the tests.",
        "",
        "Generated by tools/derive_moment_rhs.py; do not edit by hand.",
        '"""',
        "",
        "CLOSURE_TRIPLES = {",
    ]
    for idx, (j, k) in enumerate(pair_keys):
        entries = []
        for coeff, pairs in defects[(j, k)]:
            c = complex(sp.simplify(coeff / U))
            entries.append(f"({c!r}, {tuple(pairs)!r})")
        defect_lines.append(f"    {4 + idx}: [" + ", ".join(entries) + "],")
    defect_lines.append("}")

    print(f"common subexpressions: {len(subs_list)} (Jacobian: "
          f"{len(jac_subs)}); "
          f"triples per component: "
          f"{[len(defects[k]) for k in pair_keys]}")
    return {name: "\n".join(lines) + "\n" for name, lines in (
        ("_moment_rhs_py.py", py_lines),
        ("_closure_defects.py", defect_lines))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate in memory and exit 1 if a checked-in file differs")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[1] / "src" / "gldimer"
    files = derive()
    if args.check:
        stale = [name for name, text in files.items()
                 if not (root / name).is_file()
                 or (root / name).read_text() != text]
        for name in stale:
            print(f"stale: {root / name} differs from the derivation")
        if stale:
            print("rerun tools/derive_moment_rhs.py to regenerate")
            return 1
        print(f"generated files under {root} are up to date")
        return 0
    for name, text in files.items():
        (root / name).write_text(text)
    print(f"wrote the kernel, its Jacobian and the defect table under {root}")
    return 0


if __name__ == "__main__":
    sys.setrecursionlimit(100000)
    sys.exit(main())
