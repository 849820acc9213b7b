"""Independent recomputation of sampled program outputs with sympy.

Everything here starts from the inputs the benchmark generated and the
polynomials the program printed, and never from a stored copy of earlier
output.  Quotient values are compared as grevlex normal forms modulo the
sphere generator; over a quadratic extension `al` is an extra, smallest
variable with the relation al^2 = s, and over F_p sympy works modulo p.
"""

from __future__ import annotations

import sympy

AL = sympy.Symbol("al")


class RingContext:
    """How sympy computes over one of the program's ground rings."""

    def __init__(self, ring: dict):
        self.modulus = ring["p"] if ring["kind"] == "Fp" else None
        self.s = ring["s"] if ring["kind"] == "quad" else None
        if ring["kind"] == "quad" and ring["base"]["kind"] != "Q":
            raise ValueError("the oracle handles quadratic extensions of Q only")

    def gens(self, syms) -> tuple:
        return tuple(syms) + ((AL,) if self.s is not None else ())

    def relations(self) -> list:
        return [AL ** 2 - self.s] if self.s is not None else []

    def inverse(self, c):
        if self.modulus is not None:
            return sympy.Integer(pow(int(c), -1, self.modulus))
        if self.s is None:
            return 1 / c
        a = c.subs(AL, 0)
        b = sympy.expand(c).coeff(AL)
        return (a - b * AL) / (a * a - self.s * b * b)

    def is_zero(self, expr, syms) -> bool:
        expr = sympy.expand(expr)
        if expr == 0:
            return True
        if self.modulus is None:
            return False
        num, den = sympy.fraction(sympy.together(expr))
        if sympy.Integer(den) % self.modulus == 0:
            raise ValueError("denominator divisible by p")
        return sympy.Poly(num, *self.gens(syms), modulus=self.modulus).is_zero

    def normal_form(self, expr, generators, syms):
        basis = list(generators) + self.relations()
        opts = {"modulus": self.modulus} if self.modulus is not None else {}
        _, rem = sympy.reduced(sympy.expand(expr), basis, *self.gens(syms),
                               order="grevlex", **opts)
        return rem


def parse(text: str, syms):
    """A program-printed polynomial (or spec entry) as a sympy expression."""
    local = {str(s): s for s in syms}
    local["al"] = AL
    return sympy.parse_expr(text.replace("^", "**"), local_dict=local)


def _scalar(text: str):
    return parse(text, ())


def spanning_exprs(c, syms) -> list:
    """Y_i = X_i - c x_i N with N = (x_1, ..., x_n), the sphere's tangent fields."""
    n = len(syms)
    return [[(1 if i == k else 0) - c * syms[i] * syms[k] for k in range(n)] for i in range(n)]


def sphere_generator(ctx: RingContext, c, syms):
    return sum(s * s for s in syms) - ctx.inverse(c)


def check_sphere_curvature(ring: dict, names, c_text: str, triple, printed: list,
                           printed_spanning=None) -> str:
    """'' when R(Y_i, Y_j)Y_k printed by the program is c(<Y_j,Y_k>Y_i - <Y_i,Y_k>Y_j).

    Both sides are grevlex normal forms modulo the generator, so they must
    agree exactly.  `printed_spanning`, when given, is compared the same way
    with the independently built Y_i.
    """
    ctx = RingContext(ring)
    syms = sympy.symbols(list(names))
    c = _scalar(c_text)
    gen = sphere_generator(ctx, c, syms)
    ys = spanning_exprs(c, syms)

    def inner(a, b):
        return sum(p * q for p, q in zip(a, b))

    i, j, k = triple
    want = [c * (inner(ys[j], ys[k]) * ys[i][m] - inner(ys[i], ys[k]) * ys[j][m])
            for m in range(len(syms))]
    for m, text in enumerate(printed):
        nf = ctx.normal_form(want[m], [gen], syms)
        if not ctx.is_zero(parse(text, syms) - nf, syms):
            return f"curvature component {m + 1} of triple {tuple(triple)}: {text} != {nf}"
    for a, field in enumerate(printed_spanning or []):
        for m, text in enumerate(field):
            nf = ctx.normal_form(ys[a][m], [gen], syms)
            if not ctx.is_zero(parse(text, syms) - nf, syms):
                return f"spanning field Y{a + 1}[{m + 1}]: {text} != {nf}"
    return ""


def gram_matrix(gram, syms):
    return sympy.Matrix([[sympy.expand(parse(e, syms)) for e in row] for row in gram])


def check_det_one(ring: dict, names, gram) -> str:
    ctx = RingContext(ring)
    syms = sympy.symbols(list(names))
    det = gram_matrix(gram, syms).det(method="berkowitz")
    return "" if ctx.is_zero(det - 1, syms) else f"det G = {sympy.expand(det)}, not 1"


def check_christoffel(ring: dict, names, gram, pair, printed: list) -> str:
    """'' when nabla_{X_i} X_j printed by the program is sum_k Gamma^k_ij X_k.

    Gamma^k_ij = 1/2 sum_l (G^-1)_kl (d_i G_jl + d_j G_il - d_l G_ij), with
    G^-1 from sympy's own inverse.
    """
    ctx = RingContext(ring)
    syms = sympy.symbols(list(names))
    g = gram_matrix(gram, syms)
    ginv = g.inv()
    i, j = pair
    n = len(syms)
    first = [sympy.diff(g[j, l], syms[i]) + sympy.diff(g[i, l], syms[j])
             - sympy.diff(g[i, j], syms[l]) for l in range(n)]
    for k, text in enumerate(printed):
        gamma = sympy.Rational(1, 2) * sum(ginv[k, l] * first[l] for l in range(n))
        # 2 * Gamma has integer coefficients when det G = 1, which F_p needs
        if not ctx.is_zero(2 * (parse(text, syms) - sympy.cancel(gamma)), syms):
            return f"Gamma^{k + 1}_{i + 1}{j + 1}: {text} != {sympy.expand(gamma)}"
    return ""
