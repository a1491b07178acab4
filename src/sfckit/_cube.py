"""The 3-(super)cocycle identity over G^4, on a product table.

One kernel serves the 3-cocycle and 3-supercocycle checks of cocycles and
the (super) pentagon of fusion rules that are a group's.  There every
X_i x X_j is one simple object X_ij with N = 1 and (ij)k = i(jk), each
Hom space has the one basis vector alpha = 1, and the pentagon instance at
the outer quadruple (i, j, k, l) is the identity at (a, b, c, d) = (i, j,
k, l) with F(a,b,c) the entry (a, b, ab, c, (ab)c, bc, 1, 1, 1, 1) and
omega(a,b) the parity of (a, b, ab, 1): the super pentagon of pointed data
is the Gu-Wen 3-supercocycle identity (Phys. Rev. B 90, 115141 (2014)).
"""

from __future__ import annotations

from .reporting import Violation
from .scalars import ZERO, kronecker_form


def scan(mul, values, omega, max_violations):
    """(failing, total) for the identity, over every (a, b, c, d) in index order,

        F(a,b,c) F(a,bc,d) F(b,c,d) = (-1)^(omega(a,b) omega(c,d)) F(ab,c,d) F(a,b,cd),

    with mul[a][b] = ab an associative product on 0..n-1, values[a][b][c] =
    F(a,b,c) a Cyclotomic (zero allowed) and omega a bit table, or None for
    the plain identity.  The cube is compiled to one int per value mod m
    (scalars.kronecker_form), and a quadruple fails iff its two sides differ
    mod m.  failing lists the first max_violations (None: all) failing
    quadruples as ((a, b, c, d), lhs, rhs), the sides recomputed from the
    values; one that holds there raises ArithmeticError.
    """
    n = len(mul)
    m, flat = kronecker_form((x for plane in values for row in plane for x in row), 1, 1)
    f = [[flat[(a * n + b) * n : (a * n + b + 1) * n] for b in range(n)] for a in range(n)]
    failing = []
    total = 0
    for a in range(n):
        fa = f[a]
        for b in range(n):
            fab = fa[b]
            f_ab = f[mul[a][b]]
            sign_ab = omega is not None and omega[a][b]
            for c in range(n):
                x1 = fab[c]
                x2 = fa[mul[b][c]]
                x3 = f[b][c]
                y1 = f_ab[c]
                mc = mul[c]
                for d in range(n):
                    lhs = x1 * x2[d] % m * x3[d]
                    rhs = y1[d] * fab[mc[d]]
                    negate = sign_ab and omega[c][d]
                    if (lhs + rhs if negate else lhs - rhs) % m:
                        total += 1
                        if max_violations is None or len(failing) < max_violations:
                            bc, ab, cd = mul[b][c], mul[a][b], mc[d]
                            lhs = values[a][b][c] * values[a][bc][d] * values[b][c][d]
                            rhs = values[ab][c][d] * values[a][b][cd]
                            rhs = -rhs if negate else rhs
                            if lhs == rhs:
                                raise ArithmeticError(f"quadruple {(a, b, c, d)} fails mod m but holds exactly")
                            failing.append(((a, b, c, d), lhs, rhs))
    return failing, total


def pentagon_scan(mul, entries, parities, max_violations):
    """fusion._run_scan on rules that are a group's, mul[i][j] = ij:
    (violations, total, checked), the same as the row scan gives.  A
    missing entry reads 0; against no entries every instance is 0 = 0."""
    n = len(mul)
    if not entries:
        return [], 0, n**4
    get = entries.get
    values = [[[get((a, b, ab, c, mul[ab][c], mul[b][c], 1, 1, 1, 1), ZERO) for c in range(n)]
               for b, ab in enumerate(row)] for a, row in enumerate(mul)]
    omega = None
    if parities is not None:
        omega = [[parities[a, b, ab, 1] for b, ab in enumerate(row)] for a, row in enumerate(mul)]
    failing, total = scan(mul, values, omega, max_violations)
    violations = []
    for (a, b, c, d), lhs, rhs in failing:
        ab, cd = mul[a][b], mul[c][d]
        instance = (a, b, c, d, ab, mul[ab][c], mul[mul[ab][c]][d], cd, mul[b][cd]) + (1,) * 6
        violations.append(Violation(instance, lhs, rhs))
    return violations, total, n**4
