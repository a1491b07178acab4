"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are represented by rational coefficient vectors in the power basis
1, z, ..., z^(phi(n)-1) of Q[z]/Phi_n(z), where Phi_n is the n-th cyclotomic
polynomial.  Phi_n is irreducible over Q, so every nonzero value is
invertible.  All coefficients are fractions.Fraction; there is no floating
point anywhere.   Values are immutable and safe to share between workers.

The exhaustive scans (pentagon, super pentagon, 3-cocycle, 3-supercocycle)
do not run on Fractions.  group_ring_form compiles a table once into the
integer group ring Z[Z/N] over one shared denominator D, the integer form
FLINT's fmpq_poly uses: products there add exponents mod N and multiply
ints, and a sum is reduced mod Phi_N only when the two sides of an identity
differ as integer vectors (group_ring_equal).  Cyclotomic stays the type
at every boundary: input, output and the sides of a reported violation.

group_ring_reduce is the one reduction mod Phi_n: products, inverses,
promotions, the conductor descent and the scan kernel all call it.

Two values are equal iff they agree after promoting both into Q(zeta_m) for
m = lcm of their orders.  Hashing and str() use the conductor form (the
least order containing the value), so equal values hash equal regardless of
the order they were built at.  canonical finds the conductor without a
linear solve, stepping down one prime p of the order n at a time
(_descend): if p^2 | n, Phi_n(z) = Phi_(n/p)(z^p), so the value lies in
Q(zeta_(n/p)) iff only the coefficients at multiples of p are nonzero; if
n = p m with p prime to m, z^k = zeta_m^a zeta_p^b by CRT, and the value
lies in Q(zeta_m) iff its zeta_p^1, ..., zeta_p^(p-1) parts agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (low degree first); den monic, remainder 0."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first, monic."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in _divisors(n):
        if d < n:
            num = _polydiv_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """z^k mod Phi_n for 0 <= k <= max(2*phi-2, n-1), as integer vectors."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    kmax = max(2 * phi - 2, n - 1, 0)
    cur = [0] * phi
    cur[0] = 1
    rows = [tuple(cur)]
    for _ in range(kmax):
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            for i in range(phi):
                cur[i] -= top * poly[i]
        rows.append(tuple(cur))
    return tuple(rows)


def _descend(n: int, coeffs, p: int):
    """Coefficients of the value at order n // p, or None if it is not there.

    p is a prime divisor of n and coeffs a power basis vector at order n.
    """
    m = n // p
    if m % p == 0:
        # Phi_n(z) = Phi_m(z^p): Q(zeta_n) has basis z^r * (z^p)^j, r < p
        if any(c for k, c in enumerate(coeffs) if k % p):
            return None
        return list(coeffs[::p])
    # z^k = zeta_m^(k/p mod m) * zeta_p^(k/m mod p), by CRT; split by the zeta_p power
    up, vm = pow(p, -1, m), pow(m, -1, p)
    ys = [[0] * m for _ in range(p)]
    for k, c in enumerate(coeffs):
        if c:
            ys[k * vm % p][k * up % m] += c
    y0, y1, *rest = (group_ring_reduce(y, m) for y in ys)
    # 1, zeta_p, ..., zeta_p^(p-2) is a basis over Q(zeta_m), zeta_p^(p-1) their negated sum
    if any(y != y1 for y in rest):
        return None
    return [a - b for a, b in zip(y0, y1)]


class Cyclotomic:
    """An element of Q(zeta_n), in canonical reduced form for its order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != phi:
            raise ValueError(f"order {order} needs {phi} coefficients, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def __reduce__(self):
        return (Cyclotomic, (self.order, self.coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        if n < 1:
            raise ValueError(f"root-of-unity order must be >= 1, got {n}")
        row = _power_table(n)[k % n]
        return Cyclotomic(n, row)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        c = self.canonical()
        if c.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return c.coeffs[0]

    def _promoted_coeffs(self, m: int) -> list:
        if m == self.order:
            return list(self.coeffs)
        step = m // self.order
        vec = [0] * ((len(self.coeffs) - 1) * step + 1)
        vec[::step] = self.coeffs
        return group_ring_reduce(vec, m)

    def promote(self, m: int) -> "Cyclotomic":
        """Embed into Q(zeta_m); m must be a multiple of the order."""
        if m % self.order:
            raise ValueError(f"cannot promote order {self.order} to non-multiple {m}")
        return Cyclotomic(m, self._promoted_coeffs(m))

    def canonical(self) -> "Cyclotomic":
        """Equivalent value at its conductor (least possible order)."""
        order, coeffs = self.order, self.coeffs
        for p in _prime_factors(order):
            while order % p == 0:
                down = _descend(order, coeffs, p)
                if down is None:
                    break
                order, coeffs = order // p, down
        return Cyclotomic(order, coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(1, (Fraction(x),))
        return None

    def _aligned(self, other: "Cyclotomic"):
        if self.order == other.order:
            return self.order, list(self.coeffs), list(other.coeffs)
        m = lcm(self.order, other.order)
        return m, self._promoted_coeffs(m), other._promoted_coeffs(m)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m, a, b = self._aligned(other)
        return Cyclotomic(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m, a, b = self._aligned(other)
        return Cyclotomic(m, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1:
            q = self.coeffs[0]
            return Cyclotomic(other.order, [q * c for c in other.coeffs])
        if other.order == 1:
            q = other.coeffs[0]
            return Cyclotomic(self.order, [q * c for c in self.coeffs])
        m, a, b = self._aligned(other)
        phi = euler_phi(m)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic(m, group_ring_reduce(conv, m))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.order == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],))
        # extended Euclid in Q[z] against the (irreducible) Phi_n
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        while deg(r1) > 0:
            q = [Fraction(0)] * (deg(r0) - deg(r1) + 1)
            rem = list(r0)
            for i in range(deg(r0), deg(r1) - 1, -1):
                if rem[i]:
                    f = rem[i] / r1[deg(r1)]
                    q[i - deg(r1)] = f
                    for j in range(deg(r1) + 1):
                        rem[i - deg(r1) + j] -= f * r1[j]
            new_s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            new_s[i + j] -= qc * sc
            r0, r1 = r1, rem
            s0, s1 = s1, new_s
        if deg(r1) != 0:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        c = r1[deg(r1)]
        return Cyclotomic(self.order, group_ring_reduce([x / c for x in s1], self.order))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        acc = Cyclotomic.rational(1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        m, a, b = self._aligned(other)
        return a == b

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        c = self.canonical()
        return hash((c.order, c.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self})"

    def __str__(self):
        c = self.canonical()
        if c.order == 1:
            return str(c.coeffs[0])
        terms = []
        for k, q in enumerate(c.coeffs):
            if not q:
                continue
            if k == 0:
                terms.append(str(q))
                continue
            z = f"z{c.order}" if k == 1 else f"z{c.order}^{k}"
            if q == 1:
                terms.append(z)
            elif q == -1:
                terms.append(f"-{z}")
            else:
                terms.append(f"{q}*{z}")
        return " + ".join(terms).replace("+ -", "- ")


def group_ring_form(values) -> tuple[int, int, list[tuple[tuple[int, int], ...]]]:
    """Compile values into the integer group ring Z[Z/N].

    Returns (N, D, terms): N is the lcm of the orders, D the lcm of every
    coefficient denominator, and terms[i] lists the (exponent mod N, integer
    coefficient) pairs of D * values[i].  As z_n^k = z_N^(k*N/n), a power
    basis coefficient keeps its denominator under the embedding into
    Q(zeta_N), so D clears all of them.  Zero becomes (), and a nonzero value
    has at least one term.
    """
    values = list(values)
    order = lcm(1, *(v.order for v in values))
    scale = lcm(1, *(c.denominator for v in values for c in v.coeffs))
    terms = []
    for v in values:
        step = order // v.order
        terms.append(tuple(
            (k * step, c.numerator * (scale // c.denominator)) for k, c in enumerate(v.coeffs) if c
        ))
    return order, scale, terms


def group_ring_reduce(vec, n: int) -> list:
    """Power basis coefficients in Q[z]/Phi_n of sum vec[k] z^k.

    The one reduction mod Phi_n: products, inverses, promotions, conductor
    descent and the scan kernel all go through it.  vec may be as long as
    max(n, 2*phi(n) - 1), a product of two reduced values; a shorter vec is
    padded with zeros.  Two group ring elements are the same field value iff
    they reduce equal.
    """
    table = _power_table(n)
    phi = euler_phi(n)
    out = list(vec[:phi])
    out += [0] * (phi - len(out))
    for k in range(phi, len(vec)):
        c = vec[k]
        if c:
            for i, r in enumerate(table[k]):
                if r:
                    out[i] += c * r
    return out


def group_ring_equal(a: list[int], b: list[int], n: int) -> bool:
    """Whether two length-n group ring vectors are the same field value.

    Equal vectors are; otherwise their difference is reduced mod Phi_n.
    """
    return a == b or not any(group_ring_reduce([x - y for x, y in zip(a, b)], n))


def from_group_ring(vec, n: int, scale: int) -> "Cyclotomic":
    """The field value (sum vec[k] z_n^k) / scale."""
    return Cyclotomic(n, [Fraction(c, scale) for c in group_ring_reduce(vec, n)])


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)
MINUS_ONE = Cyclotomic.rational(-1)


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k; root_of_unity(n, k)**n == 1."""
    return Cyclotomic.zeta(n, k)


def minus_one_pow(x: int) -> Cyclotomic:
    """(-1)^x for a parity bit x."""
    if x not in (0, 1):
        raise ValueError(f"parity bit must be 0 or 1, got {x}")
    return MINUS_ONE if x else ONE
