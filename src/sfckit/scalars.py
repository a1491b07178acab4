"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is the integer numerators of its coefficients in the power basis
1, z, ..., z^(phi(n)-1) of Q[z]/Phi_n(z), Phi_n the n-th cyclotomic
polynomial, over one positive integer denominator, in lowest terms: the
integer form of FLINT's fmpq_poly.  Phi_n is irreducible over Q, so every
nonzero value is invertible.  Arithmetic runs on ints; fractions.Fraction
appears only at the boundary (the constructor, rational, rational_value,
coeffs, str, hash), and there is no floating point anywhere.  The power
basis is a Z-basis of Z[zeta_n], the ring of integers, so the denominator
(the least d with d * value integral) does not depend on the order.
Values are immutable and safe to share between workers.

The exhaustive scans (pentagon, super pentagon, 3-cocycle, 3-supercocycle)
map every value to one int mod m = Phi_N(2**shift) (kronecker_form), an
exact test of each identity: a product is one int multiply, and an
instance holds iff its two sides agree mod m.  group_ring_reduce is the one
reduction mod Phi_n: products, inverses, promotions and conductor descent.

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
from math import gcd, lcm


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
    for d in range(1, n):
        if n % d == 0:
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


def _times(a, b, n: int) -> list[int]:
    """The reduced product at order n of two power basis vectors."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return group_ring_reduce(conv, n)


def _new(order: int, nums, den: int) -> "Cyclotomic":
    """The value (sum nums[k] z^k) / den at order, den > 0, in lowest terms."""
    g = gcd(den, *nums)
    x = object.__new__(Cyclotomic)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "nums", tuple(c // g for c in nums) if g > 1 else tuple(nums))
    object.__setattr__(x, "den", den // g)
    return x


class Cyclotomic:
    """(sum nums[k] z^k) / den in Q(zeta_order), in lowest terms.

    nums: phi(order) ints; den > 0 with gcd(den, *nums) == 1.  Built from
    int or Fraction coefficients, which coeffs gives back as Fractions."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        cs = list(coeffs)
        if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError(f"cyclotomic coefficients must be int or Fraction, got {cs!r}")
        phi = euler_phi(order)
        if len(cs) != phi:
            raise ValueError(f"order {order} needs {phi} coefficients, got {len(cs)}")
        den = lcm(1, *(c.denominator for c in cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def __reduce__(self):
        return (_new, (self.order, self.nums, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (q,))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        if n < 1:
            raise ValueError(f"root-of-unity order must be >= 1, got {n}")
        return _new(n, _power_table(n)[k % n], 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        c = self.canonical()
        if c.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(c.nums[0], c.den)

    def _promoted_nums(self, m: int) -> list:
        if m == self.order:
            return list(self.nums)
        step = m // self.order
        vec = [0] * ((len(self.nums) - 1) * step + 1)
        vec[::step] = self.nums
        return group_ring_reduce(vec, m)

    def promote(self, m: int) -> "Cyclotomic":
        """Embed into Q(zeta_m); m must be a multiple of the order."""
        if m % self.order:
            raise ValueError(f"cannot promote order {self.order} to non-multiple {m}")
        return _new(m, self._promoted_nums(m), self.den)

    def canonical(self) -> "Cyclotomic":
        """Equivalent value at its conductor (least possible order)."""
        order, nums = self.order, self.nums
        for p in _prime_factors(order):
            while order % p == 0:
                down = _descend(order, nums, p)
                if down is None:
                    break
                order, nums = order // p, down
        return _new(order, nums, self.den)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return _new(1, (x.numerator,), x.denominator)
        return None

    def _aligned(self, other: "Cyclotomic"):
        m = lcm(self.order, other.order)
        return m, self._promoted_nums(m), other._promoted_nums(m)

    def _sum(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m, a, b = self._aligned(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _new(m, [x * fa + y * fb for x, y in zip(a, b)], den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._sum(self, -1)

    def __neg__(self):
        return _new(self.order, [-c for c in self.nums], self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m, a, b = self._aligned(other)
        return _new(m, _times(a, b, m), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/x = prod_{k in (Z/n)^*, k != 1} sigma_k(x) / N(x), sigma_k: z -> z^k."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        n, nums = self.order, self.nums
        adj = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = [0] * n
                for j, c in enumerate(nums):
                    conj[j * k % n] += c
                adj = _times(adj, group_ring_reduce(conj, n), n)
        norm = _times(nums, adj, n)[0]
        sign = 1 if norm > 0 else -1
        return _new(n, [sign * self.den * c for c in adj], sign * norm)

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
        if self.den != other.den:
            return False
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


def group_ring_reduce(vec, n: int) -> list:
    """Power basis coefficients in Q[z]/Phi_n of sum vec[k] z^k.

    The one reduction mod Phi_n: products, inverses, promotions and
    conductor descent all go through it.  vec may be as long as
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


def kronecker_form(values, lhs_terms: int, rhs_terms: int) -> tuple[int, list[int]]:
    """One int per value, for identities sum x1 x2 x3 = sum y1 y2 over values.

    Returns (m, ints).  The map z_N -> w = 2**shift, m = Phi_N(w), N the lcm
    of the orders, sends (sum nums[k] z_n^k) / den to
    (sum nums[k] w**(k*N/n)) * den**-1 mod m; zero goes to 0.  A side of at
    most lhs_terms products of three values equals a side of at most
    rhs_terms products of two iff lhs - rhs maps to 0 mod m.

    Why: x -> w is a ring map Z[zeta_N] -> Z/m, as Phi_N(w) = m, and it
    extends to Z[zeta_N][1/den] while gcd(den, m) = 1.  A product c of
    denominators makes y = c (lhs - rhs) integral.  If y maps to 0, then m
    divides the norm N(y) = y y', y' the product of the other conjugates:
    writing y = Y(zeta_N), y' = Y'(zeta_N), Y Y' - N(y) is a multiple of the
    monic Phi_N over Z, so Y(w) Y'(w) = N(y) mod m.  Each conjugate of y is
    at most L1(y), the sum of the |coefficients| of Y, and each factor
    |w - zeta| of m is at least w - 1, so |N(y)| <= L1(y)**phi < (w-1)**phi
    <= m once w - 1 > L1(y): then N(y) = 0 and y = 0.

    L1(y) has two bounds, and shift comes from the smaller.  With D the
    lcm of the denominators and M the largest L1 of D * value, c = D**3
    gives T_l M**3 + T_r D M**2 (T_l = lhs_terms, T_r = rhs_terms).  With
    B the largest numerator L1 and dmax the largest denominator, c = the
    product of the instance's own denominators, or D**3, whichever is less,
    gives min(D**3, dmax**(3 T_l + 2 T_r)) (T_l B**3 + T_r B**2).  While D
    shares a factor with m, shift grows by 1.  This is Kronecker
    substitution, the evaluation trick behind FLINT (Harvey, J. Symb.
    Comput. 44, 2009).
    """
    values = list(values)
    order = lcm(1, *(v.order for v in values))
    scale = lcm(1, *(v.den for v in values))
    peak = max((sum(map(abs, v.nums)) for v in values), default=0)
    top = max((scale // v.den * sum(map(abs, v.nums)) for v in values), default=0)
    dmax = max((v.den for v in values), default=1)
    own = min(scale**3, dmax ** (3 * lhs_terms + 2 * rhs_terms))
    bound = min(
        lhs_terms * top**3 + rhs_terms * scale * top**2,
        own * (lhs_terms * peak**3 + rhs_terms * peak**2),
    )
    shift = (bound + 1).bit_length()
    poly = cyclotomic_polynomial(order)
    while True:
        m = sum(c << (i * shift) for i, c in enumerate(poly))
        if gcd(m, scale) == 1:
            break
        shift += 1
    inverses = {d: pow(d, -1, m) for d in {v.den for v in values}}
    ints = []
    for v in values:
        step = order // v.order * shift
        ints.append(sum(c << (k * step) for k, c in enumerate(v.nums) if c) * inverses[v.den] % m)
    return m, ints


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
