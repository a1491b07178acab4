"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is the integer numerators of its coefficients in the power basis
1, z, ..., z^(phi(n)-1) of Q[z]/Phi_n(z), Phi_n the n-th cyclotomic
polynomial, over one positive integer denominator, in lowest terms: the
integer form of FLINT's fmpq_poly.  Phi_n is irreducible over Q, so every
nonzero value is invertible.  Arithmetic runs on ints, with no floats;
fractions.Fraction is imported only to build or test one: coeffs (so str
and rational_value) and a non-int coefficient in __init__; _coerce looks
it up in sys.modules, as no Fraction exists before its module is loaded.
The power basis is a Z-basis of Z[zeta_n], the ring of integers, so the
denominator (the least d with d * value integral) does not depend on the
order.  Values are immutable.

The exhaustive scans (pentagon, super pentagon, 3-cocycle, 3-supercocycle)
map every value to one int mod m = Phi_N(2**shift) (kronecker_form), an
exact test of each identity: a product is one int multiply, and an
instance holds iff its two sides agree mod m.  shift comes from the
smaller of two bounds on the cleared sides, one of them per term, where
each product's own denominators cancel (the row engine reduces a large m
by folding, _rowscan._Fold).  group_ring_reduce is the one reduction mod
Phi_n (products, inverses, promotions, descent, zeta): a fold mod z^n - 1,
then a division by the nonzero terms of Phi_n, which cyclotomic_polynomial
builds as a Moebius product.  No cache holds more
than O(phi(n)) ints per order.

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

import sys
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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first, monic.

    With r = rad(n), the product of the primes of n, Phi_n(x) = Phi_r(x^(n/r)),
    and for r > 1, Phi_r(x) = prod over d | r of (1 - x^d)^mu(r/d), the
    Moebius product (Arnold and Monagan, Calculating cyclotomic polynomials,
    Math. Comp. 80, 2011), worked as a power series mod x^(phi(r)+1): one
    O(phi) pass per d, a product by 1 - x^d or a running sum at stride d.
    """
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    divisors = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of n
    for p in _prime_factors(n):
        divisors += [(d * p, -mu) for d, mu in divisors]
    r = divisors[-1][0]
    phi = euler_phi(r)
    series = [1] + [0] * phi
    for e, mu in divisors:
        d = r // e  # the factor (1 - x^d)^mu(e)
        if mu > 0:
            for k in range(phi, d - 1, -1):
                series[k] -= series[k - d]
        else:
            for k in range(d, phi + 1):
                series[k] += series[k - d]
    out = [0] * (phi * (n // r) + 1)
    out[:: n // r] = series
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def _check_length(order: int, length: int) -> None:
    """A ValueError unless order takes phi(order) == length coefficients.

    phi(n) >= sqrt(n / 2), so an order above 2 * length**2 is refused
    before it is factored: a hostile order costs no time or memory."""
    if type(order) is not int:
        raise TypeError(f"cyclotomic order must be an int, got {order!r}")
    if order > 2 * length * length:
        raise ValueError(f"order {order} needs more than {length} coefficients, got {length}")
    phi = euler_phi(order)
    if length != phi:
        raise ValueError(f"order {order} needs {phi} coefficients, got {length}")


@lru_cache(maxsize=None)
def _division_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the (i, c) of each nonzero c x^i of Phi_n below x^phi(n)."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((i, c) for i, c in enumerate(poly[:-1]) if c)


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
        if not all(type(c) is int for c in cs):
            from fractions import Fraction  # off the int path, which loads no fractions

            if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in cs):
                raise TypeError(f"cyclotomic coefficients must be int or Fraction, got {cs!r}")
        _check_length(order, len(cs))
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
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (q,))

    @staticmethod
    def from_nums(order: int, nums, den: int) -> "Cyclotomic":
        """(sum nums[k] z^k) / den, for phi(order) ints nums and an int den > 0."""
        _check_length(order, len(nums))
        return _new(order, nums, den)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        if type(n) is not int:
            raise TypeError(f"root-of-unity order must be an int, got {n!r}")
        if type(k) is not int:
            raise TypeError(f"root-of-unity exponent must be an int, got {k!r}")
        if n < 1:
            raise ValueError(f"root-of-unity order must be >= 1, got {n}")
        return _new(n, group_ring_reduce([0] * (k % n) + [1], n), 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        c = self.canonical()
        if c.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return c.coeffs[0]

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
        if type(x) is int:
            return _new(1, (x,), 1)
        # a Fraction exists only once its module is loaded, so none is imported here
        Fraction = getattr(sys.modules.get("fractions"), "Fraction", int)
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
        if type(e) is not int:
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        acc, base = ONE, self
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
        return hash((c.order, c.nums, c.den))

    def __repr__(self):
        return f"Cyclotomic({self})"

    def __str__(self):
        c = self.canonical()
        if c.order == 1:
            return str(c.coeffs[0])
        terms = []
        for k, q in enumerate(c.coeffs):
            z = f"z{c.order}" if k == 1 else f"z{c.order}^{k}"
            if q:
                terms.append(str(q) if k == 0 else z if q == 1 else f"-{z}" if q == -1 else f"{q}*{z}")
        return " + ".join(terms).replace("+ -", "- ")


def group_ring_reduce(vec, n: int) -> list:
    """Power basis coefficients in Q[z]/Phi_n of sum vec[k] z^k.

    vec may have any length; up to phi(n) it is only padded with zeros.  A
    longer vec is folded mod z^n - 1, then divided by Phi_n from the top,
    each step touching only the nonzero terms of Phi_n below x^phi(n) (2 for
    Phi_24, 1 for Phi_(2^k)), which it caches: O(phi(n)) ints per order.
    Two group ring elements are the same field value iff they reduce equal.
    """
    phi, terms = _division_terms(n)
    if len(vec) <= phi:
        return list(vec) + [0] * (phi - len(vec))
    if len(vec) > n:
        out = [0] * n
        for k, c in enumerate(vec):
            if c:
                out[k % n] += c
    else:
        out = list(vec)
    for k in range(len(out) - 1, phi - 1, -1):
        c = out[k]
        if c:
            for i, a in terms:
                out[k - phi + i] -= c * a
    return out[:phi]


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
    gives T_l M**3 + T_r D M**2 (T_l = lhs_terms >= 1, T_r = rhs_terms).
    With B the largest numerator L1 and dmax the largest denominator, let c
    be the product of all S = 3 T_l + 2 T_r denominators of the instance's
    values.  In c x1 x2 x3 the term's own three denominators cancel, which
    leaves its numerators times the other S - 3 denominators; in c y1 y2,
    S - 2 remain.  Y, the sum of these integer multiples of products of
    numerator polynomials, is unreduced, and any integer Y with Y(zeta_N)
    = y serves the norm argument, so L1(y) <= T_l dmax**(S-3) B**3 +
    T_r dmax**(S-2) B**2.  Both c divide a power of D, prime to m, so y
    maps to 0 iff lhs - rhs does.  While D shares a factor with m, shift
    grows by 1.  This is Kronecker substitution, the evaluation trick
    behind FLINT (Harvey, J. Symb. Comput. 44, 2009).
    """
    values = list(values)
    keys = [(v.order, v.nums, v.den) for v in values]
    distinct = dict(zip(keys, values))  # the bound and the ints: once per distinct value
    values = distinct.values()
    order = lcm(1, *(v.order for v in values))
    scale = lcm(1, *(v.den for v in values))
    peak = max((sum(map(abs, v.nums)) for v in values), default=0)
    top = max((scale // v.den * sum(map(abs, v.nums)) for v in values), default=0)
    dmax = max((v.den for v in values), default=1)
    others = dmax ** (3 * lhs_terms + 2 * rhs_terms - 3)
    bound = min(
        lhs_terms * top**3 + rhs_terms * scale * top**2,
        others * (lhs_terms * peak**3 + rhs_terms * dmax * peak**2),
    )
    shift = (bound + 1).bit_length()
    poly = cyclotomic_polynomial(order)
    while True:
        m = sum(c << (i * shift) for i, c in enumerate(poly))
        if gcd(m, scale) == 1:
            break
        shift += 1
    inverses = {d: pow(d, -1, m) for d in {v.den for v in values}}
    image = {}
    for key, v in distinct.items():
        step = order // v.order * shift
        image[key] = sum(c << (k * step) for k, c in enumerate(v.nums) if c) * inverses[v.den] % m
    return m, [image[key] for key in keys]


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)
MINUS_ONE = Cyclotomic.rational(-1)


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k; root_of_unity(n, k)**n == 1."""
    return Cyclotomic.zeta(n, k)


def minus_one_pow(x: int) -> Cyclotomic:
    """(-1)^x for a parity bit x."""
    if type(x) is not int:
        raise TypeError(f"parity bit must be an int, got {x!r}")
    if x not in (0, 1):
        raise ValueError(f"parity bit must be 0 or 1, got {x}")
    return MINUS_ONE if x else ONE
