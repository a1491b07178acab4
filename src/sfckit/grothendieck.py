"""Arithmetic in Z[pi]/(pi^2 - 1) and pi-Grothendieck rings.

The ring element pi records a parity shift; Majorana classes satisfy
[X] = pi [X], so their coefficients live in Z[pi]/(1 - pi) = Z and are kept
in the canonical form (a + b) + 0*pi.  Structure constants on a Majorana
target are the rank of the Hom space over the 2-dimensional endomorphism
algebra, i.e. the (balanced) count of even basis vectors; using the raw
parity count would double them and break the unit law.
"""

from __future__ import annotations

from .fusion import associativity_defects
from .reporting import _immutable, _same_fields
from .superfusion import SuperFusionData


class GrothendieckError(Exception):
    """Inconsistent input data detected while building a ring."""


class ZPi:
    """a + b*pi with pi^2 = 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    __setattr__ = __delattr__ = _immutable
    __eq__ = _same_fields

    def __hash__(self):
        return hash((self.a, self.b))

    def __reduce__(self):
        return (ZPi, (self.a, self.b))

    def __add__(self, other: "ZPi") -> "ZPi":
        return ZPi(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ZPi") -> "ZPi":
        return ZPi(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ZPi":
        return ZPi(-self.a, -self.b)

    def __mul__(self, other: "ZPi") -> "ZPi":
        return ZPi(self.a * other.a + self.b * other.b, self.a * other.b + self.b * other.a)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            pi_part = "pi"
        elif self.b == -1:
            pi_part = "-pi"
        else:
            pi_part = f"{self.b}*pi"
        if self.a == 0:
            return pi_part
        sign = "+" if not pi_part.startswith("-") else ""
        return f"{self.a}{sign}{pi_part}"


ZPI_ZERO = ZPi(0, 0)
ZPI_ONE = ZPi(1, 0)
PI = ZPi(0, 1)


def multiplicity(data: SuperFusionData, i: int, j: int, m: int) -> ZPi:
    """[X_i (x) X_j : X_m] = n_even + n_odd * pi from the basis parities."""
    even, odd = data.parity_counts(i, j, m)
    return ZPi(even, odd)


class SGrRing:
    """The pi-Grothendieck ring presented by structure constants on simple
    classes, with the Majorana relation baked into a canonical form."""

    __slots__ = ("labels", "unit", "majorana", "constants", "_rows")

    def __init__(self, labels, unit: int, majorana, constants):
        self.labels = tuple(str(x) for x in labels)
        self.unit = unit
        self.majorana = frozenset(majorana)
        self.constants = dict(constants)
        rows: dict[tuple[int, int], list] = {}
        for (i, j, m), c in sorted(self.constants.items()):
            if not c.is_zero():
                rows.setdefault((i, j), []).append((m, c))
        self._rows = {key: tuple(value) for key, value in rows.items()}

    @property
    def rank(self) -> int:
        return len(self.labels)

    def canonical_coeff(self, m: int, z: ZPi) -> ZPi:
        """(1 - pi) annihilates Majorana classes: a + b*pi -> (a + b)."""
        if m in self.majorana:
            return ZPi(z.a + z.b, 0)
        return z

    def canonicalize(self, vec: dict[int, ZPi]) -> dict[int, ZPi]:
        out = {}
        for m, z in vec.items():
            z = self.canonical_coeff(m, z)
            if not z.is_zero():
                out[m] = z
        return out

    def basis_vector(self, i: int) -> dict[int, ZPi]:
        return {i: ZPI_ONE}

    def format_element(self, vec: dict[int, ZPi]) -> str:
        vec = self.canonicalize(vec)
        if not vec:
            return "0"
        parts = []
        for m in sorted(vec):
            z = vec[m]
            name = f"[{self.labels[m]}]"
            if z == ZPI_ONE:
                parts.append(name)
            elif z.b == 0 and z.a > 0:
                parts.append(f"{z.a}{name}")
            elif z.a == 0 and z.b == 1:
                parts.append(f"pi{name}")
            else:
                parts.append(f"({z}){name}")
        return " + ".join(parts)


def sgr_multiply(ring: SGrRing, x: dict[int, ZPi], y: dict[int, ZPi]) -> dict[int, ZPi]:
    """Bilinear extension of the structure constants, canonicalized."""
    x = ring.canonicalize(x)
    y = ring.canonicalize(y)
    out: dict[int, ZPi] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            scale = xi * yj
            for m, c in ring._rows.get((i, j), ()):
                out[m] = out.get(m, ZPI_ZERO) + scale * c
    return ring.canonicalize(out)


def _sgr_ring(data: SuperFusionData) -> SGrRing:
    """The ring with structure constants from the superfusion rules and parities."""
    base = data.base
    constants: dict[tuple[int, int, int], ZPi] = {}
    for (i, j, m), _ in base.mult.items():
        even, odd = data.parity_counts(i, j, m)
        if data.is_majorana(m):
            if even != odd:
                raise GrothendieckError(
                    f"Majorana target {data.labels[m]} has unbalanced parities "
                    f"({even} even, {odd} odd) in Hom({data.labels[i]} x {data.labels[j]}, -)"
                )
            constants[(i, j, m)] = ZPi(even, 0)
        else:
            if (data.is_majorana(i) or data.is_majorana(j)) and even != odd:
                raise GrothendieckError(
                    f"unbalanced parities ({even} even, {odd} odd) below Majorana source "
                    f"in Hom({data.labels[i]} x {data.labels[j]}, {data.labels[m]})"
                )
            constants[(i, j, m)] = ZPi(even, odd)
    majorana = [i for i in range(base.rank) if data.is_majorana(i)]
    return SGrRing(base.labels, base.unit, majorana, constants)


def _require_associative(ring: SGrRing) -> None:
    """Raise GrothendieckError at the first basis triple (i, j, k), in index
    order, where ([X_i][X_j])[X_k] != [X_i]([X_j][X_k]).

    a + b*pi -> (a + b, a - b) embeds Z[pi]/(pi^2 - 1) in Z x Z as a ring, so
    the law splits into two integer contractions of the structure constants
    (fusion.associativity_defects, one packed int per pair (i, j)), at
    pi = 1 and at pi = -1.  A Majorana coefficient is canonical as
    (a + b, 0), i.e. equal at pi = 1 and pi = -1, so at a Majorana class
    only the pi = 1 side counts: the pi = -1 contraction takes
    skip=ring.majorana, which leaves the Majorana outputs out of its packed
    ints, while a Majorana class as the middle summand m or t still enters
    with its pi = 1 value.  Ring elements are built only for the message.
    """
    rank = ring.rank
    at_one = [[[] for _ in range(rank)] for _ in range(rank)]
    at_minus_one = [[[] for _ in range(rank)] for _ in range(rank)]
    for (i, j), row in ring._rows.items():
        for m, c in row:
            plus = c.a + c.b
            at_one[i][j].append((m, plus))
            at_minus_one[i][j].append((m, plus if m in ring.majorana else c.a - c.b))
    ones = (1,) * rank
    failing = [d[:3] for d in associativity_defects(at_one, ones)[:1]]
    failing += [d[:3] for d in associativity_defects(at_minus_one, ones, skip=ring.majorana)[:1]]
    if not failing:
        return
    i, j, k = min(failing)
    e = ring.basis_vector
    left = sgr_multiply(ring, sgr_multiply(ring, e(i), e(j)), e(k))
    right = sgr_multiply(ring, e(i), sgr_multiply(ring, e(j), e(k)))
    raise GrothendieckError(
        f"ring is not associative at ({ring.labels[i]}, {ring.labels[j]}, {ring.labels[k]}): "
        f"{ring.format_element(left)} != {ring.format_element(right)}"
    )


def build_sgr(data: SuperFusionData) -> SGrRing:
    """Structure constants from the superfusion rules and parities.

    Raises GrothendieckError when the data cannot present an associative
    unital ring (a sign of inconsistent input).
    """
    ring = _sgr_ring(data)
    unit_vec = ring.basis_vector(ring.unit)
    for i in range(ring.rank):
        e = ring.basis_vector(i)
        if sgr_multiply(ring, unit_vec, e) != e or sgr_multiply(ring, e, unit_vec) != e:
            raise GrothendieckError(f"[{ring.labels[ring.unit]}] is not a unit at basis {ring.labels[i]}")
    _require_associative(ring)
    return ring


def relations_text(ring: SGrRing) -> list[str]:
    """Human-readable product relations, one line per basis pair."""
    lines = []
    for i in range(ring.rank):
        for j in range(ring.rank):
            product = dict(ring._rows.get((i, j), ()))
            lhs = f"[{ring.labels[i]}]^2" if i == j else f"[{ring.labels[i]}][{ring.labels[j]}]"
            lines.append(f"{lhs} = {ring.format_element(product)}")
    for i in sorted(ring.majorana):
        lines.append(f"[{ring.labels[i]}] = pi[{ring.labels[i]}]")
    return lines
