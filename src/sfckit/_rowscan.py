"""The row engine: the (super) pentagon scan of fusion rules that are not a group's.

The table is compiled once to associator rows: rows[v1][v2] lists the (v3,
v4, value) of each nonzero entry on the Hom basis vectors v1..v4, numbered
by fusion._hom_index (_rows).  A scan follows these rows, so it pays for the
products it adds, not for the rank**10 index space.  The values are ints,
one per value mod m (scalars.kronecker_form); the same loop, rerun on rows
of the table's own values, gives each reported violation its exact sides.
The loop reduces only by x % modulus, and three modulus objects share that
protocol: the int m; _Fold, which gives the same x % m by folding at 2**k
where that is cheaper (_reducer); and _EXACT, under which x % _EXACT is x
for the exact rerun.  The closed-form instance count of _plan stands in
for the scan of an empty table.  Every scan runs in the calling process.
fusion._run_scan imports this module only for rules that are not a
group's.
"""

from __future__ import annotations

from itertools import product

from .fusion import FusionData, _hom_index
from .reporting import Violation
from .scalars import Cyclotomic, kronecker_form

def _rows(data: FusionData, keys, values):
    """The associator rows of a table's decuple keys and values: rows[v1][v2]
    lists (v3, v4, x) for each nonzero x whose decuple has the Hom basis
    vectors (numbered by _hom_index) v1 = (i,j,m,alpha), v2 = (m,k,n,beta),
    v3 = (j,k,t,eta), v4 = (i,t,n,phi), so row (m, alpha, beta) of F^{ijk}_n."""
    number = {x: v for v, x in enumerate(_hom_index(data)[0])}
    rows = [{} for _ in number]
    for (i, j, m, k, n, t, alpha, beta, eta, phi), x in zip(keys, values):
        if x:
            row = rows[number[i, j, m, alpha]].setdefault(number[m, k, n, beta], [])
            row.append((number[j, k, t, eta], number[i, t, n, phi], x))
    return rows


def _scan_chunk(data, entries, parities, outer, max_violations):
    """Check the (super) pentagon identity over a list of outer quadruples.

    entries is (modulus, rows), rows as built by _rows: the ints of _compile
    (scalars.kronecker_form) under m or _Fold(m), where an instance fails
    iff its sides differ mod m, or for exact sides the table's own values
    under _EXACT, where x % _EXACT is x.  An instance pairs a left path va,
    vb, vc (basis vectors of Hom(i x j, m), Hom(m x k, n), Hom(n x l, p))
    with a right path vd, ve, vf (of Hom(k x l, q), Hom(j x q, s),
    Hom(i x s, p)) ending at the same p.  Per left path, each side adds its stored nonzero terms
    into a dict keyed by right path: the left side over rows[va][vb],
    rows[vpsi][vc] and rows[vt][vk], the right over rows[vb][vc] and
    rows[va][veps], times (-1)**(s(va) s(vd)) under parities (None for the
    plain pentagon, else the bit of each admissible Hom-space quadruple).
    The right paths at p are then compared in index order, a missing key
    reading 0.  Returns (the first max_violations failing instances, each
    as (instance, lhs, rhs), their total, the instances checked).
    """
    modulus, rows = entries
    vectors, cells = _hom_index(data)
    odd = None if parities is None else [parities[x] for x in vectors]
    failing = []
    total = 0
    checked = 0
    for (i, j, k, l) in outer:
        cells_i, cells_j = cells[i], cells[j]
        ends = {}  # p -> the right paths (vd, ve, vf) ending at p, in index order
        for q, vd in cells[k][l]:
            for s, ve in cells_j[q]:
                for p, vf in cells_i[s]:
                    ends.setdefault(p, []).append((vd, ve, vf))
        for m, va in cells_i[j]:
            row_a = rows[va]
            negate = odd is not None and odd[va]
            for n, vb in cells[m][k]:
                row_ab = row_a.get(vb, ())
                row_b = rows[vb]
                for p, vc in cells[n][l]:
                    paths = ends.get(p)
                    if not paths:
                        continue
                    left = {}
                    for vt, vpsi, f1 in row_ab:
                        row_t = rows[vt]
                        for vk, vf, f2 in rows[vpsi].get(vc, ()):
                            terms = row_t.get(vk)
                            if terms:
                                f12 = f1 * f2 % modulus
                                for vd, ve, f3 in terms:
                                    key = (vd, ve, vf)
                                    left[key] = left.get(key, 0) + f12 * f3
                    right = {}
                    for vd, veps, g1 in row_b.get(vc, ()):
                        if negate and odd[vd]:
                            g1 = -g1
                        for ve, vf, g2 in row_a.get(veps, ()):
                            key = (vd, ve, vf)
                            right[key] = right.get(key, 0) + g1 * g2
                    checked += len(paths)
                    for key in paths:
                        lhs, rhs = left.get(key, 0), right.get(key, 0)
                        if (lhs - rhs) % modulus:
                            total += 1
                            if max_violations is None or len(failing) < max_violations:
                                (_, _, q, delta), (_, _, s, phi) = vectors[key[0]], vectors[key[1]]
                                labels = [vectors[v][3] for v in (va, vb, vc, key[2])]  # alpha, beta, chi, gamma
                                failing.append(((i, j, k, l, m, n, p, q, s, *labels, delta, phi), lhs, rhs))
    return failing, total, checked


class _Exact:
    """The modulus of an exact scan: x % _EXACT is x."""

    def __rmod__(self, x):
        return x


_EXACT = _Exact()

# A fold strips about k - (the bits of r); below 320 one x % m was as cheap
# (CPython 3.11 on a 2-vCPU host, x a product of two residues: 2**k + 1 broke
# even at 260-290 bits, the Phi_24 form, r of k/2 bits, at about 700)
FOLD_MIN_BITS = 320


class _Fold:
    """m = 2**k + r with |r| < 2**(k/2): x % _Fold(m, k) is x % m.

    As 2**k = -r mod m, x = hi 2**k + lo folds to lo - hi r, of at most
    max(k, b - k/2) + 1 bits for x of b bits, until x has at most k + 2;
    one x % m with a quotient of a few bits ends it.
    """

    __slots__ = ("m", "k", "mask", "r", "limit")

    def __init__(self, m, k):
        self.m, self.k, self.mask, self.r, self.limit = m, k, (1 << k) - 1, m - (1 << k), k + 2

    def __rmod__(self, x):
        k, limit = self.k, self.limit
        while x.bit_length() > limit:
            x = (x & self.mask) - (x >> k) * self.r
        return x % self.m


def _reducer(m):
    """_Fold(m, k) where folding is cheaper than x % m, else m.  2**k is the
    power of 2 nearest m, so r = m - 2**k may be negative (Phi_24(w) = w**8
    - w**4 + 1).  The fold is chosen where r has at most half of k's bits
    (every power-of-two N, where r = 1, and N = 12 or 24, not a prime N)
    and each fold strips at least FOLD_MIN_BITS."""
    k = min(m.bit_length() - 1, m.bit_length(), key=lambda k: abs(m - (1 << k)))
    spare = abs(m - (1 << k)).bit_length()
    return _Fold(m, k) if 2 * spare <= k and k - spare >= FOLD_MIN_BITS else m


def _term_bounds(data):
    """(M, C): the largest multiplicity N^ab_c and the largest sum_c N^ab_c."""
    cells = [[x for _, x in cell] for row in data._products for cell in row]
    return max(max(cell, default=0) for cell in cells), max(map(sum, cells))


def _compile(data, entries):
    """The scan form (_reducer(m), rows of ints) of a table's entries.  A
    left side sums at most C M**2 products, a right side M (see
    _term_bounds)."""
    nmax, widest = _term_bounds(data)
    modulus, ints = kronecker_form(entries.values(), widest * nmax**2, nmax)
    return _reducer(modulus), _rows(data, entries, ints)


def row_scan(data, entries, parities, max_violations):
    """(violations, total, checked) of the (super) pentagon scan by _scan_chunk.

    With no entries every instance reads 0 = 0, so the count
    (_plan.outer_weights) is returned without a scan.  Otherwise one
    _scan_chunk runs over all outer quadruples.  The kept violations get
    their sides from one exact _scan_chunk run on their outer quadruples,
    over the five F-blocks read there, where each must fail too (else
    ArithmeticError).
    """
    if not entries:
        from ._plan import outer_weights  # here, so that only an empty-table scan compiles it

        return [], 0, sum(outer_weights(data))
    outer = list(product(range(data.rank), repeat=4))
    hits, total, checked = _scan_chunk(data, _compile(data, entries), parities, outer, max_violations)
    violations = []
    if hits:
        outer = sorted({hit[0][:4] for hit in hits})
        blocks = set()  # the F^{abc} read at the outer quadruples (i, j, k, l) of the hits
        for i, j, k, l in outer:
            blocks |= {(i, j, k), (j, k, l), *((i, j, q) for q, _ in data.summands(k, l))}
            blocks |= {(i, t, l) for t, _ in data.summands(j, k)} | {(m, k, l) for m, _ in data.summands(i, j)}
        kept = [key for key in entries if (key[0], key[1], key[3]) in blocks]
        exact_rows = _rows(data, kept, map(entries.get, kept))
        exact = {hit[0]: hit[1:] for hit in _scan_chunk(data, (_EXACT, exact_rows), parities, outer, None)[0]}
        for instance, _, _ in hits:
            if instance not in exact:
                raise ArithmeticError(f"pentagon instance {instance} fails mod m but holds exactly")
            violations.append(Violation(instance, *map(Cyclotomic._coerce, exact[instance])))
    return violations, total, checked
