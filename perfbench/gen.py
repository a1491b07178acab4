"""Seeded input generators for the benchmark workloads.

Everything the program under test reads is produced here and written as an
``sfc-1`` file; the program never sees a seed.  The same seed always gives
byte-identical files.

- catalog entries (``vec-zn``, ``super-zn-even``, ``ck``) come from
  ``sfckit.catalog.build_entry``, which validates them.
- ``ising_times_zn``: the Deligne product Ising x Vec(Z/n).  Ising has the
  labels 1, s, psi; the s s s -> s block over (m, t) in {1, psi}^2 is
  (1/sqrt2) [[1, 1], [1, -1]] with 1/sqrt2 = (z8 + z8^-1)/2, the entries
  F^{s psi s}_psi and F^{psi s psi}_s are -1 and every other admissible
  entry is 1 (Kitaev, Ann. Phys. 321, 2006).  Product entries are products
  of the factors' entries.
- ``gauge``: multiplies the entry at decuple (i, j, m, k, n, t, ...) by
  u(i,j,m) u(m,k,n) / (u(j,k,t) u(i,t,n)) for seeded generic factors u in
  Q(zeta_8), most of which are not roots of unity.  A gauge transform keeps
  every pentagon verdict and violation count.
- ``carry_group_parts``: Z/n with the carry 2-cocycle omega, the standard
  3-cocycle and the supercocycle z_2n^(a * carry(b, c)).
- ``flip_entry`` / ``flip_cube``: the single-sign-flip mutants.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sfckit.catalog import build_entry, standard_three_cocycle
from sfckit.cocycles import GroupTable, SuperCocycle, TwoCocycleZ2, cyclic_group
from sfckit.fusion import FusionData, SixJTable, admissible_decuples
from sfckit.scalars import ONE, Cyclotomic, root_of_unity
from sfckit.superfusion import BOSONIC, FermionicSixJTable, SuperFusionData

ISING_LABELS = ("1", "s", "psi")
INV_SQRT2 = (root_of_unity(8, 1) + root_of_unity(8, 7)) / 2


# -- Ising x Vec(Z/n) ----------------------------------------------------------------


def ising_fusion() -> tuple[FusionData, SixJTable]:
    one, s, psi = 0, 1, 2
    mult = {(one, a, a): 1 for a in range(3)}
    mult.update({(a, one, a): 1 for a in range(3)})
    mult.update({(s, s, one): 1, (s, s, psi): 1, (s, psi, s): 1, (psi, s, s): 1, (psi, psi, one): 1})
    data = FusionData(ISING_LABELS, one, mult)
    entries = {}
    for key in admissible_decuples(data):
        i, j, m, k, n, t = key[:6]
        value = ONE
        if (i, j, k, n) == (s, s, s, s):
            value = INV_SQRT2 if (m, t) != (psi, psi) else -INV_SQRT2
        elif (i, j, k, n) in ((s, psi, s, psi), (psi, s, psi, s)):
            value = -ONE
        entries[key] = value
    return data, SixJTable(entries)


def deligne_with_pointed(data: FusionData, table: SixJTable, n: int):
    """data x Vec(Z/n, standard 3-cocycle), the latter from the catalog."""
    entry = build_entry("vec-zn", n)
    zdata, ztable = entry.data, entry.sixj
    rb = zdata.rank

    def idx(a, g):
        return a * rb + g

    labels = [f"{x}.{y}" for x in data.labels for y in zdata.labels]
    mult = {
        (idx(a, g), idx(b, h), idx(c, k)): na * nz
        for (a, b, c), na in data.mult.items()
        for (g, h, k), nz in zdata.mult.items()
    }
    product = FusionData(labels, idx(data.unit, zdata.unit), mult)
    entries = {}
    for key, value in table.entries.items():
        for zkey, zvalue in ztable.entries.items():
            objs = tuple(idx(a, g) for a, g in zip(key[:6], zkey[:6]))
            entries[objs + key[6:]] = value * zvalue
    return product, SixJTable(entries)


def ising_times_zn(n: int) -> tuple[FusionData, SixJTable]:
    return deligne_with_pointed(*ising_fusion(), n)


# -- gauge transform and mutants ---------------------------------------------------


def generic_factor(rng: random.Random) -> Cyclotomic:
    """A nonzero element of Q(zeta_8) with small random rational coefficients."""
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        if any(coeffs):
            den = rng.randint(1, 3)
            return Cyclotomic(8, [Fraction(c, den) for c in coeffs])


def gauge(data: FusionData, table: SixJTable, seed: int) -> SixJTable:
    rng = random.Random(seed)
    u = {triple: generic_factor(rng) for triple in sorted(data.mult)}
    entries = {}
    for key, value in sorted(table.entries.items()):
        i, j, m, k, n, t = key[:6]
        entries[key] = value * u[(i, j, m)] * u[(m, k, n)] / (u[(j, k, t)] * u[(i, t, n)])
    return SixJTable(entries)


def flip_entry(table: SixJTable, key: tuple) -> SixJTable:
    entries = dict(table.entries)
    entries[key] = -entries[key]
    return type(table)(entries)


def flip_cube(values, triple) -> list:
    a, b, c = triple
    cube = [[list(row) for row in plane] for plane in values]
    cube[a][b][c] = -cube[a][b][c]
    return cube


def gauge_cube(group: GroupTable, values, seed: int) -> list:
    """values(a,b,c) times the coboundary of a seeded generic 2-cochain."""
    rng = random.Random(seed)
    elems = list(group.elements())
    u = {(a, b): generic_factor(rng) for a in elems for b in elems}
    mul = group.mul
    return [
        [
            [
                values[a][b][c] * u[(b, c)] * u[(a, mul(b, c))] / (u[(mul(a, b), c)] * u[(a, b)])
                for c in elems
            ]
            for b in elems
        ]
        for a in elems
    ]


# -- group + cocycle files ------------------------------------------------------------


def carry_omega(n: int) -> TwoCocycleZ2:
    return TwoCocycleZ2([[1 if a + b >= n else 0 for b in range(n)] for a in range(n)])


def carry_supercocycle_values(n: int) -> list:
    return [
        [[root_of_unity(2 * n, a * (1 if b + c >= n else 0)) for c in range(n)] for b in range(n)]
        for a in range(n)
    ]


def carry_group_parts(n: int):
    """(group, omega, 3-cocycle, supercocycle) on Z/n."""
    group = cyclic_group(n)
    omega = carry_omega(n)
    return group, omega, standard_three_cocycle(n), SuperCocycle(omega, carry_supercocycle_values(n))


def even_superfusion(data: FusionData, table: SixJTable):
    """All-Bosonic superfusion data with every Hom-space basis vector even."""
    parities = {(i, j, m, a): 0 for (i, j, m), nm in data.mult.items() for a in range(1, nm + 1)}
    return SuperFusionData(data, parities, [BOSONIC] * data.rank), FermionicSixJTable(table.entries)
