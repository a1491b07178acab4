"""Example inputs shared by the tests and tools/report_identity.py.

The paper's central pair is the Kitaev Ising table (``ising_exact_table``,
over Q(zeta_8)) and its descent to the folded Ising superfusion datum, the
first Majorana object (``descended_ising_table``), whose super pentagon fails
until ROADMAP item 1.  This module imports only public sfckit names, so a
tool can build its inputs here against an older tree's sfckit; pytest does
not collect it (no ``test_`` prefix).  No test module imports another: the
inputs they share live here, and the slow reference oracles they share in
``tests/oracles.py``, which may read private sfckit names.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

from sfckit.catalog import build_entry, ising_super
from sfckit.cocycles import GroupTable
from sfckit.envelope import build_label_set, underlying_fusion_rules
from sfckit.fusion import FusionData, SixJTable, admissible_decuples
from sfckit.scalars import ONE, ZERO, Cyclotomic, euler_phi, group_ring_reduce, root_of_unity
from sfckit.serialize import fusion_file, group_file, superfusion_file
from sfckit.superfusion import BOSONIC, SuperFusionData

CATALOG = [
    ("trivial", ()),
    ("trivial-super", ()),
    ("ising", ()),
    ("ck", (2,)),
    ("ck", (6,)),
    ("vec-zn", (2,)),
    ("vec-zn", (3, 2)),
    ("vec-zn", (4,)),
    ("vec-zn", (6,)),
    ("super-z2", (1,)),
    ("super-z2", (3,)),
    ("super-zn-even", (2,)),
    ("super-zn-even", (3, 2)),
    ("super-zn-even", (4,)),
]


def superfusion_entries_with_tables():
    """Every catalog superfusion entry that carries a fermionic 6j table."""
    return [
        build_entry("super-z2", 1),
        build_entry("super-z2", 3),
        build_entry("super-zn-even", 2, 1),
        build_entry("super-zn-even", 3, 1),
    ]


def catalog_files(name, params):
    """The catalog entry's file and, where it comes from a group, its group file."""
    entry = build_entry(name, *params)
    make = fusion_file if entry.kind == "fusion" else superfusion_file
    files = [make(entry.data, entry.sixj)]
    group = entry.source.get("group")
    if "cocycle" in entry.source:
        files.append(group_file(group, cocycle=entry.source["cocycle"]))
    if "supercocycle" in entry.source:
        files.append(group_file(group, supercocycle=entry.source["supercocycle"]))
    return files


def middle_key(table):
    """The middle key of table in sorted order: where perfbench/gen.flip_entry
    negates an entry to make a table's sign-flip mutant."""
    keys = sorted(table.entries)
    return keys[len(keys) // 2]


# -- Vec(Z/2) and the Ising pair --------------------------------------------------------


def z2_pointed():
    """Vec_{Z/2} fusion rules: labels 0, 1 with group multiplication."""
    mult = {(a, b, (a + b) % 2): 1 for a in range(2) for b in range(2)}
    return FusionData(labels=("0", "1"), unit=0, mult=mult)


def z2_table(f111):
    """6j table for Vec_{Z/2} with F(g,h,k) = 1 except F(1,1,1) = f111."""
    entries = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                ab = (a + b) % 2
                key = (a, b, ab, c, (ab + c) % 2, (b + c) % 2, 1, 1, 1, 1)
                entries[key] = f111 if (a, b, c) == (1, 1, 1) else ONE
    return SixJTable(entries)


def pointed_super(omega_fn):
    """The Z/2 rules with both objects Bosonic and the basis vector of
    Hom(a x b, a + b) of parity omega_fn(a, b)."""
    parities = {(a, b, (a + b) % 2, 1): omega_fn(a, b) for a in range(2) for b in range(2)}
    return SuperFusionData(z2_pointed(), parities, (BOSONIC, BOSONIC))


def ising_rules():
    """The Ising fusion ring on labels 1, p, X."""
    mult = {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1,
        (0, 2, 2): 1, (2, 0, 2): 1, (1, 2, 2): 1, (2, 1, 2): 1,
        (2, 2, 0): 1, (2, 2, 1): 1,
    }
    return FusionData(labels=("1", "p", "X"), unit=0, mult=mult)


def ising_exact_table():
    """The known exact Ising 6j assignment over Q(zeta_8)."""
    data = ising_rules()
    z8 = root_of_unity(8, 1)
    s = (z8 + z8**7) * Cyclotomic.rational(Fraction(1, 2))  # 1/sqrt(2)
    entries = {key: ONE for key in admissible_decuples(data)}
    for e in (0, 1):
        for f in (0, 1):
            entries[(2, 2, e, 2, 2, f, 1, 1, 1, 1)] = -s if e == f == 1 else s
    entries[(1, 2, 2, 1, 2, 2, 1, 1, 1, 1)] = -ONE
    entries[(2, 1, 2, 2, 1, 2, 1, 1, 1, 1)] = -ONE
    return data, SixJTable(entries)


def ising_broken_table():
    """ising_exact_table with one entry of its 2x2 block negated: rules that
    are not a group's, so the scan takes the row engine."""
    data, table = ising_exact_table()
    entries = dict(table.entries)
    entries[(2, 2, 1, 2, 2, 1, 1, 1, 1, 1)] = -entries[(2, 2, 1, 2, 2, 1, 1, 1, 1, 1)]
    return data, SixJTable(entries)


def untwisted_ising_entries():
    """Each admissible decuple of the Kitaev Ising table on the graded rules
    of ising_super(), written in the unambiguous graded form, as its base
    decuple and its value with the (-1)^(c * s_alpha) twist undone."""
    data = ising_super()
    rules = underlying_fusion_rules(data)
    _, ising_table = ising_exact_table()
    labels = build_label_set(data)
    # (i, j, m, s) -> {position among the basis vectors of parity s: alpha}
    inverse = {}
    for (i, j, m, alpha), s in sorted(data.parities.items()):
        alphas = inverse.setdefault((i, j, m, s), {})
        alphas[len(alphas) + 1] = alpha
    for gkey in admissible_decuples(rules):
        graded = [(labels[x].base, labels[x].grade) for x in gkey[:6]]
        (i, a), (j, b), (m, gm), (k, c), (n, gn), (t, gt) = graded
        s_a = (a + b + gm) % 2
        s_b = (gm + c + gn) % 2
        s_e = (b + c + gt) % 2
        s_f = (a + gt + gn) % 2
        base = (
            i, j, m, k, n, t,
            inverse[(i, j, m, s_a)][gkey[6]],
            inverse[(m, k, n, s_b)][gkey[7]],
            inverse[(j, k, t, s_e)][gkey[8]],
            inverse[(i, t, n, s_f)][gkey[9]],
        )
        value = ising_table.entries[gkey]
        yield base, (-value if (c and s_a) else value)


def descended_ising_table() -> SixJTable:
    """The 29 base entries on ising_super() that the Kitaev Ising table
    determines: the table descended through the inverse of the twist."""
    return SixJTable(dict(untwisted_ising_entries()))


# -- gauges, orders and mixed values ----------------------------------------------------


def generic_factor(rng, order):
    """A nonzero element of Q(zeta_order) with small random rational coefficients."""
    while True:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(order))]
        if any(coeffs):
            return Cyclotomic(order, coeffs)


def gauge(data, table, seed, orders=(8,)):
    """The table times a coboundary of seeded generic factors: same verdicts."""
    rng = random.Random(seed)
    u = {triple: generic_factor(rng, rng.choice(orders)) for triple in sorted(data.mult)}
    entries = {}
    for key, value in sorted(table.entries.items()):
        i, j, m, k, n, t = key[:6]
        entries[key] = value * u[(i, j, m)] * u[(m, k, n)] / (u[(j, k, t)] * u[(i, t, n)])
    return SixJTable(entries)


def gauge_cube(g, values, seed, orders=(8,)):
    """values times the coboundary of a seeded generic 2-cochain."""
    rng = random.Random(seed)
    u = {(a, b): generic_factor(rng, rng.choice(orders)) for a in g.elements() for b in g.elements()}
    mul = g.mul
    return [
        [
            [
                values[a][b][c] * u[(b, c)] * u[(a, mul(b, c))] / (u[(mul(a, b), c)] * u[(a, b)])
                for c in g.elements()
            ]
            for b in g.elements()
        ]
        for a in g.elements()
    ]


def table_order(values):
    """N, the lcm of the values' orders: the field the scans work in."""
    return lcm(1, *(v.order for v in values))


def mixed_order_table():
    """Garbage values of orders 1, 3, 5 and 7 on multiplicity-2 data."""
    mult = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 2}
    data = FusionData(labels=("1", "a"), unit=0, mult=mult)
    values = [
        ONE,
        root_of_unity(3, 1),
        -root_of_unity(5, 2),
        root_of_unity(7, 3) + Cyclotomic.rational(Fraction(1, 5)),
        Cyclotomic.rational(Fraction(-2, 3)),
        ZERO,
    ]
    entries = {key: values[(5 * pos + 1) % len(values)] for pos, key in enumerate(admissible_decuples(data))}
    return data, SixJTable(entries)


def multiplicity_two_table(seed):
    """Generic Q(zeta_8) values on the multiplicity-2 rules of
    mixed_order_table, whose block F^{aaa}_a is 5x5."""
    data = mixed_order_table()[0]
    rng = random.Random(seed)
    return data, SixJTable({key: generic_factor(rng, 8) for key in admissible_decuples(data)})


def vec_z2_with(values):
    """The vec-zn 2 file with its first entries, in key order, set to values."""
    entry = build_entry("vec-zn", 2)
    keys = sorted(entry.sixj.entries)
    return fusion_file(entry.data, SixJTable({**entry.sixj.entries, **dict(zip(keys, values))}))


def mixed_order_file(*orders):
    """vec-zn 2 with its first entries, in key order, set to zeta_n for n in
    orders: a fusion file at conductor lcm(2, *orders) whose pentagon fails."""
    return vec_z2_with([root_of_unity(n, 1) for n in orders])


def s3():
    """The symmetric group on three letters, permutations in lexicographic order."""
    perms = list(permutations(range(3)))
    index = {p: x for x, p in enumerate(perms)}
    product = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return GroupTable(product, identity=0)


# -- Galois conjugation ---------------------------------------------------------------------


def sigma(x, k):
    """sigma_k(x): zeta_n -> zeta_n^k on the value x of order n, for k prime
    to n, reduced mod Phi_n by scalars.group_ring_reduce."""
    vec = [0] * x.order
    for e, c in enumerate(x.nums):
        vec[e * k % x.order] += c
    return Cyclotomic.from_nums(x.order, group_ring_reduce(vec, x.order), x.den)


def conjugate(table, k):
    """sigma_k on every value of table: a field automorphism, so every
    identity holds or fails at the same instances, with conjugate sides."""
    return SixJTable({key: sigma(x, k) for key, x in table.entries.items()})


# -- superfusion rules ------------------------------------------------------------------


def all_even(data):
    """data as superfusion rules with every object Bosonic and every basis vector even."""
    parities = {(i, j, m, a): 0 for (i, j, m), n in data.mult.items() for a in range(1, n + 1)}
    return SuperFusionData(data, parities, [BOSONIC] * data.rank)


def z3_parity_broken() -> SuperFusionData:
    """Vec(Z/3) rules whose only odd basis vector is s(a, a, a2) = 1.

    The superfusion laws hold, but [a][a] = pi[a2] while [a][a2] = [1], so
    ([a][a])[a2] = pi[a] != [a] = [a]([a][a2]): K_pi is not associative.
    """
    mult = {(g, h, (g + h) % 3): 1 for g in range(3) for h in range(3)}
    base = FusionData(labels=("1", "a", "a2"), unit=0, mult=mult)
    parities = {(g, h, m, 1): int((g, h) == (1, 1)) for (g, h, m) in mult}
    return SuperFusionData(base, parities, [BOSONIC] * 3)
