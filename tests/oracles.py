"""Slow reference oracles that more than one test module holds a fast
engine to.

Each is written for clarity, not speed: the pentagon over its full index
space with no pruning, 6j invertibility by cofactor expansion of each
dense block, the pi-Grothendieck ring's unit and associativity checked
basis triple by basis triple, and a count of the Fractions a computation
builds.  A test module takes a shared oracle from here, never from another
test module, so each file loads once per pytest run.  Unlike
``tests/cases.py``, this module may read private sfckit names
(``reference_build_sgr`` builds on ``grothendieck._sgr_ring``).
"""

from fractions import Fraction

from sfckit import grothendieck
from sfckit.grothendieck import GrothendieckError, sgr_multiply
from sfckit.scalars import ZERO

# -- pentagon and 6j invertibility ---------------------------------------------------------


def naive_pentagon_violations(data, table):
    """Reference pentagon check over the full index space, no pruning."""
    rank = data.rank
    maxmult = max(data.mult.values(), default=1)

    def t(*key):
        return table.entries.get(key, ZERO)

    bad = set()
    idx = range(rank)
    labels = range(1, maxmult + 1)
    for i in idx:
     for j in idx:
      for k in idx:
       for l in idx:
        for m in idx:
         for n in idx:
          for p in idx:
           for q in idx:
            for s in idx:
             for alpha in labels:
              for beta in labels:
               for chi in labels:
                for gamma in labels:
                 for delta in labels:
                  for phi in labels:
                    lhs = ZERO
                    for tt in idx:
                        for eta in labels:
                            for psi in labels:
                                f1 = t(i, j, m, k, n, tt, alpha, beta, eta, psi)
                                if f1.is_zero():
                                    continue
                                for kappa in labels:
                                    f2 = t(i, tt, n, l, p, s, psi, chi, kappa, gamma)
                                    if f2.is_zero():
                                        continue
                                    f3 = t(j, k, tt, l, s, q, eta, kappa, delta, phi)
                                    if f3.is_zero():
                                        continue
                                    lhs = lhs + f1 * f2 * f3
                    rhs = ZERO
                    for eps in labels:
                        g1 = t(m, k, n, l, p, q, beta, chi, delta, eps)
                        if g1.is_zero():
                            continue
                        g2 = t(i, j, m, q, p, s, alpha, eps, phi, gamma)
                        if g2.is_zero():
                            continue
                        rhs = rhs + g1 * g2
                    if lhs != rhs:
                        bad.add((i, j, k, l, m, n, p, q, s, alpha, beta, chi, gamma, delta, phi))
    return bad


def cofactor_determinant(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    total = ZERO
    for col in range(len(matrix)):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = matrix[0][col] * cofactor_determinant(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def block_shapes(data):
    """(rows, cols) of every block F^{ijk}_n, as check_6j_invertibility assembles them."""
    shapes = []
    for i in range(data.rank):
        for j in range(data.rank):
            for k in range(data.rank):
                rows, cols = {}, {}
                for m, a in data.summands(i, j):
                    for n, b in data.summands(m, k):
                        rows.setdefault(n, []).extend((m, x, y) for x in range(1, a + 1) for y in range(1, b + 1))
                for t, c in data.summands(j, k):
                    for n, d in data.summands(i, t):
                        cols.setdefault(n, []).extend((t, x, y) for x in range(1, c + 1) for y in range(1, d + 1))
                shapes += [((i, j, k, n), (rows.get(n, []), cols.get(n, []))) for n in sorted(rows.keys() | cols.keys())]
    return shapes


def invertibility_oracle(data, table):
    """(checked, [(instance, detail)]) of check_6j_invertibility: each block
    assembled as a dense matrix of its values, a missing entry reading 0,
    and tested singular by cofactor expansion."""
    shapes = block_shapes(data)
    found = []
    for (i, j, k, n), (rows, cols) in shapes:
        if len(rows) != len(cols):
            found.append(((i, j, k, n), f"block is {len(rows)}x{len(cols)}: fusion-data inconsistency"))
            continue
        block = [[table.get((i, j, m, k, n, t, a, b, e, f)) or ZERO for t, e, f in cols] for m, a, b in rows]
        if cofactor_determinant(block) == 0:
            found.append(((i, j, k, n), "block is singular"))
    return len(shapes), found


# -- the pi-Grothendieck ring ---------------------------------------------------------------


def reference_ring_associativity(ring):
    """The first failing basis triple, as build_sgr's message, or None."""
    for i in range(ring.rank):
        for j in range(ring.rank):
            ij = sgr_multiply(ring, ring.basis_vector(i), ring.basis_vector(j))
            for k in range(ring.rank):
                left = sgr_multiply(ring, ij, ring.basis_vector(k))
                jk = sgr_multiply(ring, ring.basis_vector(j), ring.basis_vector(k))
                right = sgr_multiply(ring, ring.basis_vector(i), jk)
                if left != right:
                    return (
                        f"ring is not associative at ({ring.labels[i]}, {ring.labels[j]}, {ring.labels[k]}): "
                        f"{ring.format_element(left)} != {ring.format_element(right)}"
                    )
    return None


def outcome(build, data):
    """('ring', constants) or ('error', text) of a ring construction."""
    try:
        ring = build(data)
    except GrothendieckError as exc:
        return ("error", str(exc))
    return ("ring", ring.constants)


def reference_build_sgr(data):
    ring = grothendieck._sgr_ring(data)
    unit_vec = ring.basis_vector(ring.unit)
    for i in range(ring.rank):
        e = ring.basis_vector(i)
        if sgr_multiply(ring, unit_vec, e) != e or sgr_multiply(ring, e, unit_vec) != e:
            raise GrothendieckError(f"[{ring.labels[ring.unit]}] is not a unit at basis {ring.labels[i]}")
    message = reference_ring_associativity(ring)
    if message is not None:
        raise GrothendieckError(message)
    return ring


# -- no Fraction inside the arithmetic ---------------------------------------------------------


def count_fractions(monkeypatch, fn):
    """How many Fractions fn() constructs."""
    original = Fraction.__new__
    made = []

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        fn()
    return len(made)
