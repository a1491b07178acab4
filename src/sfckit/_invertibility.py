"""6j invertibility: every associator block F^{ijk}_n square and invertible,
decided by division-free elimination.  Imported by sfckit.fusion on first
access to determinant or check_6j_invertibility, which no command runs."""

from __future__ import annotations

from itertools import product

from .fusion import FusionData, SixJTable, _hom_index, _off_support, _require_on_support
from .reporting import CheckReport, Violation
from .scalars import Cyclotomic


def _eliminate(matrix):
    """None if the square matrix of exact scalars (a falsy entry, None
    included, reads 0) is singular, else (sign, pivots, scale), the
    determinant being sign * prod(pivots) / scale.  Below each column's
    first nonzero p from the diagonal down, a row r with a nonzero x there
    becomes p r - x (pivot row): Bareiss (Math. Comp. 22, 1968) without his
    exact division, so no step inverts.  A p that scaled k rows is kept for
    k = 0, cancels for k = 1, else enters scale k - 1 times (1 up to 2x2).
    """
    rows, sign, pivots, scale = list(matrix), 1, [], 1
    while rows:
        for at, top in enumerate(rows):
            if top[0]:
                break
        else:
            return None
        if at:
            rows[at] = rows[0]  # the swap: rows[0] is not read again, top is the pivot row
            sign = -sign
        p, tail, scaled, rest = top[0], top[1:], 0, []
        for x, *row in rows[1:]:
            if x:
                row = [(p * a if a else 0) - (x * b if b else 0) for a, b in zip(row, tail)]
                scaled += 1
            rest.append(row)
        rows = rest
        if not scaled:
            pivots.append(p)
        for _ in range(scaled - 1):
            scale = p * scale
    return sign, pivots, scale


def determinant(matrix) -> Cyclotomic:
    """Exact determinant of a square matrix of int, Fraction or Cyclotomic
    entries (else TypeError) by _eliminate: one inverse at most, for scale."""
    rows = [[Cyclotomic._coerce(x) for x in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    bad = [x for row, given in zip(rows, matrix) for y, x in zip(row, given) if y is None]
    if bad:
        raise TypeError(f"determinant entries must be exact scalars, got {bad[0]!r}")
    sign, pivots, scale = _eliminate(rows) or (0, (), 1)  # sign 0: singular
    det = Cyclotomic._coerce(sign)
    for p in pivots:
        det *= p
    return det if scale == 1 else det / scale


def check_6j_invertibility(data: FusionData, table: SixJTable) -> CheckReport:
    """Check that every assembled associator block is square and invertible.

    For each (i, j, k, n) the block F^{ijk}_n has rows (m, alpha, beta) and
    columns (t, eta, phi), read from table.entries (a missing key reads 0).
    A non-square block is a fusion-data inconsistency, a block that
    _eliminate finds singular a failure; no value is inverted.
    """
    _require_on_support(_off_support(data, table))
    vectors, cells = _hom_index(data)
    get = table.entries.get
    violations, checked = [], 0
    for i, j, k in product(range(data.rank), repeat=3):
        blocks: dict[int, tuple[list, list]] = {}
        for m, va in cells[i][j]:
            for n, vb in cells[m][k]:
                blocks.setdefault(n, ([], []))[0].append((m, vectors[va][3], vectors[vb][3]))
        for t, vt in cells[j][k]:
            for n, vphi in cells[i][t]:
                blocks.setdefault(n, ([], []))[1].append((t, vectors[vt][3], vectors[vphi][3]))
        for n, (rows, cols) in sorted(blocks.items()):
            checked += 1
            if len(rows) != len(cols):
                detail = f"block is {len(rows)}x{len(cols)}: fusion-data inconsistency"
            elif _eliminate([[get((i, j, m, k, n, t, a, b, e, f)) for t, e, f in cols] for m, a, b in rows]) is None:
                detail = "block is singular"
            else:
                continue
            violations.append(Violation(instance=(i, j, k, n), detail=detail))
    return CheckReport(
        name="6j invertibility",
        ok=not violations,
        checked=checked,
        violations=violations,
        total_violations=len(violations),
    )
