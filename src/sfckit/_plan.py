"""Planning a pentagon or super pentagon scan before it runs.

The number of instances that _rowscan._scan_chunk checks at each outer
quadruple has a closed form in the multiplicities (outer_weights).  It
stands in for the scan of an empty table.  _rowscan.row_scan imports this
module only for an empty table, so other commands do not compile it.
"""

from __future__ import annotations


def _paths(first, second) -> tuple:
    """The pairs (p, sum_x c_x N_p) over the summands (p, N_p) of second[x],
    for (x, c_x) in first."""
    out: dict[int, int] = {}
    for x, count in first:
        for p, nxp in second[x]:
            out[p] = out.get(p, 0) + count * nxp
    return tuple(out.items())


def outer_weights(data) -> list[int]:
    """For each outer quadruple (i, j, k, l) of the FusionData data, in scan
    order, the number of instances _rowscan._scan_chunk checks there:
    sum_p L(p) R(p), with the left and right path counts

        L(p) = sum_{m,n} N^ij_m N^mk_n N^nl_p,   R(p) = sum_{q,s} N^kl_q N^jq_s N^is_p.

    The scan compares every right path ending at p once per left path
    ending at p, so the count is exact for any multiplicities.  It is
    evaluated as sum_{n,s} A(n) C(s) T(n, s), with
    A(n) = sum_m N^ij_m N^mk_n, C(s) = sum_q N^kl_q N^jq_s and
    T(n, s) = sum_p N^nl_p N^is_p, so it costs rank**4 small sums, not a scan.
    """
    products = data._products
    r = range(data.rank)
    columns = [[products[x][b] for x in r] for b in r]  # columns[b][x]: summands of X_x x X_b
    right = [[[_paths(products[k][l], products[j]) for l in r] for k in r] for j in r]  # C by (j, k, l)
    through = []  # T by (i, l, n), a map s -> T(n, s)
    for i in r:
        into: list[list] = [[] for _ in r]  # into[p]: every (s, N^is_p)
        for s in r:
            for p, nisp in products[i][s]:
                into[p].append((s, nisp))
        through.append([[dict(_paths(products[n][l], into)) for n in r] for l in r])
    weights = []
    for i in r:
        prod_i = products[i]
        through_i = through[i]
        for j in r:
            for k in r:
                left = _paths(prod_i[j], columns[k])
                right_jk = right[j][k]
                for l in r:
                    weight = 0
                    right_jkl = right_jk[l]
                    if left and right_jkl:
                        through_il = through_i[l]
                        for n, a in left:
                            get = through_il[n].get
                            for s, c in right_jkl:
                                weight += a * c * get(s, 0)
                    weights.append(weight)
    return weights
