"""The underlying fusion category of a superfusion datum.

Bosonic objects double into two graded labels i^0, i^1; Majorana objects keep
the single representative i^0.  Index rule (_grading): object i has count[i] =
2 // dim End(X_i) grades, and i^a (a < count[i]) sits at index first[i] + a,
with first the running sum of count.  Fusion multiplicities split by
basis-vector parity, and the 6j table lifts with the sign
(-1)^(c * s^{ij}_m(alpha)), where c is the grade of the third tensor factor.
The lifted table is materialized so the ordinary pentagon check runs on it as
a black box, keeping the verification independent of the construction path.
"""

from __future__ import annotations

from itertools import accumulate

from .fusion import FusionData, SixJTable, _products_of, check_pentagon, validate_fusion
from .reporting import DEFAULT_MAX_VIOLATIONS, CheckReport, ValidationReport, _immutable, _same_fields, _unchecked
from .superfusion import (
    FermionicSixJTable,
    SuperFusionData,
    SuperFusionError,
    _parity_pattern,
    check_super_pentagon,
)


class UnderlyingLabel:
    """A graded label i^a; Majorana objects only carry grade 0."""

    __slots__ = ("base", "grade")

    def __init__(self, base: int, grade: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "grade", grade)

    __setattr__ = __delattr__ = _immutable
    __eq__ = _same_fields

    def __hash__(self):
        return hash((self.base, self.grade))

    def __reduce__(self):
        return (UnderlyingLabel, (self.base, self.grade))


def _grading(data: SuperFusionData) -> tuple[list[int], list[int]]:
    """(count, first): object i has count[i] = 2 // dim End(X_i) grades, and
    its label i^a sits at index first[i] + a.  The same 2 // d is the weight
    of the middle object in validate_superfusion's ring law."""
    count = [2 // data.endo_dim(i) for i in range(data.rank)]
    return count, [0, *accumulate(count)]


def build_label_set(data: SuperFusionData) -> list[UnderlyingLabel]:
    """Graded labels in index order: i^0 (and i^1 when Bosonic)."""
    count, _ = _grading(data)
    return [UnderlyingLabel(i, a) for i in range(data.rank) for a in range(count[i])]


def render_label(data: SuperFusionData, label: UnderlyingLabel) -> str:
    return f"{data.labels[label.base]}^{label.grade}"


def underlying_fusion_rules(data: SuperFusionData) -> FusionData:
    """Parity-filtered multiplicities over the graded label set.

    N^{i^a j^b}_{m^c} counts the basis vectors of Hom(X_i x X_j, X_m) whose
    parity is a+b+c mod 2 (c = 0 for Majorana m).
    """
    count, first = _grading(data)
    mult: dict[tuple[int, int, int], int] = {}
    for (i, j, m), classes in data._parity_classes.items():
        for a in range(count[i]):
            for b in range(count[j]):
                for c in range(count[m]):
                    size = len(classes[(a + b + c) & 1])
                    if size:
                        mult[(first[i] + a, first[j] + b, first[m] + c)] = size
    # unchecked: the labels are distinct (each ends in its grade), and every key and count is in range and positive
    labels = tuple(render_label(data, lab) for lab in build_label_set(data))
    products = _products_of(len(labels), mult)
    return _unchecked(FusionData, labels=labels, unit=first[data.base.unit], mult=mult, _products=products)


def lift_6j(data: SuperFusionData, table: FermionicSixJTable) -> SixJTable:
    """Sign-twisted lift of a fermionic 6j table to the graded label set.

    Refuses input that fails the super pentagon or the parity-support check
    (the lift of such a table would not satisfy the pentagon identity).
    """
    pentagon = check_super_pentagon(data, table, max_violations=1)
    if not pentagon.ok:
        raise SuperFusionError(
            f"cannot lift: super pentagon fails at {pentagon.total_violations} instance(s), "
            f"e.g. {pentagon.violations[0].instance}"
        )
    return _twist(data, table)


def _twist(data: SuperFusionData, table: FermionicSixJTable) -> SixJTable:
    """The sign-twisted table; the caller has passed the support check.

    Raises SuperFusionError on a nonzero entry off the parity-admissible
    support, which has no lift.
    """
    count, first = _grading(data)
    classes = data._parity_classes
    entries = {}
    for key in sorted(table.entries):
        value = table.entries[key]
        if value.is_zero():
            continue  # identical to an absent entry under the zero convention
        (s_m, s_n, s_t, s_f), cancels = _parity_pattern(data.parities, key)
        if not cancels:
            raise SuperFusionError(f"entry {key} is not parity-admissible; it has no lift")
        i, j, m, k, n, t, alpha, beta, eta, phi = key
        # a graded Hom space holds one parity class: number each vector by its place in it
        alpha2 = classes[(i, j, m)][s_m].index(alpha) + 1
        beta2 = classes[(m, k, n)][s_n].index(beta) + 1
        eta2 = classes[(j, k, t)][s_t].index(eta) + 1
        phi2 = classes[(i, t, n)][s_f].index(phi) + 1
        fi, fj, fm, fk, fn, ft = first[i], first[j], first[m], first[k], first[n], first[t]
        for a in range(count[i]):
            for b in range(count[j]):
                for c in range(count[k]):
                    gm = (a + b + s_m) & 1
                    gt = (b + c + s_t) & 1
                    gn = (a + b + c + s_m + s_n) & 1
                    # Majorana: grade 0 only; the fourth grade a + gt + gn = s_f holds by the parity rule
                    if gm < count[m] and gn < count[n] and gt < count[t]:
                        lifted_key = (fi + a, fj + b, fm + gm, fk + c, fn + gn, ft + gt, alpha2, beta2, eta2, phi2)
                        entries[lifted_key] = -value if (c and s_m) else value
    return _unchecked(SixJTable, entries=entries)  # int keys, the table's own values or their negatives


class LiftVerification:
    """The super pentagon verdict on the input and, when it passes, the
    underlying category data with its independent pentagon check."""

    __slots__ = ("super_pentagon", "underlying", "sixj", "fusion_validation", "pentagon")

    def __init__(
        self,
        super_pentagon: CheckReport,
        underlying: FusionData | None = None,
        sixj: SixJTable | None = None,
        fusion_validation: ValidationReport | None = None,
        pentagon: CheckReport | None = None,
    ):
        self.super_pentagon = super_pentagon
        self.underlying = underlying
        self.sixj = sixj
        self.fusion_validation = fusion_validation
        self.pentagon = pentagon

    @property
    def ok(self) -> bool:
        return self.super_pentagon.ok and self.fusion_validation.ok and self.pentagon.ok


def verify_lift(
    data: SuperFusionData,
    table: FermionicSixJTable,
    *,
    max_violations: int | None = DEFAULT_MAX_VIOLATIONS,
    jobs: int = 1,
) -> LiftVerification:
    """Check the super pentagon, then build the underlying category and
    verify the pentagon on it.

    Raises SuperFusionError for a table off the parity-admissible support.
    When the super pentagon fails nothing is lifted, and only
    ``super_pentagon`` is set.  A failure after the lift is surfaced, never
    ignored: it means an implementation fault.  ``jobs`` is accepted and
    ignored: every scan runs in the calling process.
    """
    super_pentagon = check_super_pentagon(data, table, max_violations=max_violations)
    if not super_pentagon.ok:
        return LiftVerification(super_pentagon)
    rules = underlying_fusion_rules(data)
    lifted = _twist(data, table)
    return LiftVerification(
        super_pentagon=super_pentagon,
        underlying=rules,
        sixj=lifted,
        fusion_validation=validate_fusion(rules),
        pentagon=check_pentagon(rules, lifted, max_violations=max_violations),
    )
