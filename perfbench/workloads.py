"""The three workloads: their inputs, their batch of ops, and the expected
outcome of every op.

An op is one user-level call, made in a fresh process by ``opmain.py``.  A
CLI op runs ``sfckit.cli.main`` (``sfckit check ...``) with ``--jobs 1``
unless stated; the library op calls ``check_6j_invertibility`` (``libop.py``)
and is timed around the call only.

Expected outcomes are exit code, top-level ``ok``, the ``total_violations``
of each primary check (looked up by check name, so a renamed or removed
secondary re-verification does not count) and the sha256 of every file an
op writes.  Mutant totals come from oracles: on ``pointed`` the
3-cocycle check of the same flipped cube, on ``structural`` a parity count
over G^4 computed here, on ``general`` totals pinned in ``pins.json``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import gen
from sfckit.catalog import build_entry, pointed_fusion_data
from sfckit.cocycles import GroupTable, SuperCocycle, ThreeCocycle, check_3cocycle
from sfckit.serialize import fusion_file, group_file, save_file, superfusion_file

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# Gauge seed of the lift-cocycle input on ``general``: fixed, so that the
# written file has a pinned digest.
CONSTRUCTION_GAUGE_SEED = 0

SIZES = {
    "pointed": {"vec": 8, "super": 4},
    "general": {"n": 2, "group": 2},
    "structural": {"n": 6, "k": 22},
}

TINY_SIZES = {
    "pointed": {"vec": 3, "super": 2},
    "general": {"n": 1, "group": 2},
    "structural": {"n": 3, "k": 6},
}

WORKLOADS = tuple(SIZES)

# Executions per batch of an op, where not 1.  ``check --jobs 2`` also
# depends on the speed of the second processor, which the calibration does
# not see, so it runs twice where it parallelises.
REPEATS = {
    "pointed": {"check_jobs2_s": 2, "lift_cocycle_s": 2},
    "general": {"check_jobs2_s": 2},
    "structural": {},
}


@dataclass
class Op:
    """One user-level call and the outcome it must have."""

    metric: str
    kind: str  # "cli" or "lib"
    args: list
    output: str | None = None
    expect: dict = field(default_factory=dict)  # exit, ok, totals, digest


@dataclass
class Plan:
    """A workload's batch of ops over its generated inputs."""

    ops: list
    oracles: list = field(default_factory=list)  # (op, check name, callable -> total)


def _save(path: str, cf) -> str:
    save_file(path, cf)
    return path


def _check(path: str, jobs: int = 1) -> list:
    return ["check", path, "--json", "--jobs", str(jobs)]


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_key(workload: str, sizes: dict, metric: str) -> str:
    return f"{workload}:{size_tag(sizes)}:{metric}"


def size_tag(sizes: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(sizes.items()))


def cube_flip_parity_count(group: GroupTable, triple: tuple) -> int:
    """Violations of the 3-cocycle identity after negating one value.

    The identity F(a,b,c) F(a,bc,d) F(b,c,d) = F(ab,c,d) F(a,b,cd) held
    before the flip, so a quadruple fails afterwards exactly when the
    flipped triple fills an odd number of its five slots.
    """
    mul = group.mul
    elems = group.elements()
    total = 0
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    slots = (
                        (a, b, c), (a, mul(b, c), d), (b, c, d), (mul(a, b), c, d), (a, b, mul(c, d)),
                    )
                    total += sum(1 for s in slots if s == triple) % 2
    return total


# -- workloads ----------------------------------------------------------------------


def _pointed(workdir: str, seed: int, sizes: dict, pins: dict) -> Plan:
    rng = random.Random(seed)
    n, ns = sizes["vec"], sizes["super"]
    vec = build_entry("vec-zn", n)
    group, tau = vec.source["group"], vec.source["cocycle"]
    triple = tuple(rng.randrange(n) for _ in range(3))
    flipped = gen.flip_cube(tau.values, triple)
    valid = _save(os.path.join(workdir, "vec.json"), fusion_file(vec.data, vec.sixj))
    mutant = _save(os.path.join(workdir, "vec-mutant.json"), fusion_file(*pointed_fusion_data(group, flipped)))
    sup = build_entry("super-zn-even", ns)
    sfile = _save(os.path.join(workdir, "super.json"), superfusion_file(sup.data, sup.sixj))
    gfile = _save(
        os.path.join(workdir, "super-group.json"),
        group_file(sup.source["group"], supercocycle=sup.source["supercocycle"]),
    )
    out_u = os.path.join(workdir, "out-underlying.json")
    out_l = os.path.join(workdir, "out-lift.json")
    fail_op = Op("check_fail_s", "cli", _check(mutant))
    ops = [
        Op("check_s", "cli", _check(valid), expect=_passing("pentagon")),
        fail_op,
        Op("check_jobs2_s", "cli", _check(valid, 2), expect=_passing("pentagon")),
        Op("underlying_s", "cli", ["underlying", sfile, "-o", out_u, "--json", "--jobs", "1"], out_u,
           _passing("super pentagon", "pentagon")),
        Op("lift_cocycle_s", "cli", ["lift-cocycle", gfile, "-o", out_l, "--json"], out_l,
           _passing("3-supercocycle")),
        Op("sgr_s", "cli", ["sgr", sfile, "--json"], expect=_passing()),
        Op("invertibility_s", "lib", [valid], expect=_passing("6j invertibility")),
    ]
    oracle = lambda: check_3cocycle(group, ThreeCocycle(flipped), max_violations=0).total_violations
    return Plan(ops, [(fail_op, "pentagon", oracle)])


def _general(workdir: str, seed: int, sizes: dict, pins: dict) -> Plan:
    rng = random.Random(seed)
    data, table = gen.ising_times_zn(sizes["n"])
    gauged = gen.gauge(data, table, seed)
    flip_totals = pins["general_flip_totals"][size_tag(sizes)]
    keys = sorted(table.entries)
    key = keys[rng.randrange(len(keys))]
    valid = _save(os.path.join(workdir, "general.json"), fusion_file(data, gauged))
    mutant = _save(os.path.join(workdir, "general-mutant.json"), fusion_file(data, gen.flip_entry(gauged, key)))
    sdata, stable = gen.even_superfusion(*gen.ising_fusion())
    sfile = _save(os.path.join(workdir, "super.json"), superfusion_file(sdata, stable))
    source = build_entry("super-zn-even", sizes["group"]).source
    zgroup, sc = source["group"], source["supercocycle"]
    gauged_sc = SuperCocycle(sc.omega, gen.gauge_cube(zgroup, sc.values, CONSTRUCTION_GAUGE_SEED))
    gfile = _save(os.path.join(workdir, "group.json"), group_file(zgroup, supercocycle=gauged_sc))
    out_u = os.path.join(workdir, "out-underlying.json")
    out_l = os.path.join(workdir, "out-lift.json")
    total = flip_totals[key_text(key)]
    ops = [
        Op("check_s", "cli", _check(valid), expect=_passing("pentagon")),
        Op("check_fail_s", "cli", _check(mutant), expect=mutant_expect("pentagon", total)),
        Op("check_jobs2_s", "cli", _check(valid, 2), expect=_passing("pentagon")),
        Op("underlying_s", "cli", ["underlying", sfile, "-o", out_u, "--json", "--jobs", "1"], out_u,
           _passing("super pentagon", "pentagon")),
        Op("lift_cocycle_s", "cli", ["lift-cocycle", gfile, "-o", out_l, "--json"], out_l,
           _passing("3-supercocycle")),
        Op("sgr_s", "cli", ["sgr", sfile, "--json"], expect=_passing()),
        Op("invertibility_s", "lib", [valid], expect=_passing("6j invertibility")),
    ]
    return Plan(ops)


def _structural(workdir: str, seed: int, sizes: dict, pins: dict) -> Plan:
    rng = random.Random(seed)
    n = sizes["n"]
    group, omega, tau, sc = gen.carry_group_parts(n)
    triple = tuple(rng.randrange(n) for _ in range(3))
    valid = _save(os.path.join(workdir, "group.json"), group_file(group, omega, tau, sc))
    mutant = _save(
        os.path.join(workdir, "group-mutant.json"),
        group_file(group, omega, ThreeCocycle(gen.flip_cube(tau.values, triple)), sc),
    )
    ck = build_entry("ck", sizes["k"])
    sfile = _save(os.path.join(workdir, "ck.json"), superfusion_file(ck.data))
    pointed = _save(os.path.join(workdir, "pointed.json"), fusion_file(*pointed_fusion_data(group, tau)))
    out_u = os.path.join(workdir, "out-underlying.json")
    out_l = os.path.join(workdir, "out-lift.json")
    out_e = os.path.join(workdir, "out-extend.json")
    fail_op = Op("check_fail_s", "cli", _check(mutant))
    cocycle_checks = ("2-cocycle", "3-cocycle", "3-supercocycle")
    ops = [
        Op("check_s", "cli", _check(valid), expect=_passing(*cocycle_checks)),
        fail_op,
        Op("check_jobs2_s", "cli", _check(valid, 2), expect=_passing(*cocycle_checks)),
        Op("underlying_s", "cli", ["underlying", sfile, "-o", out_u, "--json"], out_u,
           _passing()),
        Op("lift_cocycle_s", "cli", ["lift-cocycle", valid, "-o", out_l, "--json"], out_l,
           _passing("3-supercocycle")),
        Op("extend_group_s", "cli", ["extend-group", valid, "-o", out_e, "--json"], out_e,
           _passing("2-cocycle")),
        Op("sgr_s", "cli", ["sgr", sfile, "--json"], expect=_passing()),
        Op("invertibility_s", "lib", [pointed], expect=_passing("6j invertibility")),
    ]
    oracle = lambda: cube_flip_parity_count(group, triple)
    return Plan(ops, [(fail_op, "3-cocycle", oracle)])


BUILDERS = {"pointed": _pointed, "general": _general, "structural": _structural}


def _passing(*checks: str) -> dict:
    return {"exit": 0, "ok": True, "totals": {name: 0 for name in checks}}


def mutant_expect(check_name: str, total: int) -> dict:
    return {"exit": 1 if total else 0, "ok": not total, "totals": {check_name: total}}


def key_text(key: tuple) -> str:
    return ",".join(map(str, key))


def build_plan(name: str, workdir: str, seed: int, sizes: dict | None = None, pins: dict | None = None) -> Plan:
    """Generate the workload's inputs into workdir and return its ops.

    Every written file must have a pinned digest unless explicit (partial)
    pins are passed, which is how pin.py builds the plans it pins.
    """
    os.makedirs(workdir, exist_ok=True)
    sizes = sizes or SIZES[name]
    strict = pins is None
    pins = load_pins() if strict else pins
    plan = BUILDERS[name](workdir, seed, sizes, pins)
    for op in plan.ops:
        if op.output:
            digest = pins["digests"].get(digest_key(name, sizes, op.metric))
            if digest is not None:
                op.expect["digest"] = digest
            elif strict:
                raise KeyError(f"{name} {size_tag(sizes)}: no pinned digest for {op.metric}; run pin.py")
    return plan


def settle_oracles(plan: Plan) -> None:
    """Fill in the mutant expectations that come from an oracle."""
    for op, check_name, oracle in plan.oracles:
        op.expect = mutant_expect(check_name, oracle())
    plan.oracles = []

