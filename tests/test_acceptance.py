"""Acceptance suite: the headline guarantees of the package.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
fails loudly with the collected deviations otherwise.  Tolerances: per-order
construction under 1 s; exhaustive searches under 10 s for orders up to 7
and under 900 s for order 9; per-loop simplicity analysis under 5 s.
"""
import itertools
import random
import time

import pytest

from jordanloops.constructions import (
    AmalgamSpec,
    adjoin_identity_with_bijection,
    antidiagonal_idempotent,
    construct,
    even_jordan,
    fermat_jordan,
    fermat_subloop_members,
    guaranteed_jordan_conditions,
    hyper_extend,
    jordan_tower,
    loop_amalgam,
    odd_jordan,
)
from jordanloops.powers import (
    element_order,
    is_well_defined,
    power_profile,
    powers_gap_loop,
    powers_gap_params,
    right_power,
    generated_subloop,
)
from jordanloops.search import SearchIncomplete, SearchOptions, classify_up_to_iso, enumerate_loops
from jordanloops.structure import is_simple
from jordanloops.tables import (
    ValidationError,
    build_magma,
    check,
    cyclic_group,
    find_isomorphism,
    squaring_bijective,
)
from oracle import power_walk, symmetric_latin_squares

ACHIEVABLE_ORDERS = [n for n in range(6, 65) if n != 9]

TOWER2_GOLDEN = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 2, 0, 4, 3, 6, 5),
    (2, 0, 1, 5, 6, 3, 4),
    (3, 4, 5, 6, 2, 1, 0),
    (4, 3, 6, 2, 5, 0, 1),
    (5, 6, 3, 1, 0, 4, 2),
    (6, 5, 4, 0, 1, 2, 3),
)

CIRC_23_GOLDEN = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 1, 0),
    (3, 2, 0, 1),
)

FIG1_BOTTOM = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 5, 6, 2, 0, 4, 3),
    (2, 6, 5, 0, 1, 3, 4),
    (3, 2, 1, 4, 3, 6, 0),
    (4, 1, 2, 3, 4, 0, 5),
    (5, 4, 0, 5, 6, 2, 1),
    (6, 0, 3, 6, 5, 1, 2),
)


def _verdict(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\n[{status}] {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_acceptance_1_construction_covers_every_achievable_order():
    failures = []
    for n in ACHIEVABLE_ORDERS:
        start = time.perf_counter()
        try:
            t = construct(n)
        except Exception as exc:  # noqa: BLE001 - collect everything
            failures.append(f"order {n}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        if t.order != n or t.kind != "loop":
            failures.append(f"order {n}: wrong shape")
        if not check(t, "jordan"):
            failures.append(f"order {n}: not a Jordan loop")
        if check(t, "associative"):
            failures.append(f"order {n}: associative")
        if elapsed >= 1.0:
            failures.append(f"order {n}: took {elapsed:.2f}s")
    for n in (5, 9):
        try:
            construct(n)
            failures.append(f"order {n}: unexpectedly constructed")
        except ValueError:
            pass
    _verdict("construction covers orders 6..64 except 9, each under 1s", failures)


def test_acceptance_2_golden_tables_are_bit_exact():
    failures = []
    if jordan_tower(1).rows != cyclic_group(3).rows:
        failures.append("depth-1 tower is not the order-3 cyclic group")
    if jordan_tower(2).rows != TOWER2_GOLDEN:
        failures.append("depth-2 tower differs from the golden 7x7 table")
    params = powers_gap_params(2, 3)
    circ = tuple(tuple(params.circ(u, v) for v in range(4)) for u in range(4))
    if circ != CIRC_23_GOLDEN:
        failures.append("auxiliary 4x4 product differs from the golden table")
    _verdict("golden tables reproduced bit-exact", failures)


def test_acceptance_3_exhaustive_enumeration_matches_theory():
    failures = []

    def classes(order):
        models, stats = enumerate_loops(SearchOptions(order=order))
        return models, classify_up_to_iso(models), stats

    try:
        models5, classes5, stats5 = classes(5)
        if len(models5) != 6:
            failures.append(f"order 5: {len(models5)} loops, expected 6")
        if len(classes5) != 1 or find_isomorphism(classes5[0], cyclic_group(5)) is None:
            failures.append("order 5: classes differ from {Z5}")
        if stats5.seconds >= 10:
            failures.append(f"order 5: {stats5.seconds:.1f}s")

        models6, _, stats6 = classes(6)
        nonassoc6 = classify_up_to_iso([m for m in models6 if not check(m, "associative")])
        if len(models6) != 66 or len(nonassoc6) != 1:
            failures.append(
                f"order 6: {len(models6)} loops / {len(nonassoc6)} nonassociative classes"
            )
        elif find_isomorphism(nonassoc6[0], even_jordan(6)) is None:
            failures.append("order 6: nonassociative class is not the doubled-quasigroup loop")
        if stats6.seconds >= 10:
            failures.append(f"order 6: {stats6.seconds:.1f}s")

        models7, _, stats7 = classes(7)
        nonassoc7 = classify_up_to_iso([m for m in models7 if not check(m, "associative")])
        if len(models7) != 240 or len(nonassoc7) != 2:
            failures.append(
                f"order 7: {len(models7)} loops / {len(nonassoc7)} nonassociative classes"
            )
        else:
            targets = [odd_jordan(7), jordan_tower(2)]
            matched = [
                [find_isomorphism(m, t) is not None for t in targets] for m in nonassoc7
            ]
            if sorted(row.index(True) for row in matched if True in row) != [0, 1]:
                failures.append("order 7: classes do not match the two standard loops")
            for m in nonassoc7:
                orders = {element_order(m, x) for x in range(1, 7)}
                if orders != {3}:
                    failures.append(f"order 7: element orders {orders} != {{3}}")
        if stats7.seconds >= 10:
            failures.append(f"order 7: {stats7.seconds:.1f}s")

        models9, classes9, stats9 = classes(9)
        nonassoc9 = [m for m in models9 if not check(m, "associative")]
        if nonassoc9:
            failures.append(f"order 9: found {len(nonassoc9)} nonassociative loops")
        if len(classes9) != 2:
            failures.append(f"order 9: {len(classes9)} classes, expected 2 (the two groups)")
        if stats9.seconds >= 900:
            failures.append(f"order 9: {stats9.seconds:.1f}s budget exceeded")
    except SearchIncomplete as exc:
        failures.append(f"search did not finish: {exc}")
    _verdict("exhaustive enumeration matches theory at orders 5, 6, 7, 9", failures)


def test_acceptance_4_power_gap_family_behaves_as_specified():
    failures = []
    for m in (2, 3, 4):
        for n in (3, 5, 7, 9):
            table, c = powers_gap_loop(m, n)
            tag = f"(m={m}, n={n})"
            if not check(table, "jordan"):
                failures.append(f"{tag}: not Jordan")
            if generated_subloop(table, [c]).members != tuple(range(table.order)):
                failures.append(f"{tag}: element {c} does not generate the loop")
            if not all(is_well_defined(table, c, k) for k in range(m * n)):
                failures.append(f"{tag}: a power below {m*n} is ambiguous")
            if is_well_defined(table, c, m * n):
                failures.append(f"{tag}: power {m*n} unexpectedly well-defined")
            for p in range(1, m):
                lhs = table.rows[right_power(table, c, p * n)][right_power(table, c, (m - p) * n)]
                if lhs == right_power(table, c, m * n):
                    failures.append(f"{tag}: split {p} fails to witness the ambiguity")
    table, c = powers_gap_loop(2, 3)
    golden = [
        (c, 4),
        (right_power(table, c, 2), 8),
        (right_power(table, c, 3), 9),
        (table.rows[9][9], 3),
        (right_power(table, c, 6), 6),
    ]
    for got, want in golden:
        if got != want:
            failures.append(f"(m=2, n=3): golden value {want} came out {got}")
    _verdict("power-gap loops: well-defined below m*n, ambiguous at m*n", failures)


def test_acceptance_5_simple_nonalternative_loops():
    failures = []
    subjects = [
        ("tower depth 2", jordan_tower(2)),
        ("tower depth 3", jordan_tower(3)),
        ("tower depth 4", jordan_tower(4)),
        ("tower depth 5", jordan_tower(5)),
        ("hypercube extension of Z7", hyper_extend(cyclic_group(7))),
    ]
    for name, t in subjects:
        start = time.perf_counter()
        if not check(t, "jordan"):
            failures.append(f"{name}: not Jordan")
        if check(t, "left-alternative"):
            failures.append(f"{name}: left-alternative")
        if not is_simple(t):
            failures.append(f"{name}: not simple")
        elapsed = time.perf_counter() - start
        if elapsed >= 5.0:
            failures.append(f"{name}: took {elapsed:.2f}s")
    _verdict("doubling towers and hypercube extensions are simple Jordan loops", failures)


def test_acceptance_6_fermat_orders_with_cyclic_subloop():
    failures = []
    for m in (4, 5, 6):
        t = fermat_jordan(m)
        tag = f"m={m}"
        if t.order != (1 << m) + 1:
            failures.append(f"{tag}: order {t.order}")
        if not check(t, "jordan"):
            failures.append(f"{tag}: not Jordan")
        if check(t, "associative"):
            failures.append(f"{tag}: associative")
        members = fermat_subloop_members(m)
        size = (1 << (m - 2)) + 1
        if len(members) != size:
            failures.append(f"{tag}: subloop size {len(members)} != {size}")
        member_set = set(members)
        closed = all(t.rows[a][b] in member_set for a in members for b in members)
        if not closed:
            failures.append(f"{tag}: subloop not closed")
        else:
            index = {e: i for i, e in enumerate(members)}
            sub = build_magma(
                size,
                [[index[t.rows[a][b]] for b in members] for a in members],
                "loop",
            )
            if find_isomorphism(sub, cyclic_group(size)) is None:
                failures.append(f"{tag}: subloop is not the cyclic group of order {size}")
    _verdict("orders 2^m+1 carry a cyclic subloop of order 2^(m-2)+1", failures)


def test_acceptance_7_property_suites(searched):
    failures = []

    # (a) squaring is a bijection exactly at odd orders
    for n in range(4, 10):
        models, _ = searched(n)
        for t in models:
            if squaring_bijective(t) != (n % 2 == 1):
                failures.append(f"squaring/parity violated at order {n}")
                break

    # (b) fifth powers are always well defined in Jordan loops
    corpus = [construct(n) for n in ACHIEVABLE_ORDERS if n <= 40]
    corpus += [jordan_tower(d) for d in (2, 3, 4)]
    corpus += [fermat_jordan(4), fermat_jordan(5)]
    corpus += [hyper_extend(cyclic_group(7))]
    corpus += [powers_gap_loop(m, n)[0] for m, n in ((2, 3), (3, 3), (2, 5), (3, 5), (2, 7), (4, 3), (2, 9))]
    for n in range(4, 10):
        corpus += searched(n)[0]
    for t in corpus:
        if not all(is_well_defined(t, c, 5) for c in range(t.order)):
            failures.append(f"a fifth power is ambiguous in a loop of order {t.order}")
            break

    # (c) the recursive well-definedness criterion matches the
    #     all-parenthesizations-agree definition, and is_well_defined both
    probe = [powers_gap_loop(2, 3)[0], jordan_tower(2), even_jordan(6), cyclic_group(8)]
    probe += searched(7)[0][:20]
    for t in probe:
        for c in range(t.order):
            sets = power_profile(t, c, 10)
            walk = len(list(power_walk(t.rows, c, 10)))
            ok = True
            for k in range(1, 11):
                ok = ok and len(sets[k]) == 1
                if is_well_defined(t, c, k) != ok or (k <= walk) != ok:
                    failures.append(f"well-definedness criterion diverges (order {t.order})")
                    break

    # (d) adjoining an identity via a bijection yields a loop exactly when
    #     the bijection is the identity map and the group part is idempotent
    one = build_magma(1, [[0]], "quasigroup")
    z2 = build_magma(2, [[0, 1], [1, 0]], "quasigroup")
    z3 = build_magma(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "quasigroup")
    for G in (one, z2, z3, antidiagonal_idempotent(3)):
        k = G.order
        idem = check(G, "idempotent")
        spec = AmalgamSpec(
            group=G,
            carrier_size=2,
            diagonal_loops={g: cyclic_group(3) for g in range(k)},
            block_quasigroups={(g, h): cyclic_group(2) for g in range(k) for h in range(k)},
        )
        for c in itertools.permutations(range(k)):
            t = adjoin_identity_with_bijection(spec, c)
            got = check(t, "latin") and all(t.rows[0][x] == x and t.rows[x][0] == x for x in range(t.order))
            want = idem and c == tuple(range(k))
            if got != want:
                failures.append(f"adjoin-identity biconditional fails for |G|={k}, c={c}")

    # (e) the sufficient Jordan conditions are exact for uniform amalgams
    #     over a nondegenerate group part (order >= 2)
    rng = random.Random(20260823)
    loops6, _ = searched(6, False)
    quasis5 = symmetric_latin_squares(5)
    gs = [antidiagonal_idempotent(3), antidiagonal_idempotent(5)]
    jordan_count = 0
    plain_count = 0
    triples = [(g, cyclic_group(3), cyclic_group(2)) for g in gs]
    triples += [(g, cyclic_group(5), cyclic_group(4)) for g in gs]
    while len(triples) < 120:
        triples.append((rng.choice(gs), rng.choice(loops6), rng.choice(quasis5)))
    for G, L, Q in triples:
        cond = guaranteed_jordan_conditions(G, L, Q)
        spec = AmalgamSpec(
            group=G,
            carrier_size=L.order - 1,
            diagonal_loops={g: L for g in range(G.order)},
            block_quasigroups={
                (g, h): Q for g in range(G.order) for h in range(G.order) if g != h
            },
        )
        jordan = check(loop_amalgam(spec), "jordan")
        if cond != jordan:
            failures.append(f"guaranteed-Jordan conditions diverge (|G|={G.order})")
        if jordan:
            jordan_count += 1
        else:
            plain_count += 1
    if jordan_count < 4 or plain_count < 4:
        failures.append(
            f"amalgam sample lacks contrast: {jordan_count} Jordan, {plain_count} not"
        )

    # (f) the shifted-identity 7x7 table is rejected with a column diagnosis
    try:
        build_magma(7, FIG1_BOTTOM, "loop")
        failures.append("shifted-identity table unexpectedly accepted")
    except ValidationError as exc:
        if "column 1 repeats symbol 1" not in str(exc):
            failures.append(f"wrong rejection diagnosis: {exc}")

    _verdict("property suites hold across the corpus", failures)
