import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordanloops.constructions import construct, even_jordan, hyper_extend, jordan_tower
from jordanloops.powers import (
    element_order,
    generated_subloop,
    is_power_associative,
    is_well_defined,
    parenthesization_set,
    power_profile,
    powers_gap_loop,
    right_power,
)
from jordanloops.search import classify_up_to_iso
from jordanloops.structure import (
    conjugation,
    find_proper_normal_subloop,
    inner_left,
    inner_right,
    is_normal,
    is_simple,
    left_translation,
    normal_closure,
    right_translation,
)
from jordanloops.tables import (
    PROPERTY_TAGS,
    ValidationError,
    _element_keys,
    build_magma,
    check,
    cyclic_group,
    direct_product,
    find_isomorphism,
    left_divide,
    opposite,
    parse_tables,
    right_divide,
)
from oracle import (
    canonical_form,
    conjugation_reference,
    division_closure,
    inner_left_reference,
    inner_mapping_closure,
    inner_mappings,
    inner_right_reference,
    proper_normal_subloop_reference,
    random_loop,
    relabel,
)


def symmetric_group_3():
    """S3 as a loop table: elements are permutations of {0,1,2}, identity first."""
    elems = sorted(itertools.permutations(range(3)))  # identity (0,1,2) sorts first
    index = {p: i for i, p in enumerate(elems)}
    rows = [
        [index[tuple(q[p[k]] for k in range(3))] for q in elems]
        for p in elems
    ]
    return build_magma(6, rows, "loop"), elems, index


ORDER8_CLASSES = parse_tables((Path(__file__).parent / "data" / "order8_classes.txt").read_text())

# Loops on which the block-search closure is checked against the
# inner-mapping definition: towers, constructions, groups, a hypercube
# extension, every class of order 8 and the nonabelian group S3.
DIFFERENTIAL_LOOPS = (
    [jordan_tower(d) for d in (1, 2, 3, 4)]
    + [construct(n) for n in range(6, 30) if n != 9]
    + [cyclic_group(n) for n in (6, 7, 8, 12)]
    + [hyper_extend(cyclic_group(7)), symmetric_group_3()[0]]
    + ORDER8_CLASSES
)


Z6 = cyclic_group(6)

# Every public call that takes an element, with the element in each place.
ELEMENT_CALLS = {
    "left_divide a": lambda x: left_divide(Z6, x, 2),
    "left_divide b": lambda x: left_divide(Z6, 1, x),
    "right_divide a": lambda x: right_divide(Z6, x, 2),
    "right_divide b": lambda x: right_divide(Z6, 1, x),
    "left_translation": lambda x: left_translation(Z6, x),
    "right_translation": lambda x: right_translation(Z6, x),
    "inner_left x": lambda x: inner_left(Z6, x, 1),
    "inner_left y": lambda x: inner_left(Z6, 1, x),
    "inner_right x": lambda x: inner_right(Z6, x, 1),
    "inner_right y": lambda x: inner_right(Z6, 1, x),
    "conjugation": lambda x: conjugation(Z6, x),
    "is_normal": lambda x: is_normal(Z6, [0, x]),
    "normal_closure": lambda x: normal_closure(Z6, (x,)),
    "generated_subloop": lambda x: generated_subloop(Z6, (x,)),
    "right_power": lambda x: right_power(Z6, x, 2),
    "power_profile": lambda x: power_profile(Z6, x, 3),
    "parenthesization_set": lambda x: parenthesization_set(Z6, x, 3),
    "is_well_defined": lambda x: is_well_defined(Z6, x, 3),
    "element_order": lambda x: element_order(Z6, x),
}


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("name", sorted(ELEMENT_CALLS))
def test_element_out_of_range_is_value_error(name, bad):
    with pytest.raises(ValueError, match="out of range"):
        ELEMENT_CALLS[name](bad)


@pytest.mark.parametrize("bad", [1.0, 1.5, True], ids=repr)
@pytest.mark.parametrize("name", sorted(ELEMENT_CALLS))
def test_non_int_element_is_validation_error(name, bad):
    # a float would reach an index as a TypeError; True would pass as 1
    with pytest.raises(ValidationError, match="element must be an int"):
        ELEMENT_CALLS[name](bad)


class TestTranslations:
    def test_left_translation_is_row(self):
        t = cyclic_group(5)
        for x in range(5):
            assert left_translation(t, x) == t.rows[x]

    def test_right_translation_is_column(self):
        s3, _, _ = symmetric_group_3()
        for x in range(6):
            assert right_translation(s3, x) == tuple(s3.rows[z][x] for z in range(6))

    def test_translations_are_permutations(self):
        s3, _, _ = symmetric_group_3()
        for x in range(6):
            assert sorted(left_translation(s3, x)) == list(range(6))
            assert sorted(right_translation(s3, x)) == list(range(6))

    def test_requires_quasigroup(self):
        with pytest.raises(ValueError):
            left_translation(build_magma(2, [[0, 0], [1, 1]]), 0)


class TestInnerMappings:
    def test_trivial_on_abelian_groups(self):
        t = cyclic_group(7)
        ident = tuple(range(7))
        for x in range(7):
            assert conjugation(t, x) == ident
            for y in range(7):
                assert inner_left(t, x, y) == ident
                assert inner_right(t, x, y) == ident

    def test_conjugation_trivial_on_commutative_loops(self):
        t = even_jordan(8)
        ident = tuple(range(8))
        for x in range(8):
            assert conjugation(t, x) == ident

    def test_group_conjugation_formula(self):
        s3, elems, index = symmetric_group_3()
        for x, px in enumerate(elems):
            got = conjugation(s3, x)
            for z, pz in enumerate(elems):
                # z -> x^-1 * (z * x) composed as permutations
                inv = tuple(sorted(range(3), key=lambda k: px[k]))
                conj = tuple(inv[pz[px[k]]] for k in range(3))
                assert got[z] == index[conj]

    def test_inner_mappings_fix_identity(self):
        t = jordan_tower(2)
        for x in range(7):
            assert conjugation(t, x)[0] == 0
            for y in range(7):
                assert inner_left(t, x, y)[0] == 0
                assert inner_right(t, x, y)[0] == 0

    def test_inner_mappings_nontrivial_on_nonassociative_loop(self):
        t = jordan_tower(2)
        ident = tuple(range(7))
        assert any(
            inner_left(t, x, y) != ident for x in range(7) for y in range(7)
        )


class TestNormalClosure:
    def test_cyclic_subgroup_closures(self):
        t = cyclic_group(6)
        assert normal_closure(t, [2]).members == (0, 2, 4)
        assert normal_closure(t, [3]).members == (0, 3)
        assert normal_closure(t, [5]).members == tuple(range(6))
        assert normal_closure(t, []).members == (0,)

    def test_s3_closures(self):
        s3, elems, index = symmetric_group_3()
        three_cycle = index[(1, 2, 0)]
        swap = index[(1, 0, 2)]
        assert len(normal_closure(s3, [three_cycle]).members) == 3
        assert len(normal_closure(s3, [swap]).members) == 6

    def test_closure_is_normal(self):
        s3, _, index = symmetric_group_3()
        sub = normal_closure(s3, [index[(1, 2, 0)]])
        assert is_normal(s3, sub)

    def test_seed_out_of_range(self):
        t = cyclic_group(6)
        for bad in (6, -1):
            with pytest.raises(ValueError):
                normal_closure(t, [1, bad])

    def test_requires_loop(self):
        with pytest.raises(ValueError):
            normal_closure(build_magma(2, [[1, 0], [0, 1]], "quasigroup"), [1])

    def test_is_normal_rejects_non_subloop(self):
        t = cyclic_group(6)
        with pytest.raises(ValueError):
            is_normal(t, [0, 2])  # not closed: 2+2=4 missing
        with pytest.raises(ValueError):
            is_normal(t, [3])  # identity missing

    def test_non_normal_subgroup_detected(self):
        s3, _, index = symmetric_group_3()
        swap_sub = (0, index[(1, 0, 2)])
        assert not is_normal(s3, swap_sub)

    def test_subloops_of_commutative_loops_are_normal(self):
        t = even_jordan(6)
        # exponent-two: every {0, x} is a subloop
        for x in range(1, 6):
            closed = t.rows[x][x] == 0
            assert closed
            expected = is_normal(t, (0, x))
            closure = normal_closure(t, [x])
            assert expected == (closure.members == (0, x))


class TestAgainstInnerMappingOracle:
    def test_order8_classes_data(self):
        assert len(ORDER8_CLASSES) == 22
        for t in ORDER8_CLASSES:
            assert t.order == 8 and check(t, "commutative") and check(t, "jordan")
        assert len({canonical_form(t) for t in ORDER8_CLASSES}) == 22

    def test_closures_witness_and_simplicity(self):
        rng = random.Random(20260)
        for t in DIFFERENTIAL_LOOPS:
            n = t.order
            maps = inner_mappings(t)
            closures = [inner_mapping_closure(t, (x,), maps) for x in range(n)]
            for x in range(n):
                assert normal_closure(t, [x]).members == closures[x], (n, x)
            for _ in range(5):
                seed = rng.sample(range(n), 2)
                assert normal_closure(t, seed).members == inner_mapping_closure(t, seed, maps)
            proper = [c for c in closures[1:] if len(c) < n]
            witness = find_proper_normal_subloop(t)
            assert (None if witness is None else witness.members) == (proper[0] if proper else None)
            assert is_simple(t) == (not proper)

    def test_generated_subloop_matches_division_closure(self):
        rng = random.Random(20261)
        for t in DIFFERENTIAL_LOOPS:
            n = t.order
            seeds = [(x,) for x in range(n)] + [rng.sample(range(n), 2) for _ in range(5)]
            for seed in seeds:
                assert generated_subloop(t, seed).members == division_closure(t, seed), (n, seed)

    def test_orbit_witness_matches_per_element_closures(self):
        """One closure per inner-mapping orbit finds the witness that one
        closure per element finds, on every loop and a relabelling of it."""
        rng = random.Random(20263)
        loops = DIFFERENTIAL_LOOPS + [powers_gap_loop(m, n)[0] for m, n in ((2, 3), (4, 3), (3, 5), (2, 7), (3, 3))]
        verdicts = set()
        for t in loops + [relabel(t, [0, *rng.sample(range(1, t.order), t.order - 1)]) for t in loops]:
            witness, expected = find_proper_normal_subloop(t), proper_normal_subloop_reference(t)
            assert (witness and witness.members) == (expected and expected.members), t.order
            verdicts.add(expected is None)
        assert verdicts == {True, False}

    def test_power_associativity_matches_per_element_definition(self):
        """Every element's subloop, closed under both divisions, checked for
        associativity triple by triple; on the gap loops too, and on a
        random relabelling of every loop."""
        rng = random.Random(20262)
        loops = DIFFERENTIAL_LOOPS + [powers_gap_loop(m, n)[0] for m, n in ((2, 3), (4, 3), (3, 5), (2, 7))]
        verdicts = set()
        for t in loops + [relabel(t, [0, *rng.sample(range(1, t.order), t.order - 1)]) for t in loops]:
            r = t.rows
            expected = all(
                r[r[x][y]][z] == r[x][r[y][z]]
                for m in (division_closure(t, (e,)) for e in range(t.order))
                for x in m for y in m for z in m
            )
            assert is_power_associative(t) == expected, t.order
            verdicts.add(expected)
        assert verdicts == {True, False}


@st.composite
def relabelled_loops(draw, loops=DIFFERENTIAL_LOOPS):
    """A loop and a relabelling of its elements that fixes the identity 0."""
    t = draw(st.sampled_from(loops))
    return t, [0] + draw(st.permutations(range(1, t.order)))


_S3 = symmetric_group_3()[0]
# Loops whose rows and columns differ, so the column translations of
# ``normal_closure`` are exercised: S3, S3 x Z_k, and their opposites.
NONCOMMUTATIVE_LOOPS = [
    f(t) for t in [_S3] + [direct_product(_S3, cyclic_group(k)) for k in (2, 3, 5)]
    for f in (lambda t: t, opposite)
]


def test_inner_mappings_match_their_definitions():
    # a noncommutative nonassociative loop of order 5: 1*2 = 3, 2*1 = 4
    nc5 = build_magma(5, [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], "loop")
    rnd = random.Random(20261020)
    loops = NONCOMMUTATIVE_LOOPS + [nc5, opposite(nc5)] + [random_loop(n, rnd) for n in (5, 6, 7, 8)]
    for t in loops:
        n = t.order
        for x in range(n):
            assert conjugation(t, x) == conjugation_reference(t, x), (t.rows, x)
            for y in range(n):
                assert inner_left(t, x, y) == inner_left_reference(t, x, y), (t.rows, x, y)
                assert inner_right(t, x, y) == inner_right_reference(t, x, y), (t.rows, x, y)


@settings(max_examples=40)
@given(relabelled_loops(NONCOMMUTATIVE_LOOPS), st.randoms(use_true_random=False))
def test_noncommutative_closures_match_inner_mapping_oracle(case, rnd):
    t, perm = case
    u = relabel(t, perm)
    n = u.order
    assert not check(u, "commutative")
    maps = inner_mappings(u)
    closures = [inner_mapping_closure(u, (x,), maps) for x in range(n)]
    for x in range(n):
        assert normal_closure(u, [x]).members == closures[x], x
    seed = rnd.sample(range(n), 2)
    assert normal_closure(u, seed).members == inner_mapping_closure(u, seed, maps)
    proper = [c for c in closures[1:] if len(c) < n]
    assert find_proper_normal_subloop(u).members == proper[0]


@settings(max_examples=60)
@given(relabelled_loops())
def test_relabelling_maps_closures_and_simplicity(case):
    t, perm = case
    u = relabel(t, perm)
    n = t.order
    for x in range(n):
        for closure in (normal_closure, generated_subloop):
            image = tuple(sorted(perm[m] for m in closure(t, [x]).members))
            assert closure(u, [perm[x]]).members == image
    assert is_simple(u) == is_simple(t)
    for tag in PROPERTY_TAGS:
        assert check(u, tag) == check(t, tag), tag
    pi = find_isomorphism(t, u)
    assert pi is not None and sorted(pi) == list(range(n)) and pi[0] == 0
    assert all(pi[t.rows[x][y]] == u.rows[pi[x]][pi[y]] for x in range(n) for y in range(n))
    assert len(classify_up_to_iso([t, u])) == 1


@settings(max_examples=60)
@given(relabelled_loops())
@example((symmetric_group_3()[0], [0, 2, 5, 1, 4, 3]))
def test_element_keys_are_relabelling_invariant(case):
    t, perm = case
    for defect in (False, True):
        keys = _element_keys(t.rows, defect)
        image = _element_keys(relabel(t, perm).rows, defect)
        assert all(image[perm[x]] == keys[x] for x in range(t.order))


class TestSimplicity:
    def test_trivial_loop_not_simple(self):
        assert not is_simple(cyclic_group(1))

    def test_prime_cyclic_groups_simple(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert is_simple(cyclic_group(p))

    def test_composite_groups_not_simple(self):
        for n in (4, 6, 8, 9, 12):
            assert not is_simple(cyclic_group(n))
        assert not is_simple(direct_product(cyclic_group(3), cyclic_group(3)))
        s3, _, _ = symmetric_group_3()
        assert not is_simple(s3)

    def test_towers_simple(self):
        assert is_simple(jordan_tower(1))
        assert is_simple(jordan_tower(2))
        assert is_simple(jordan_tower(3))

    def test_witness(self):
        assert find_proper_normal_subloop(cyclic_group(6)).members == (0, 2, 4)
        assert find_proper_normal_subloop(cyclic_group(1)) is None
        assert find_proper_normal_subloop(cyclic_group(2)) is None
        assert find_proper_normal_subloop(jordan_tower(3)) is None

    def test_hyper_extension_of_group_simple(self):
        assert is_simple(hyper_extend(cyclic_group(7)))

    def test_requires_loop(self):
        from jordanloops.constructions import antidiagonal_idempotent

        with pytest.raises(ValueError):
            is_simple(antidiagonal_idempotent(5))


@pytest.mark.slow
@pytest.mark.parametrize("build,bound", [
    (lambda: jordan_tower(9), 5),
    (lambda: jordan_tower(10), 5),
    (lambda: jordan_tower(11), 10),
    (lambda: construct(2047), 5),
], ids=["tower 9", "tower 10", "tower 11", "construct 2047"])
def test_largest_loops_are_simple_in_time(build, bound):
    """The simplicity check took 0.15, 0.5, 2.2 and 0.12 s on these on a
    2-core VM with CPython 3.11; the bound is the acceptance suite's 5 s
    per simplicity analysis, and twice that for order 4095."""
    table = build()
    start = time.perf_counter()
    assert is_simple(table)
    assert time.perf_counter() - start < bound
