import itertools
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanloops.constructions import (
    AmalgamSpec,
    PartitionedQuasigroup,
    _adjoin_identity,
    adjoin_identity_with_bijection,
    antidiagonal_idempotent,
    construct,
    even_jordan,
    exp2_to_idempotent,
    fermat_jordan,
    fermat_subloop_members,
    guaranteed_jordan_conditions,
    hyper_extend,
    idempotent_to_exp2,
    jordan_tower,
    loop_amalgam,
    odd_jordan,
    quasigroup_amalgam,
    replace_subquasigroups,
    union_of_groups,
)
from jordanloops.powers import (
    element_order,
    is_power_associative,
    is_well_defined,
    parenthesization_set,
    power_profile,
    powers_gap_loop,
    powers_gap_params,
    right_power,
)
from jordanloops.search import PartialTable, SearchOptions, enumerate_loops, propagate
from jordanloops.structure import inner_left, is_normal, is_simple, normal_closure
from jordanloops.tables import (
    ORDER_LIMIT,
    ValidationError,
    build_magma,
    check,
    classify_up_to_iso,
    cyclic_group,
    direct_product,
    find_counterexample,
    find_isomorphism,
    identity_element,
    left_divide,
    opposite,
    parse_table,
    serialize_table,
    squaring_bijective,
)
from oracle import output_digest

TOWER2_GOLDEN = [
    [0, 1, 2, 3, 4, 5, 6],
    [1, 2, 0, 4, 3, 6, 5],
    [2, 0, 1, 5, 6, 3, 4],
    [3, 4, 5, 6, 2, 1, 0],
    [4, 3, 6, 2, 5, 0, 1],
    [5, 6, 3, 1, 0, 4, 2],
    [6, 5, 4, 0, 1, 2, 3],
]


def assert_nonassociative_jordan(table, order):
    assert table.order == order
    assert table.kind == "loop"
    assert check(table, "jordan"), find_counterexample(table, "jordan")
    assert not check(table, "associative")


def as_kind(table, kind):
    """The same rows under a different kind claim."""
    return build_magma(table.order, table.rows, kind)


def assert_valid_as_built(table):
    """A builder's table, frozen without checks, is the table build_magma
    validates from the same rows and kind."""
    assert build_magma(table.order, table.rows, table.kind) == table


def int_objects(table) -> int:
    """How many distinct int objects the cells of ``table`` hold."""
    return len({id(v) for row in table.rows for v in row})


Z2, Z3 = cyclic_group(2), cyclic_group(3)
Q3 = antidiagonal_idempotent(3)  # commutative idempotent quasigroup
M3 = as_kind(Q3, "magma")
EXP2_4 = idempotent_to_exp2(Q3)  # commutative exponent-two loop of order 4
SINGLETONS = [(0,), (1,), (2,)]  # closed blocks of the idempotent Q3
G9_PARTS = [(0, 3, 6), (0, 1, 2), (0, 4, 8), (0, 5, 7)]


def amalgam_spec(group=Q3, diagonal=Z3, block=Z2):
    """Carrier size 2 over Q3: the data of odd_jordan(7)."""
    return AmalgamSpec(
        group=group,
        carrier_size=2,
        diagonal_loops={g: diagonal for g in range(3)},
        block_quasigroups={(g, h): block for g in range(3) for h in range(3) if g != h},
    )


def amalgam_blocks(odd_one):
    """A Z2 block for every pair of Q3 except (0, 1), which gets ``odd_one``."""
    return {(g, h): odd_one if (g, h) == (0, 1) else Z2 for g in range(3) for h in range(3)}


# output_digest of construct(n) for n = 6..129, n != 9, and of
# adjoin_identity_with_bijection over amalgam_spec(block=Z2) with Z2 also on
# the diagonal pairs, for all six bijections of Q3.
CONSTRUCT_DIGEST = "f8779dfa43bb967d904352896dbd02d9594bb2a302d9fd5952bd433fcb9e6858"
ADJOIN_DIGEST = "cc12d5fee4050c352771da2178d03c359a932225991e01aac9f3972063ff2da4"

OFF_DIAGONAL = [(g, h) for g in range(3) for h in range(3) if g != h]

# Each call passes a magma where a quasigroup is required, or a quasigroup
# where a loop is required; every other argument is valid.
WRONG_KIND_CALLS = {
    "idempotent_to_exp2": lambda: idempotent_to_exp2(M3),
    "exp2_to_idempotent": lambda: exp2_to_idempotent(as_kind(EXP2_4, "quasigroup")),
    "quasigroup_amalgam outer": lambda: quasigroup_amalgam(M3, amalgam_blocks(Z2)),
    "quasigroup_amalgam block": lambda: quasigroup_amalgam(Q3, amalgam_blocks(as_kind(Z2, "magma"))),
    "AmalgamSpec.validate outer": lambda: amalgam_spec(group=M3).validate(OFF_DIAGONAL),
    "AmalgamSpec.validate diagonal": lambda: amalgam_spec(
        diagonal=as_kind(Z3, "quasigroup")).validate(OFF_DIAGONAL),
    "AmalgamSpec.validate block": lambda: amalgam_spec(
        block=as_kind(Z2, "magma")).validate(OFF_DIAGONAL),
    "guaranteed_jordan_conditions g": lambda: guaranteed_jordan_conditions(M3, Z3, Z2),
    "guaranteed_jordan_conditions l": lambda: guaranteed_jordan_conditions(
        Q3, as_kind(Z3, "quasigroup"), Z2),
    "guaranteed_jordan_conditions q": lambda: guaranteed_jordan_conditions(
        Q3, Z3, as_kind(Z2, "magma")),
    "union_of_groups group": lambda: union_of_groups(
        as_kind(direct_product(Z3, Z3), "quasigroup"), G9_PARTS, [Z2] * 4),
    "union_of_groups part": lambda: union_of_groups(
        direct_product(Z3, Z3), G9_PARTS, [Z2] * 3 + [as_kind(Z2, "magma")]),
    "PartitionedQuasigroup.validate": lambda: PartitionedQuasigroup(M3, SINGLETONS).validate(),
    "replace_subquasigroups": lambda: replace_subquasigroups(
        PartitionedQuasigroup(Q3, SINGLETONS), {0: Z2, 1: as_kind(Z2, "quasigroup"), 2: Z2}),
    "hyper_extend": lambda: hyper_extend(as_kind(Z3, "quasigroup")),
}


@pytest.mark.parametrize("name", sorted(WRONG_KIND_CALLS))
def test_wrong_kind_is_value_error(name):
    with pytest.raises(ValueError, match="requires a"):
        WRONG_KIND_CALLS[name]()


# Every builder that sizes its table from integers, just past ORDER_LIMIT
# and far past it, and the empty partial table; each must refuse before it
# allocates.
OVERSIZE_CALLS = {
    "construct": lambda: construct(ORDER_LIMIT + 1),
    "construct even": lambda: construct(ORDER_LIMIT + 2),
    "construct far": lambda: construct(10**12),
    "antidiagonal_idempotent": lambda: antidiagonal_idempotent(ORDER_LIMIT + 1),
    "cyclic_group": lambda: cyclic_group(ORDER_LIMIT + 1),
    "direct_product": lambda: direct_product(cyclic_group(65), cyclic_group(64)),
    "build_magma": lambda: build_magma(ORDER_LIMIT + 1, []),
    "fermat_jordan": lambda: fermat_jordan(ORDER_LIMIT.bit_length() - 1),
    "fermat_jordan far": lambda: fermat_jordan(10**12),
    "jordan_tower": lambda: jordan_tower(ORDER_LIMIT.bit_length() - 1),
    "jordan_tower far": lambda: jordan_tower(10**12),
    "powers_gap_loop": lambda: powers_gap_loop(2, ORDER_LIMIT // 4 + 1),
    "powers_gap_loop far": lambda: powers_gap_loop(10**12, 3),
    "fermat_subloop_members": lambda: fermat_subloop_members(ORDER_LIMIT.bit_length() - 1),
    "fermat_subloop_members far": lambda: fermat_subloop_members(40),
    "PartialTable.blank": lambda: PartialTable.blank(ORDER_LIMIT + 1),
    "PartialTable.blank far": lambda: PartialTable.blank(10**5),
    "propagate empty": lambda: propagate(PartialTable(0, ())),
}


@pytest.mark.parametrize("name", sorted(OVERSIZE_CALLS))
def test_oversize_order_is_value_error(name):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="supported"):
            OVERSIZE_CALLS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any table of that size was built


# Orders, depths, exponents, cells and elements that are not plain ints: each
# call must refuse the argument before any arithmetic or comparison on it.
NON_INT_CALLS = {
    "build_magma": lambda v: build_magma(v, [[0]]),
    "cyclic_group": cyclic_group,
    "construct": construct,
    "PartialTable.blank": PartialTable.blank,
    "enumerate_loops": lambda v: enumerate_loops(SearchOptions(order=v)),
    "jordan_tower": jordan_tower,
    "fermat_jordan": fermat_jordan,
    "fermat_subloop_members": fermat_subloop_members,
    "powers_gap_params m": lambda v: powers_gap_params(v, 3),
    "powers_gap_params n": lambda v: powers_gap_params(2, v),
    "antidiagonal_idempotent": antidiagonal_idempotent,
    "even_jordan": even_jordan,
    "odd_jordan": odd_jordan,
    "right_power": lambda v: right_power(cyclic_group(5), 1, v),
    "power_profile": lambda v: power_profile(cyclic_group(5), 1, v),
    "power_profile cap": lambda v: power_profile(cyclic_group(5), 1, 3, cap=v),
    "parenthesization_set": lambda v: parenthesization_set(cyclic_group(5), 1, v),
    "is_well_defined": lambda v: is_well_defined(cyclic_group(5), 1, v),
    "PartialTable cell": lambda v: PartialTable(2, (0, 1, 1, v)),
    "AmalgamSpec carrier_size": lambda v: AmalgamSpec(Q3, v, {}, {}).validate(()),
    "adjoin_identity_with_bijection": lambda v: adjoin_identity_with_bijection(amalgam_spec(), (0, 1, v)),
    "PartitionedQuasigroup": lambda v: replace_subquasigroups(PartitionedQuasigroup(Q3, [(v,), (1,), (2,)]), {}),
}


@pytest.mark.parametrize("value", [2.0, 3.0, 8.0, True, "3"], ids=repr)
@pytest.mark.parametrize("name", sorted(NON_INT_CALLS))
def test_non_int_argument_is_validation_error(name, value):
    # refused under the value given: even_jordan(8.0) once named the 7.0 it passed on
    with pytest.raises(ValidationError, match=f"must be an int, got {re.escape(repr(value))}$"):
        NON_INT_CALLS[name](value)


# Each call is given a string where it expects a table (T is that argument)
# and must refuse it with ValidationError, not an AttributeError.
T = "x"
NON_TABLE_CALLS = {
    "find_isomorphism": lambda: find_isomorphism(Z3, T),
    "left_divide": lambda: left_divide(T, 1, 1),
    "classify_up_to_iso": lambda: classify_up_to_iso([Z3, T]),
    "is_simple": lambda: is_simple(T),
    "normal_closure": lambda: normal_closure(T, [1]),
    "inner_left": lambda: inner_left(T, 1, 1),
    "is_normal": lambda: is_normal(T, [0]),
    "power_profile": lambda: power_profile(T, 1, 3),
    "right_power": lambda: right_power(T, 1, 3),
    "element_order": lambda: element_order(T, 1),
    "is_power_associative": lambda: is_power_associative(T),
    "hyper_extend": lambda: hyper_extend(T),
    "idempotent_to_exp2": lambda: idempotent_to_exp2(T),
    "exp2_to_idempotent": lambda: exp2_to_idempotent(T),
    "guaranteed_jordan_conditions": lambda: guaranteed_jordan_conditions(T, Z3, Q3),
    "union_of_groups": lambda: union_of_groups(T, [[0]], [Z3]),
    "union_of_groups part": lambda: union_of_groups(Z3, [[0, 1, 2]], [T]),
    "PartitionedQuasigroup": lambda: replace_subquasigroups(PartitionedQuasigroup(T, [(0,), (1,), (2,)]), {}),
    "quasigroup_amalgam": lambda: quasigroup_amalgam(T, {(0, 0): Z2}),
    "quasigroup_amalgam block": lambda: quasigroup_amalgam(Q3, {(g, h): T for g in range(3) for h in range(3)}),
    "check": lambda: check(T, "jordan"),
    "find_counterexample": lambda: find_counterexample(T, "latin"),
    "squaring_bijective": lambda: squaring_bijective(T),
    "opposite": lambda: opposite(T),
    "direct_product": lambda: direct_product(Z3, T),
    "direct_product first": lambda: direct_product(T, Z3),
    "serialize_table": lambda: serialize_table(T),
    "identity_element": lambda: identity_element(T),
    "PartialTable.from_table": lambda: PartialTable.from_table(T),
}


@pytest.mark.parametrize("name", sorted(NON_TABLE_CALLS))
def test_non_table_argument_is_validation_error(name):
    with pytest.raises(ValidationError, match="requires a MagmaTable, got str$"):
        NON_TABLE_CALLS[name]()


def test_amalgam_names_its_first_missing_block():
    with pytest.raises(ValueError, match=r"missing block quasigroup for pair \(0, 0\)"):
        quasigroup_amalgam(Q3, {})


# A noncommutative loop of order 5: 1*2 = 3 but 2*1 = 4.
NONCOMMUTATIVE5 = build_magma(
    5, [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], "loop")
Z3_SQUARED = direct_product(Z3, Z3)
# a*b = a + 2b mod 3 breaks the Jordan law: x*x = 0, and 0*(y*x) = 2y + x
# but (0*y)*x = 2y + 2x.
NON_JORDAN3 = build_magma(3, [[(a + 2 * b) % 3 for b in range(3)] for a in range(3)], "quasigroup")

# Each call breaks one argument guard, with every other argument valid:
# (call, exception, fragment of the message).
ARGUMENT_GUARDS = {
    "AmalgamSpec carrier size": (
        lambda: AmalgamSpec(Q3, 0, {}, {}).validate(()), ValueError, "carrier size must be positive, got 0"),
    "AmalgamSpec missing diagonal": (
        lambda: AmalgamSpec(Q3, 2, {}, {}).validate(()), ValueError, "missing diagonal loop for 0"),
    "AmalgamSpec diagonal order": (
        lambda: amalgam_spec(diagonal=Z2).validate(OFF_DIAGONAL), ValueError,
        "diagonal loop for 0 must be a loop of order 3"),
    "AmalgamSpec block order": (
        lambda: amalgam_spec(block=Z3).validate(OFF_DIAGONAL), ValueError,
        "block for pair (0, 1) must be a quasigroup of order 2"),
    "union_of_groups part count": (
        lambda: union_of_groups(Z3_SQUARED, G9_PARTS, [Z2]), ValueError, "need one quasigroup per part"),
    "union_of_groups identity": (
        lambda: union_of_groups(Z3_SQUARED, [(3, 6), *G9_PARTS[1:]], [Z2] * 4), ValueError,
        "every part must contain the identity 0"),
    "union_of_groups non-Jordan part": (
        lambda: union_of_groups(cyclic_group(4), [(0, 1, 2, 3)], [NON_JORDAN3]), ValueError,
        "quasigroup 0 is not a Jordan quasigroup"),
    "replace_subquasigroups missing": (
        lambda: replace_subquasigroups(PartitionedQuasigroup(Q3, SINGLETONS), {}), ValueError,
        "missing replacement loop for block 0"),
    "replace_subquasigroups order": (
        lambda: replace_subquasigroups(PartitionedQuasigroup(Q3, SINGLETONS), {0: Z3, 1: Z2, 2: Z2}),
        ValueError, "replacement 0 must be a loop of order 2"),
    "hyper_extend noncommutative": (
        lambda: hyper_extend(NONCOMMUTATIVE5), ValueError, "input must be a commutative loop"),
    "power_profile max_k": (
        lambda: power_profile(Z3, 1, 0), ValueError, "exponent must be positive, got 0"),
    "is_well_defined k": (
        lambda: is_well_defined(Z3, 1, -1), ValueError, "exponent must be nonnegative, got -1"),
    "parse_table order": (
        lambda: parse_table("order x\nkind loop\n"), ValidationError, "bad order 'x'"),
    "MagmaTable attribute": (
        lambda: setattr(Z3, "order", 4), AttributeError, "MagmaTable is immutable"),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_GUARDS))
def test_argument_guard(name):
    call, exception, fragment = ARGUMENT_GUARDS[name]
    with pytest.raises(exception, match=re.escape(fragment)):
        call()


def test_exponent_two_witness_on_a_non_latin_table():
    # 0 is an identity, so the Latin check runs and names the repeat
    table = build_magma(3, [[0, 1, 2], [1, 1, 0], [2, 0, 1]], "magma")
    assert find_counterexample(table, "exponent-two") == "column 1 repeats symbol 1"


class TestCorrespondence:
    def test_antidiagonal_is_commutative_idempotent(self):
        for n in (1, 3, 5, 7, 9, 11):
            q = antidiagonal_idempotent(n)
            assert q.order == n and q.kind == "quasigroup"
            assert check(q, "commutative") and check(q, "idempotent")

    def test_antidiagonal_rejects_even(self):
        for n in (0, 2, 4):
            with pytest.raises(ValueError):
                antidiagonal_idempotent(n)

    def test_antidiagonal_formula(self):
        q = antidiagonal_idempotent(5)
        inv2 = 3  # 2 * 3 = 6 = 1 mod 5
        for a in range(5):
            for b in range(5):
                assert q.rows[a][b] == (a + b) * inv2 % 5

    def test_idempotent_to_exp2(self):
        for n in (3, 5, 7):
            loop = idempotent_to_exp2(antidiagonal_idempotent(n))
            assert loop.order == n + 1 and loop.kind == "loop"
            assert check(loop, "commutative") and check(loop, "exponent-two")

    def test_round_trip_both_ways(self):
        for n in (3, 5, 7, 9):
            q = antidiagonal_idempotent(n)
            assert exp2_to_idempotent(idempotent_to_exp2(q)) == q
        loop = even_jordan(8)
        assert idempotent_to_exp2(exp2_to_idempotent(loop)) == loop

    def test_idempotent_to_exp2_validates(self):
        with pytest.raises(ValueError):
            idempotent_to_exp2(cyclic_group(3))  # not idempotent

    def test_exp2_to_idempotent_validates(self):
        with pytest.raises(ValueError):
            exp2_to_idempotent(cyclic_group(4))  # not exponent two
        with pytest.raises(ValueError):
            exp2_to_idempotent(cyclic_group(1))  # trivial loop excluded


class TestEvenJordan:
    def test_small_even_orders(self):
        for n in (6, 8, 10, 12, 20):
            assert_nonassociative_jordan(even_jordan(n), n)
            assert check(even_jordan(n), "exponent-two")

    def test_rejects_bad_orders(self):
        for n in (4, 5, 7, 2):
            with pytest.raises(ValueError):
                even_jordan(n)


class TestAmalgams:
    def fig_parts(self):
        g = build_magma(3, [[2, 0, 1], [0, 1, 2], [1, 2, 0]], "quasigroup")
        form1 = build_magma(2, [[0, 1], [1, 0]], "quasigroup")
        form2 = build_magma(2, [[1, 0], [0, 1]], "quasigroup")
        kinds = {
            (0, 0): 1, (0, 1): 1, (0, 2): 2,
            (1, 0): 2, (1, 1): 2, (1, 2): 2,
            (2, 0): 1, (2, 1): 1, (2, 2): 2,
        }
        blocks = {p: (form1 if k == 1 else form2) for p, k in kinds.items()}
        return g, blocks

    def test_quasigroup_amalgam_golden(self):
        g, blocks = self.fig_parts()
        top = quasigroup_amalgam(g, blocks)
        assert top.kind == "quasigroup" and top.order == 6
        assert [list(r) for r in top.rows] == [
            [4, 5, 0, 1, 3, 2],
            [5, 4, 1, 0, 2, 3],
            [1, 0, 3, 2, 5, 4],
            [0, 1, 2, 3, 4, 5],
            [2, 3, 4, 5, 1, 0],
            [3, 2, 5, 4, 0, 1],
        ]

    def test_adjoin_with_shifting_bijection_golden(self):
        g, blocks = self.fig_parts()
        spec = AmalgamSpec(
            group=g,
            carrier_size=2,
            diagonal_loops={h: cyclic_group(3) for h in range(3)},
            block_quasigroups=blocks,
        )
        bottom = adjoin_identity_with_bijection(spec, (1, 2, 0))
        assert bottom.kind == "magma" and bottom.order == 7
        assert [list(r) for r in bottom.rows] == [
            [0, 1, 2, 3, 4, 5, 6],
            [1, 5, 6, 2, 0, 4, 3],
            [2, 6, 5, 0, 1, 3, 4],
            [3, 2, 1, 4, 3, 6, 0],
            [4, 1, 2, 3, 4, 0, 5],
            [5, 4, 0, 5, 6, 2, 1],
            [6, 0, 3, 6, 5, 1, 2],
        ]
        with pytest.raises(ValidationError, match="column 1 repeats symbol 1"):
            build_magma(7, bottom.rows, "loop")

    def test_adjoin_identity_every_bijection_pinned(self):
        spec = AmalgamSpec(
            group=Q3,
            carrier_size=2,
            diagonal_loops={g: Z3 for g in range(3)},
            block_quasigroups={(g, h): Z2 for g in range(3) for h in range(3)},
        )
        tables = [adjoin_identity_with_bijection(spec, c) for c in itertools.permutations(range(3))]
        assert output_digest(tables) == ADJOIN_DIGEST
        for table in tables:
            assert_valid_as_built(table)

    def test_adjoin_identity_bijection_validated(self):
        g, blocks = self.fig_parts()
        spec = AmalgamSpec(
            group=g,
            carrier_size=2,
            diagonal_loops={h: cyclic_group(3) for h in range(3)},
            block_quasigroups=blocks,
        )
        with pytest.raises(ValueError):
            adjoin_identity_with_bijection(spec, (0, 0, 1))
        with pytest.raises(ValueError):
            adjoin_identity_with_bijection(spec, (0, 1))

    def test_loop_amalgam_requires_idempotent_group(self):
        blocks = {
            (i, j): build_magma(2, [[0, 1], [1, 0]], "quasigroup")
            for i in range(2)
            for j in range(2)
        }
        spec = AmalgamSpec(
            group=cyclic_group(2),
            carrier_size=2,
            diagonal_loops={h: cyclic_group(3) for h in range(2)},
            block_quasigroups=blocks,
        )
        with pytest.raises(ValueError):
            loop_amalgam(spec)

    def test_loop_amalgam_identity_bijection_is_loop(self):
        g = antidiagonal_idempotent(3)
        blocks = {
            (i, j): cyclic_group(2)
            for i in range(3)
            for j in range(3)
            if i != j
        }
        spec = AmalgamSpec(
            group=g,
            carrier_size=2,
            diagonal_loops={h: cyclic_group(3) for h in range(3)},
            block_quasigroups=blocks,
        )
        loop = loop_amalgam(spec)
        assert loop.kind == "loop" and loop.order == 7
        assert check(loop, "commutative")

    def test_amalgam_spec_missing_block(self):
        g = antidiagonal_idempotent(3)
        spec = AmalgamSpec(
            group=g,
            carrier_size=2,
            diagonal_loops={h: cyclic_group(3) for h in range(3)},
            block_quasigroups={},
        )
        with pytest.raises(ValueError):
            loop_amalgam(spec)

    def test_guaranteed_jordan_conditions(self):
        # the parts used by the odd-order construction satisfy the conditions
        g = antidiagonal_idempotent(3)
        assert guaranteed_jordan_conditions(g, cyclic_group(3), cyclic_group(2))
        with pytest.raises(ValueError):
            guaranteed_jordan_conditions(g, cyclic_group(4), cyclic_group(2))


class TestOddJordan:
    def test_small_odd_orders(self):
        for n in (7, 11, 13, 15, 21, 25):
            assert_nonassociative_jordan(odd_jordan(n), n)

    @pytest.mark.parametrize("n", [7, 11, 13, 19, 21, 25, 27])
    def test_odd_jordan_is_the_loop_amalgam(self, n):
        """The block-replaced direct product against the paper's amalgam:
        Z_(s+1) on every diagonal block, Z_s on every other, n - 1 = s*k."""
        s = (n - 1) & (1 - n)
        k = (n - 1) // s
        spec = AmalgamSpec(
            group=antidiagonal_idempotent(k),
            carrier_size=s,
            diagonal_loops={g: cyclic_group(s + 1) for g in range(k)},
            block_quasigroups={(g, h): cyclic_group(s) for g in range(k) for h in range(k) if g != h},
        )
        assert odd_jordan(n) == loop_amalgam(spec)

    def test_rejects_bad_orders(self):
        for n in (5, 9, 6, 17):  # 17 = 2^4 + 1 has no odd part k >= 3
            with pytest.raises(ValueError):
                odd_jordan(n)


class TestUnionOfGroups:
    def z3z3_parts(self):
        from jordanloops.tables import direct_product

        g = direct_product(cyclic_group(3), cyclic_group(3))
        parts = [(0, 3, 6), (0, 1, 2), (0, 4, 8), (0, 5, 7)]
        quasis = [cyclic_group(2)] * 4
        return g, parts, quasis

    def test_union_builds_quasigroup(self):
        g, parts, quasis = self.z3z3_parts()
        q = union_of_groups(g, parts, quasis)
        assert q.order == 8 and q.kind == "quasigroup"
        assert check(q, "commutative")

    def test_union_validations(self):
        g, parts, quasis = self.z3z3_parts()
        with pytest.raises(ValueError):
            union_of_groups(even_jordan(6), [(0, 1, 2), (0, 3, 4, 5)], [cyclic_group(2), cyclic_group(3)])
        with pytest.raises(ValueError):
            union_of_groups(g, parts[:3], quasis[:3])  # does not cover
        with pytest.raises(ValueError):
            union_of_groups(g, [(0, 3, 6), (0, 3, 6), (0, 1, 2), (0, 4, 8), (0, 5, 7)], [cyclic_group(2)] * 5)
        with pytest.raises(ValueError):
            union_of_groups(g, parts, [cyclic_group(3)] * 4)  # wrong quasi order
        with pytest.raises(ValueError):
            union_of_groups(g, [(0, 1), (0, 2)], [cyclic_group(1)] * 2)  # not subgroups


class TestReplacement:
    def test_partitioned_quasigroup_validation(self):
        q = union_of_groups(*TestUnionOfGroups().z3z3_parts())
        blocks = ((2, 5), (0, 1), (3, 7), (4, 6))
        pq = PartitionedQuasigroup(q, blocks)
        pq.validate()
        incomplete = PartitionedQuasigroup(q, blocks[:2])
        with pytest.raises(ValueError, match="partition"):
            incomplete.validate()
        unclosed = PartitionedQuasigroup(q, ((0, 2), (1, 5), (3, 7), (4, 6)))
        with pytest.raises(ValueError, match="closed"):
            unclosed.validate()

    def test_fermat_subloop_members(self):
        assert fermat_subloop_members(4) == (0, 3, 6, 11, 14)
        for m, size in ((4, 5), (5, 9), (6, 17)):
            members = fermat_subloop_members(m)
            assert len(members) == size
            loop = fermat_jordan(m)
            member_set = set(members)
            for a in members:
                for b in members:
                    assert loop.rows[a][b] in member_set


class TestFermat:
    @pytest.mark.parametrize("m,order", [(4, 17), (5, 33), (6, 65)])
    def test_fermat_orders(self, m, order):
        assert_nonassociative_jordan(fermat_jordan(m), order)

    def test_fermat_rejects_small(self):
        for m in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                fermat_jordan(m)


class TestConstructAnyOrder:
    @pytest.mark.parametrize("n", [6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 33])
    def test_valid_orders(self, n):
        assert_nonassociative_jordan(construct(n), n)

    def test_outputs_pinned(self):
        tables = [construct(n) for n in range(6, 130) if n != 9]
        assert output_digest(tables) == CONSTRUCT_DIGEST
        for table in tables:
            assert_valid_as_built(table)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 9])
    def test_invalid_orders(self, n):
        with pytest.raises(ValueError, match="valid orders"):
            construct(n)


class TestHyperExtension:
    def test_tower_goldens(self):
        assert jordan_tower(0).order == 1
        assert [list(r) for r in jordan_tower(1).rows] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert [list(r) for r in jordan_tower(2).rows] == TOWER2_GOLDEN

    def test_tower_orders_double(self):
        for depth in range(5):
            assert jordan_tower(depth).order == (1 << (depth + 1)) - 1

    def test_tower_range(self):
        with pytest.raises(ValueError):
            jordan_tower(-1)
        with pytest.raises(ValueError):
            jordan_tower(16)

    def test_hyper_extend_requirements(self):
        with pytest.raises(ValueError):
            hyper_extend(cyclic_group(6))  # order not 2^n - 1
        with pytest.raises(ValueError):
            hyper_extend(antidiagonal_idempotent(7))  # not a loop

    def test_hyper_extend_of_z7(self):
        h = hyper_extend(cyclic_group(7))
        assert h.order == 15 and h.kind == "loop"
        assert check(h, "commutative") and check(h, "jordan")
        assert not check(h, "left-alternative")
        # the base loop survives as the prefix subtable
        for a in range(7):
            for b in range(7):
                assert h.rows[a][b] == cyclic_group(7).rows[a][b]

    def test_hyper_extend_preserves_jordan_not_associativity(self):
        t2 = jordan_tower(2)
        assert check(t2, "jordan") and not check(t2, "associative")
        t3 = jordan_tower(3)
        assert t3.order == 15
        assert check(t3, "jordan") and not check(t3, "associative")


# -- builders freeze their rows unchecked --------------------------------

class TestUncheckedFreeze:
    @pytest.mark.parametrize("depth", range(9))
    def test_tower_validates(self, depth):
        assert_valid_as_built(jordan_tower(depth))

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (3, 5), (2, 7), (5, 7)])
    def test_gap_loop_validates(self, m, n):
        assert_valid_as_built(powers_gap_loop(m, n)[0])

    def test_builders_on_q3_and_z3z3_validate(self):
        g9, parts, quasis = TestUnionOfGroups().z3z3_parts()
        q8 = union_of_groups(g9, parts, quasis)
        odd_block = build_magma(2, [[1, 0], [0, 1]], "quasigroup")
        built = [
            g9,
            q8,
            loop_amalgam(amalgam_spec()),
            quasigroup_amalgam(Q3, amalgam_blocks(odd_block)),
            replace_subquasigroups(PartitionedQuasigroup(Q3, SINGLETONS), {g: Z2 for g in range(3)}),
            replace_subquasigroups(
                PartitionedQuasigroup(q8, ((2, 5), (0, 1), (3, 7), (4, 6))), {g: Z3 for g in range(4)}),
            opposite(Q3),
            opposite(q8),
            opposite(quasigroup_amalgam(Q3, amalgam_blocks(odd_block))),
            direct_product(Q3, g9),
            direct_product(M3, Z2),
            EXP2_4,
            exp2_to_idempotent(EXP2_4),
            idempotent_to_exp2(direct_product(Q3, Q3)),
            exp2_to_idempotent(idempotent_to_exp2(direct_product(Q3, Q3))),
        ]
        for table in built:
            assert_valid_as_built(table)

    @pytest.mark.parametrize("build,order", [
        (lambda: jordan_tower(9), 1023),
        (lambda: powers_gap_loop(100, 3)[0], 309),
        (lambda: cyclic_group(300), 300),
        (lambda: direct_product(cyclic_group(20), cyclic_group(20)), 400),
        (lambda: construct(513), 513),
    ], ids=["tower 9", "gap loop 100 3", "Z300", "Z20 x Z20", "construct 513"])
    def test_one_int_object_per_label(self, build, order):
        table = build()
        assert table.order == order
        assert int_objects(table) == order

    @pytest.mark.parametrize("build", [
        hyper_extend,
        lambda base: direct_product(cyclic_group(32), cyclic_group(32)),
    ], ids=["hyper_extend", "direct_product"])
    def test_one_copy_alive_while_freezing(self, build):
        """Rows become tuples one at a time: an order-1023 or 1024 build
        peaks near the size of the table it returns, not twice that."""
        base = jordan_tower(8)
        tracemalloc.start()
        try:
            table = build(base)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.order >= 1023
        assert peak < 1.5 * size

    def test_adjoining_past_the_limit_is_refused(self):
        """replace_subquasigroups over singletons of an idempotent quasigroup
        of order ORDER_LIMIT would reach this before building anything."""
        with pytest.raises(ValidationError, match="supported"):
            _adjoin_identity([()] * ORDER_LIMIT)


SMALL_TABLES = st.one_of(
    st.integers(1, 12).map(cyclic_group),
    st.integers(0, 6).map(lambda k: antidiagonal_idempotent(2 * k + 1)),
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
        .map(lambda rows: build_magma(len(rows), rows))
    ),
)


@settings(max_examples=80)
@given(st.integers(1, 200), st.integers(0, 100), SMALL_TABLES, SMALL_TABLES)
def test_small_builders_validate(n, k, a, b):
    for table in (cyclic_group(n), antidiagonal_idempotent(2 * k + 1), opposite(a), direct_product(a, b)):
        assert_valid_as_built(table)


@pytest.mark.slow
def test_largest_builds_validate():
    """The largest construct, tower and gap loop the CLI accepts all pass
    build_magma (about 11 s on a 2-core VM with CPython 3.11)."""
    start = time.perf_counter()
    for build in (lambda: construct(4095), lambda: jordan_tower(11), lambda: powers_gap_loop(1360, 3)[0]):
        assert_valid_as_built(build())
    print(f"built and validated in {time.perf_counter() - start:.1f} s")
