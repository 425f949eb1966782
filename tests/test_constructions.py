import itertools
import tracemalloc

import pytest

from jordanloops.constructions import (
    AmalgamSpec,
    PartitionedQuasigroup,
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
from jordanloops.powers import powers_gap_loop, powers_gap_params
from jordanloops.search import PartialTable, SearchOptions, enumerate_loops, propagate
from jordanloops.tables import (
    ORDER_LIMIT,
    ValidationError,
    build_magma,
    check,
    cyclic_group,
    direct_product,
    find_counterexample,
    find_isomorphism,
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


# Orders, depths and exponents that are not plain ints: each call must refuse
# the argument before any arithmetic on it.
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
}


@pytest.mark.parametrize("value", [3.0, True], ids=repr)
@pytest.mark.parametrize("name", sorted(NON_INT_CALLS))
def test_non_int_argument_is_validation_error(name, value):
    with pytest.raises(ValidationError, match="must be an int"):
        NON_INT_CALLS[name](value)


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
        assert output_digest(construct(n) for n in range(6, 130) if n != 9) == CONSTRUCT_DIGEST

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
