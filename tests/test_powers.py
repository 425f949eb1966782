import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanloops import powers
from jordanloops.constructions import even_jordan, jordan_tower, odd_jordan
from jordanloops.powers import (
    DEFAULT_EXPONENT_CAP,
    element_order,
    generated_subloop,
    is_power_associative,
    is_well_defined,
    parenthesization_set,
    power_profile,
    powers_gap_loop,
    powers_gap_params,
    right_power,
)
from jordanloops.tables import build_magma, check, cyclic_group
from oracle import (
    element_order_reference,
    naive_parenthesizations,
    power_walk,
    random_loop,
    right_power_reference,
)

GAP_PARAMS = ((2, 3), (4, 3), (3, 5), (2, 7), (3, 3))
GAP_LOOPS = [powers_gap_loop(m, n)[0] for m, n in GAP_PARAMS]
# element 2 has right powers 2, 1, 0, so m = 3: its parenthesization sets
# 1..3 are singletons but set 2m - 2 = 4 is {2, 4}, as 1*1 = 4
LAST_SET_BREAKS = build_magma(6, [[0, 1, 2, 3, 4, 5], [1, 4, 0, 2, 5, 3], [2, 0, 1, 5, 3, 4],
                                  [3, 2, 5, 4, 0, 1], [4, 5, 3, 0, 1, 2], [5, 3, 4, 1, 2, 0]], "loop")
PROFILE_LOOPS = [*GAP_LOOPS[:2], jordan_tower(2), even_jordan(6), odd_jordan(7), cyclic_group(8),
                 LAST_SET_BREAKS]

CIRC_23_GOLDEN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 1, 0],
    [3, 2, 0, 1],
]


class TestRightPower:
    def test_cyclic_powers(self):
        t = cyclic_group(5)
        for c in range(5):
            for k in range(12):
                assert right_power(t, c, k) == c * k % 5

    def test_zeroth_power_is_identity(self):
        assert right_power(jordan_tower(2), 5, 0) == 0

    def test_huge_exponent_wraps_around_the_cycle(self):
        for table in [jordan_tower(3), even_jordan(10), odd_jordan(11), *GAP_LOOPS]:
            for c in range(table.order):
                m = next(k for k in range(1, table.order + 1) if right_power_reference(table, c, k) == 0)
                assert right_power(table, c, 10**12) == right_power_reference(table, c, 10**12 % m), c
                assert [right_power(table, c, k) for k in range(2 * m + 1)] == [
                    right_power_reference(table, c, k) for k in range(2 * m + 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            right_power(cyclic_group(3), 1, -1)
        with pytest.raises(ValueError):
            right_power(cyclic_group(3), 3, 1)
        q = build_magma(2, [[1, 0], [0, 1]], "quasigroup")
        with pytest.raises(ValueError):
            right_power(q, 0, 2)


class TestParenthesizations:
    def test_groups_have_singleton_sets(self):
        t = cyclic_group(6)
        for c in range(6):
            profile = power_profile(t, c, 10)
            assert profile[0] is None
            for k in range(1, 11):
                assert profile[k] == frozenset((c * k % 6,))

    def test_matches_naive_recursion(self):
        gap, c = powers_gap_loop(2, 3)
        corpus = [(gap, x) for x in range(gap.order)]
        corpus += [(jordan_tower(2), x) for x in range(7)]
        for table, x in corpus:
            profile = power_profile(table, x, 8)
            for k in range(1, 9):
                assert profile[k] == naive_parenthesizations(table, x, k), (x, k)

    @settings(max_examples=80)
    @given(data=st.data())
    def test_past_twice_the_cycle_matches_naive_recursion(self, data):
        """Past set 2m - 2, m being the length of c's right-power cycle,
        the profile fills in c^(k mod m) when the sets so far are
        singletons; a power-gap loop's generator, whose sets stop being
        singletons at m*n, and random loops take products throughout."""
        table = data.draw(st.sampled_from(PROFILE_LOOPS) | st.builds(
            random_loop, st.integers(1, 6), st.randoms(use_true_random=False)))
        c = data.draw(st.integers(0, table.order - 1))
        m = next(k for k in range(1, table.order + 1) if right_power_reference(table, c, k) == 0)
        max_k = 2 * m + data.draw(st.integers(1, 6))
        profile = power_profile(table, c, max_k, cap=max_k)
        assert profile[1:] == [naive_parenthesizations(table, c, k) for k in range(1, max_k + 1)]

    def test_set_2m_minus_2_is_taken(self):
        profile = power_profile(LAST_SET_BREAKS, 2, 12)
        assert profile[1:5] == [{2}, {1}, {0}, {2, 4}]
        assert profile[1:] == [naive_parenthesizations(LAST_SET_BREAKS, 2, k) for k in range(1, 13)]

    def test_gap_generator_past_twice_its_cycle(self):
        for (m, n), table in zip(GAP_PARAMS, GAP_LOOPS):
            c = 1 + n
            cycle = table.order  # c = (1, 1) generates Z_n x Z_s
            profile = power_profile(table, c, 2 * cycle + 1, cap=2 * cycle + 1)
            assert [len(s) == 1 for s in profile[1:m * n + 1]] == [True] * (m * n - 1) + [False]
            assert profile[1:] == [naive_parenthesizations(table, c, k) for k in range(1, 2 * cycle + 2)]

    def test_parenthesization_set_shortcut(self):
        gap, c = powers_gap_loop(2, 3)
        assert parenthesization_set(gap, c, 6) == power_profile(gap, c, 6)[6]

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            power_profile(cyclic_group(3), 1, DEFAULT_EXPONENT_CAP + 1)
        assert power_profile(cyclic_group(3), 1, 70, cap=70)[70] == frozenset((70 % 3,))


class TestWellDefined:
    TABLES = [*GAP_LOOPS, jordan_tower(2), even_jordan(6), odd_jordan(7), cyclic_group(8)]

    def test_matches_recursive_walk(self):
        for table in self.TABLES:
            for c in range(table.order):
                walk = list(power_walk(table.rows, c, 40))
                for k in range(41):
                    assert is_well_defined(table, c, k) == (k <= len(walk)), (c, k)

    def test_profile_singletons_match_recursive_walk(self):
        for table in self.TABLES:
            for c in range(table.order):
                walk = list(power_walk(table.rows, c, 40))
                profile = power_profile(table, c, 40)
                singletons = [frozenset((v,)) for v in walk]
                assert profile[1:len(walk) + 1] == singletons, c
                assert len(walk) == 40 or len(profile[len(walk) + 1]) > 1, c

    def test_huge_exponent_stops_at_twice_the_cycle(self):
        for table in [*self.TABLES, cyclic_group(3)]:
            for c in range(table.order):
                m = next(k for k in range(1, table.order + 1) if right_power_reference(table, c, k) == 0)
                start = time.perf_counter()
                verdict = is_well_defined(table, c, 10**12)
                assert time.perf_counter() - start < 1
                assert verdict == is_well_defined(table, c, 2 * m), c
                assert verdict == (len(list(power_walk(table.rows, c, 4 * m))) == 4 * m), c

    def test_trivial_exponents(self):
        t = jordan_tower(2)
        for c in range(7):
            assert is_well_defined(t, c, 0)
            assert is_well_defined(t, c, 1)


class TestGeneratedSubloop:
    def test_cyclic_subgroups(self):
        t = cyclic_group(6)
        assert generated_subloop(t, [2]).members == (0, 2, 4)
        assert generated_subloop(t, [3]).members == (0, 3)
        assert generated_subloop(t, [1]).members == tuple(range(6))
        assert generated_subloop(t, []).members == (0,)

    def test_records_generators(self):
        sub = generated_subloop(cyclic_group(6), [4, 2])
        assert sub.generators == (2, 4)

    def test_gap_element_generates_everything(self):
        gap, c = powers_gap_loop(2, 3)
        assert generated_subloop(gap, [c]).members == tuple(range(gap.order))


class TestPowerAssociativity:
    def test_groups_are_power_associative(self):
        assert is_power_associative(cyclic_group(12))

    def test_tower_is_power_associative(self):
        assert is_power_associative(jordan_tower(2))

    def test_gap_loop_is_not(self):
        gap, _ = powers_gap_loop(2, 3)
        assert not is_power_associative(gap)

    def test_elements_of_a_checked_subloop_are_skipped(self, monkeypatch):
        """Z_12 is checked on <0> and on <1>, which is all of it."""
        checked = []
        cyclic = powers._cyclic_powers

        def spy(rows, c):
            checked.append(cyclic(rows, c))
            return checked[-1]

        monkeypatch.setattr(powers, "_cyclic_powers", spy)
        assert is_power_associative(cyclic_group(12))
        assert checked == [[0], list(range(12))]

    def test_element_orders(self):
        t = cyclic_group(6)
        assert [element_order(t, c) for c in range(6)] == [1, 6, 3, 2, 3, 6]

    def test_element_order_undefined_when_ambiguous(self):
        gap, c = powers_gap_loop(2, 3)
        assert element_order(gap, c) is None

    def test_tower_elements_have_order_three(self):
        t = jordan_tower(2)
        assert [element_order(t, c) for c in range(1, 7)] == [3] * 6


class TestGapParams:
    def test_smallest_case(self):
        p = powers_gap_params(2, 3)
        assert (p.m, p.n, p.s) == (2, 3, 4)
        assert p.phi == (0, 2, 1, 3)
        circ = [[p.circ(u, v) for v in range(4)] for u in range(4)]
        assert circ == CIRC_23_GOLDEN

    def test_coprime_skip(self):
        # smallest s >= m+2 coprime to n skips shared factors
        assert powers_gap_params(3, 5).s == 6
        assert powers_gap_params(4, 3).s == 7
        assert powers_gap_params(2, 9).s == 4
        assert powers_gap_params(7, 3).s == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            powers_gap_params(1, 3)
        with pytest.raises(ValueError):
            powers_gap_params(2, 4)
        with pytest.raises(ValueError):
            powers_gap_params(2, 1)


class TestGapLoop:
    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (3, 5), (7, 3), (2, 9), (9, 5)])
    def test_rows_follow_circ(self, m, n):
        # (a1,u1)*(a2,u2) encoded a + n*u, with params.circ when a1 = a2 = 0
        p = powers_gap_params(m, n)
        gap, _ = powers_gap_loop(m, n)
        s = p.s
        for x in range(n * s):
            a1, u1 = x % n, x // n
            for y in range(n * s):
                a2, u2 = y % n, y // n
                u = p.circ(u1, u2) if a1 == a2 == 0 else (u1 + u2) % s
                assert gap.rows[x][y] == (a1 + a2) % n + n * u

    def test_golden_values(self):
        gap, c = powers_gap_loop(2, 3)
        assert gap.order == 12 and c == 4
        assert right_power(gap, c, 2) == 8
        assert right_power(gap, c, 3) == 9
        assert gap.rows[9][9] == 3  # c^3 * c^3
        assert right_power(gap, c, 6) == 6
        assert parenthesization_set(gap, c, 6) == frozenset((3, 6))

    def test_well_defined_exactly_below_mn(self):
        for m, n in ((2, 3), (3, 3), (2, 5)):
            gap, c = powers_gap_loop(m, n)
            for k in range(m * n):
                assert is_well_defined(gap, c, k), (m, n, k)
            assert not is_well_defined(gap, c, m * n)

    def test_gap_loops_are_jordan(self):
        for m, n in ((2, 3), (3, 3), (2, 5), (3, 5)):
            gap, _ = powers_gap_loop(m, n)
            assert gap.kind == "loop"
            assert check(gap, "jordan")
            assert not check(gap, "associative")

    def test_resolved_order_for_3_5(self):
        gap, c = powers_gap_loop(3, 5)
        assert gap.order == 30 and c == 6


@st.composite
def small_loops(draw):
    """A random loop of order 1..7, most often noncommutative, or a gap loop."""
    if draw(st.booleans()):
        return draw(st.sampled_from(GAP_LOOPS))
    return random_loop(draw(st.integers(1, 7)), draw(st.randoms(use_true_random=False)))


@settings(max_examples=80)
@given(small_loops())
def test_orders_and_power_associativity_match_subloop_scan(table):
    orders = [element_order(table, c) for c in range(table.order)]
    assert orders == [element_order_reference(table, c) for c in range(table.order)]
    assert is_power_associative(table) == (None not in orders)
