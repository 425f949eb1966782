import itertools
import random
import re
import time
from functools import lru_cache, partial
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanloops.cli import run
from jordanloops.constructions import construct, even_jordan
from jordanloops.search import (
    PartialTable,
    SearchIncomplete,
    SearchOptions,
    SearchStats,
    _check_limits,
    _class_seeds,
    _Leftover,
    _orbit,
    _run,
    _search_seed,
    _squaring_classes,
    _State,
    classify_up_to_iso,
    enumerate_loops,
    propagate,
)
from jordanloops.tables import (
    ValidationError,
    _least_form,
    _row1_cycles,
    build_magma,
    check,
    cyclic_group,
    find_isomorphism,
    parse_tables,
    serialize_table,
)
from oracle import (
    canonical_form,
    conjugacy_key,
    group_orbits,
    least_under_stabiliser,
    naive_commutative_loops,
    orbit_reference,
    output_digest,
    relabel,
    row1_is_least,
    seed_group,
)

ORDER8_CLASSES = parse_tables((Path(__file__).parent / "data" / "order8_classes.txt").read_text())

# (nodes, failures, models_found) of the labelled search from the blank
# table (oracle.labelled_reference), keyed by (order, require_jordan).  Any
# engine change that alters a search tree, even one that finds the same
# models, changes one of these.
TREE_SHAPES = {
    (1, True): (1, 0, 1),
    (2, True): (2, 0, 1),
    (3, True): (2, 0, 1),
    (4, True): (8, 0, 4),
    (5, True): (19, 0, 6),
    (6, True): (295, 56, 66),
    (7, True): (1276, 300, 240),
    (8, True): (381192, 223159, 25980),
    (9, True): (224743, 172641, 7560),
    (1, False): (1, 0, 1),
    (2, False): (2, 0, 1),
    (3, False): (2, 0, 1),
    (4, False): (10, 0, 4),
    (5, False): (40, 0, 6),
    (6, False): (1897, 120, 456),
    (7, False): (62517, 1742, 6240),
}

# sha256 of the labelled Jordan models, so a change of branching order that
# moves TREE_SHAPES is seen to keep the same models; both the reference
# search and the public listing must give them.
OUTPUT_DIGESTS = {
    7: "eb8f0739c9636cc4e61bffc2049627c59f0372d650713e4b636d1e4179bf07dc",
    8: "8e1d2174090b5231702bab6b50805ec0723b8f6be0ac78931429c497c4fb25cd",
    9: "007e64ec1c5f5bceb0d5a8502d44230d2d77c7ad71460c7c564a64bd78f24488",
}


class TestPartialTable:
    def test_blank_has_identity_border(self):
        pt = PartialTable.blank(4)
        for i in range(4):
            assert pt.cell(0, i) == i
            assert pt.cell(i, 0) == i
        assert pt.cell(1, 1) == -1
        assert not pt.is_complete()

    def test_from_table_round_trip(self):
        t = even_jordan(6)
        pt = PartialTable.from_table(t)
        assert pt.is_complete()
        assert pt.to_table() == t

    def test_with_cell(self):
        pt = PartialTable.blank(5).with_cell(1, 2, 3)
        assert pt.cell(1, 2) == 3
        assert pt.cell(2, 1) == -1  # mirroring is propagate's job

    def test_masks_track_assignments(self):
        pt = PartialTable.blank(5).with_cell(1, 2, 3)
        assert pt.row_masks[1] & (1 << 3)
        assert pt.col_masks[2] & (1 << 3)
        assert not pt.row_masks[2] & (1 << 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            PartialTable(3, (0, 1, 2))

    def test_rejects_broken_border(self):
        cells = list(PartialTable.blank(3).cells)
        cells[1] = 2
        with pytest.raises(ValidationError):
            PartialTable(3, tuple(cells))

    def test_rejects_out_of_range(self):
        cells = list(PartialTable.blank(3).cells)
        cells[4] = 3
        with pytest.raises(ValidationError):
            PartialTable(3, tuple(cells))

    def test_rejects_line_repeats(self):
        with pytest.raises(ValidationError, match="row 1"):
            PartialTable.blank(5).with_cell(1, 2, 3).with_cell(1, 3, 3)
        with pytest.raises(ValidationError, match="column 2"):
            PartialTable.blank(5).with_cell(1, 2, 4).with_cell(3, 2, 4)

    def test_to_table_requires_completion(self):
        with pytest.raises(ValueError):
            PartialTable.blank(3).to_table()


class TestPropagate:
    def test_blank_is_fixpoint_at_large_order(self):
        pt = PartialTable.blank(6)
        out = propagate(pt)
        assert out is not None and out.cells == pt.cells

    def test_completes_order_two(self):
        # the lone unset cell of the blank order-2 table is a Latin single
        out = propagate(PartialTable.blank(2), require_jordan=False)
        assert out is not None and out.is_complete()
        assert out.to_table() == cyclic_group(2)

    def test_blank_order_three_needs_branching(self):
        # (1,1) has two Latin-consistent candidates, so propagation alone
        # must stop short of completing the table
        out = propagate(PartialTable.blank(3))
        assert out is not None and not out.is_complete()
        assert out.cell(1, 1) == -1

    def test_mirrors_symmetric_cells(self):
        out = propagate(PartialTable.blank(5).with_cell(1, 2, 4))
        assert out is not None and out.cell(2, 1) == 4

    def test_mirror_conflict_is_contradiction(self):
        cells = list(PartialTable.blank(5).cells)
        cells[1 * 5 + 2] = 3
        cells[2 * 5 + 1] = 4
        assert propagate(PartialTable(5, tuple(cells))) is None

    def test_restores_deleted_cells_of_a_model(self):
        t = even_jordan(6)
        full = PartialTable.from_table(t)
        cells = list(full.cells)
        for i, j in ((1, 2), (2, 1), (3, 4), (4, 3), (5, 5)):
            cells[i * 6 + j] = -1
        out = propagate(PartialTable(6, tuple(cells)))
        assert out is not None and out.cells == full.cells

    def test_diagonal_parity_contradiction(self):
        # at odd order the diagonal must be a bijection, so a repeated
        # diagonal symbol dies even though it is Latin-consistent
        pt = PartialTable.blank(5).with_cell(1, 1, 0)
        assert propagate(pt, require_jordan=False) is None

    @staticmethod
    def _cleared_layouts(model, pair_counts):
        """Partial tables made by clearing symmetric cell groups of a model,
        keeping only those where plain Latin reasoning stalls."""
        n = model.order
        full = PartialTable.from_table(model)
        upper = [(i, j) for i in range(1, n) for j in range(i, n)]
        for count in pair_counts:
            for group in itertools.combinations(upper, count):
                cells = list(full.cells)
                for i, j in group:
                    cells[i * n + j] = -1
                    cells[j * n + i] = -1
                pt = PartialTable(n, tuple(cells))
                latin_only = propagate(pt, require_jordan=False)
                if latin_only is not None and not latin_only.is_complete():
                    yield pt, latin_only, group

    def test_jordan_triggers_force_values(self, searched):
        # needs a model with nontrivial squares: in an exponent-two loop every
        # Jordan instance degenerates to border lookups and can force nothing
        models, _ = searched(6)
        assoc = [m for m in models if check(m, "associative")]
        for model in assoc[:2]:
            full = PartialTable.from_table(model)
            for pt, latin_only, _ in self._cleared_layouts(model, (2, 3, 4)):
                with_jordan = propagate(pt, require_jordan=True)
                assert with_jordan is not None  # the model itself completes pt
                latin_set = sum(v != -1 for v in latin_only.cells)
                jordan_set = sum(v != -1 for v in with_jordan.cells)
                assert jordan_set >= latin_set
                for k, v in enumerate(with_jordan.cells):
                    assert v == -1 or v == full.cells[k]
                if jordan_set > latin_set:
                    return  # Jordan reasoning deduced strictly more
        pytest.fail("no configuration separates Jordan from Latin reasoning")

    def test_jordan_conflict_detection(self, searched):
        # plant a Latin-consistent wrong value and expect the Jordan rules
        # to refute it while plain Latin reasoning accepts it
        models, _ = searched(6)
        nonassoc = [m for m in models if not check(m, "associative")]
        for model in nonassoc[:2]:
            n = model.order
            for pt, latin_only, group in self._cleared_layouts(model, (2, 3, 4)):
                i, j = group[0]
                truth = model.rows[i][j]
                free = [
                    v for v in range(n)
                    if v != truth
                    and not pt.row_masks[i] & (1 << v)
                    and not pt.col_masks[j] & (1 << v)
                ]
                for w in free:
                    planted = pt.with_cell(i, j, w)
                    if propagate(planted, require_jordan=False) is None:
                        continue
                    if propagate(planted, require_jordan=True) is None:
                        return  # success: Jordan rules alone refuted the plant
        pytest.fail("no Latin-consistent wrong value was refuted by Jordan rules")

    def test_idempotent(self):
        pt = PartialTable.blank(6).with_cell(1, 1, 2)
        once = propagate(pt)
        twice = propagate(once)
        assert once is not None and twice is not None
        assert once.cells == twice.cells

    def test_propagated_values_are_sound(self, searched):
        # every value deduced from a partial model appears in the model
        models, _ = searched(7)
        model = models[0]
        full = PartialTable.from_table(model)
        rng = random.Random(7)
        for _ in range(20):
            cells = list(full.cells)
            for i in range(1, 7):
                for j in range(i, 7):
                    if rng.random() < 0.5:
                        cells[i * 7 + j] = -1
                        cells[j * 7 + i] = -1
            out = propagate(PartialTable(7, tuple(cells)))
            assert out is not None
            for k, v in enumerate(out.cells):
                if v != -1:
                    assert v == full.cells[k]


@st.composite
def seeded_cuts(draw, searched):
    """A known Jordan loop of order 5..8 and a cut of it: each line pair
    (i, j), i <= j, is kept (0), blanked on both sides (1), or blanked at
    (i, j) only (2) or at (j, i) only (3)."""
    order = draw(st.integers(5, 8))
    if order == 8:
        base = draw(st.sampled_from(ORDER8_CLASSES))
        model = relabel(base, [0] + draw(st.permutations(range(1, 8))))
    else:
        model = draw(st.sampled_from(searched(order)[0]))
    pairs = [(i, j) for i in range(1, order) for j in range(i, order)]
    cut = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return model, dict(zip(pairs, cut))


def cut_table(model, cut, one_sided: bool) -> PartialTable:
    """The cut as a partial table; without ``one_sided`` a one-sided blank
    keeps both cells."""
    n = model.order
    cells = [v for row in model.rows for v in row]
    for (i, j), how in cut.items():
        if how == 1 or (one_sided and how == 2) or (i == j and how):
            cells[i * n + j] = -1
        if how == 1 or (one_sided and how == 3):
            cells[j * n + i] = -1
    return PartialTable(n, tuple(cells))


@settings(max_examples=150)
@given(data=st.data())
def test_propagate_on_seeded_cuts(searched, data):
    model, cut = data.draw(seeded_cuts(searched))
    cells = PartialTable.from_table(model).cells
    out = propagate(cut_table(model, cut, one_sided=True))
    # (a) the model completes the cut, so nothing is refuted or misdeduced
    assert out is not None
    assert all(v == -1 or v == cells[k] for k, v in enumerate(out.cells))
    # (b) a cell whose twin is set carries no less than both cells set
    assert propagate(cut_table(model, cut, one_sided=False)).cells == out.cells
    # (c) the result is a fixpoint
    assert propagate(out).cells == out.cells


@settings(max_examples=60)
@given(data=st.data())
def test_zero_square_instances_are_idle(data):
    """An instance with x*x = 0 reads y*x on both sides, so propagation
    never evaluates one.  On partial tables cut from even-order completions,
    the diagonal kept, evaluating it never assigns and never refutes."""
    order = data.draw(st.sampled_from([4, 6, 8]))
    base = data.draw(st.sampled_from(classes_of(order, True)))
    model = relabel(base, [0] + data.draw(st.permutations(range(1, order))))
    state = _State(order, True)
    for i in range(1, order):
        for j in range(i, order):
            if i == j or data.draw(st.booleans()):
                assert state.assign(i, j, model.rows[i][j])
    # at even order 0 sits on the diagonal an even number of times
    zero = [x for x in range(1, order) if model.rows[x][x] == 0]
    assert zero
    for x in zero:
        for y in range(order):
            mark = len(state.trail)
            assert state.check_instance(x, y)
            assert len(state.trail) == mark


@pytest.mark.parametrize("order,require_jordan", sorted(TREE_SHAPES))
def test_search_tree_shape(searched, order, require_jordan):
    _, stats = searched(order, require_jordan)
    assert (stats.nodes, stats.failures, stats.models_found) == TREE_SHAPES[order, require_jordan]


@pytest.mark.parametrize("order", sorted(OUTPUT_DIGESTS))
def test_search_output_digest(searched, order):
    models, _ = searched(order)
    assert output_digest(models) == OUTPUT_DIGESTS[order]


def test_labelled_engine_deeper_than_recursion_limit():
    # without the Jordan rules the blank order-64 search stacks ~1,900
    # frames by then
    options = SearchOptions(order=64, require_jordan=False, node_limit=5000)
    stats = SearchStats()
    with pytest.raises(SearchIncomplete, match="node limit 5000 hit"):
        _run(_State(64, False), options, stats, [].append, partial(_check_limits, options, stats, time.monotonic()))
    assert stats.nodes == 5001


class TestEnumerate:
    def test_matches_naive_oracle(self):
        for n in (3, 4, 5, 6, 7):
            for jordan in (True, False):
                fast, _ = enumerate_loops(SearchOptions(order=n, require_jordan=jordan))
                slow = naive_commutative_loops(n, jordan)
                assert sorted(t.rows for t in fast) == sorted(t.rows for t in slow), (n, jordan)

    def test_counts(self, searched):
        for n, count in ((1, 1), (2, 1), (3, 1), (4, 4), (5, 6), (6, 66), (7, 240)):
            models, stats = searched(n)
            assert len(models) == count
            assert stats.models_found == count
            assert stats.nodes > 0
            assert stats.seconds >= 0.0

    def test_all_results_are_jordan_loops(self, searched):
        models, _ = searched(6)
        for m in models:
            assert m.kind == "loop"
            assert check(m, "commutative")
            assert check(m, "jordan")

    def test_output_sorted_and_deterministic(self):
        a, _ = enumerate_loops(SearchOptions(order=6))
        b, _ = enumerate_loops(SearchOptions(order=6))
        assert a == b
        assert [t.rows for t in a] == sorted(t.rows for t in a)

    def test_result_limit(self):
        full, _ = enumerate_loops(SearchOptions(order=6))
        cut, stats = enumerate_loops(SearchOptions(order=6, result_limit=7))
        assert cut == full[:7]
        assert stats.models_found == 66  # the count reflects the whole space

    def test_nonassociative_filter(self):
        models, stats = enumerate_loops(SearchOptions(order=6, nonassociative_only=True))
        assert stats.models_found == 6
        assert all(not check(m, "associative") for m in models)

    def test_up_to_iso_classes_order_6(self):
        classes, stats = enumerate_loops(SearchOptions(order=6, up_to_iso=True))
        assert stats.models_found == 66
        assert stats.models_after_iso == 2
        kinds = {find_isomorphism(c, cyclic_group(6)) is not None for c in classes}
        assert kinds == {True, False}

    def test_node_limit_raises(self):
        with pytest.raises(SearchIncomplete) as exc:
            enumerate_loops(SearchOptions(order=7, node_limit=50))
        assert exc.value.stats.nodes > 50

    def test_time_budget_raises(self):
        with pytest.raises(SearchIncomplete):
            enumerate_loops(SearchOptions(order=7, time_budget=0.0))

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            enumerate_loops(SearchOptions(order=0))
        with pytest.raises(ValueError):
            enumerate_loops(SearchOptions(order=65))

    @pytest.mark.parametrize(
        "limit,value",
        [("result_limit", -1), ("node_limit", -1), ("time_budget", -1.0), ("time_budget", float("nan"))],
    )
    def test_negative_limits_rejected(self, limit, value):
        with pytest.raises(ValueError, match=limit):
            enumerate_loops(SearchOptions(order=6, **{limit: value}))

    @pytest.mark.parametrize(
        "fields",
        [
            {"order": "8"},
            {"order": None},
            {"order": 6, "result_limit": 2.5},
            {"order": 6, "result_limit": True},
            {"order": 6, "node_limit": True},
            {"order": 6, "node_limit": 2.5},
            {"order": 6, "time_budget": "1"},
            {"order": 6, "time_budget": True},
        ],
    )
    def test_non_int_arguments_rejected(self, fields):
        with pytest.raises(ValidationError):
            enumerate_loops(SearchOptions(**fields))


class TestSquaringClasses:
    def test_counts(self):
        counts = [sum(1 for _ in _squaring_classes(n)) for n in range(1, 11)]
        assert counts == [1, 1, 1, 2, 2, 5, 4, 15, 7, 46]

    @staticmethod
    def _admissible(sq):
        """Could ``sq`` be the squaring map of a commutative loop?"""
        n = len(sq)
        if sq[0] != 0 or any(s == x for x, s in enumerate(sq) if x):
            return False
        if n & 1:
            return sorted(sq) == list(range(n))
        return all(sq.count(v) % 2 == 0 for v in range(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_map_per_conjugacy_class(self, n):
        maps = list(_squaring_classes(n))
        assert all(self._admissible(sq) for sq in maps)
        classes = [conjugacy_key(sq) for sq in maps]
        assert len(set(classes)) == len(classes)
        every = {
            conjugacy_key((0, *rest))
            for rest in itertools.product(range(n), repeat=n - 1)
            if self._admissible((0, *rest))
        }
        assert every == set(classes)


class TestClassPath:
    @pytest.mark.parametrize(
        "order,require_jordan",
        [(n, True) for n in range(1, 10)] + [(n, False) for n in range(1, 8)],
    )
    def test_matches_labelled_path(self, searched, order, require_jordan):
        # associativity is an isomorphism invariant, so filtering the
        # classes of all labelled models equals classifying the filtered ones;
        # test_order8_classes_pinned checks that ORDER8_CLASSES is
        # classify_up_to_iso of the labelled order-8 models
        labelled, _ = searched(order, require_jordan)
        reference = ORDER8_CLASSES if (order, require_jordan) == (8, True) else classify_up_to_iso(labelled)
        for nonassociative_only in (False, True):
            def kept(m):
                return not (nonassociative_only and check(m, "associative"))

            classes, stats = enumerate_loops(SearchOptions(
                order=order, require_jordan=require_jordan,
                nonassociative_only=nonassociative_only, up_to_iso=True,
            ))
            assert classes == [c for c in reference if kept(c)]
            assert stats.models_found == sum(map(kept, labelled))
            assert stats.models_after_iso == len(classes)

    def test_order8_and_order9_pinned(self):
        classes, stats = enumerate_loops(SearchOptions(order=8, up_to_iso=True))
        assert classes == ORDER8_CLASSES
        assert (stats.models_found, stats.models_after_iso) == (25980, 22)
        classes, stats = enumerate_loops(SearchOptions(order=9, up_to_iso=True))
        assert (stats.models_found, stats.models_after_iso) == (7560, 2)

    def test_order11_census(self):
        classes, stats = enumerate_loops(SearchOptions(order=11, up_to_iso=True))
        associative = [c for c in classes if check(c, "associative")]
        assert (len(classes), len(associative), stats.models_found) == (7, 1, 6168960)
        assert find_isomorphism(associative[0], cyclic_group(11)) is not None
        assert sum(find_isomorphism(c, construct(11)) is not None for c in classes) == 1

    @pytest.mark.slow
    def test_order10_census(self, capsys, monkeypatch):
        """The exponent-2 classes are the one-factorisations of K_10 with a
        marked vertex (see test_exponent2_classes_are_one_factorisations):
        1,225,566,720 labelled (OEIS A000438), 396 up to isomorphism
        (Gelling 1973)."""
        completions = []

        def spy(rows):
            completions.append(1)
            return _least_form(rows)

        monkeypatch.setattr("jordanloops.search._least_form", spy)
        assert run(["search", "--order", "10", "--up-to-iso"]) == 0
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert "# nodes=1157580 failures=214803 models=1237813920 classes=3536 " in out
        assert len(completions) == 29011
        classes = parse_tables(out)
        assert len(classes) == 3536
        exponent2 = [c for c in classes if not any(c.rows[x][x] for x in range(10))]
        assert sum(factorial(9) // _least_form(c.rows)[1] for c in exponent2) == 1225566720
        assert _one_factorisations(exponent2) == 396
        assert build_magma(10, _least_form(construct(10).rows)[0], "loop") in classes

    def test_result_limit_cuts_sorted_classes(self):
        full, _ = enumerate_loops(SearchOptions(order=8, up_to_iso=True))
        cut, stats = enumerate_loops(SearchOptions(order=8, up_to_iso=True, result_limit=5))
        assert cut == full[:5]
        assert stats.models_after_iso == 22

    def test_seeds_count_against_node_limit(self):
        with pytest.raises(SearchIncomplete) as exc:
            enumerate_loops(SearchOptions(order=8, up_to_iso=True, node_limit=10))
        assert exc.value.stats.nodes == 11


# (nodes, failures, completions) of the class path, which breaks each
# seed's leftover symmetry; without that step order 8 takes 2,714 nodes and
# 406 completions, and order 9 1,728 nodes.  The exponent-2 seeds also cut a
# node once a filled row beats L_1's cycle key; filtering their completions
# afterwards instead took 1,556 nodes and 81 completions at order 8.
CLASS_WORK = {
    6: (37, 10, 2),
    7: (53, 35, 5),
    8: (1429, 602, 49),
    9: (936, 1113, 2),
}


@pytest.mark.parametrize("order", sorted(CLASS_WORK))
def test_class_path_work_pinned(order):
    _, stats = enumerate_loops(SearchOptions(order=order, up_to_iso=True))
    assert (stats.nodes, stats.failures, stats.completions) == CLASS_WORK[order]


# An exponent-2 Jordan loop of order 8 with L_1 = (0 1)(2 3 4 5 6 7) and
# L_2 = (0 2)(1 3)(4 6)(5 7): only relabelling 2 as 1 gives the least row 1.
NOT_CANONICAL = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 4, 5, 6, 7, 2),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 4, 1, 0, 7, 2, 5, 6),
    (4, 5, 6, 7, 0, 3, 2, 1),
    (5, 6, 7, 2, 3, 0, 1, 4),
    (6, 7, 4, 5, 2, 1, 0, 3),
    (7, 2, 5, 6, 1, 4, 3, 0),
)


class TestExponent2Filter:
    """The exponent-2 seeds cut a node once a filled row x gives L_x a
    smaller cycle key than L_1, so every completion they find has 1 among
    the b whose L_b gives the least row 1."""

    def test_row1_rule(self):
        xor = [[x ^ y for y in range(8)] for x in range(8)]  # every L_b is four 2-cycles
        assert sorted(_row1_cycles(xor)) == list(range(1, 8))
        table = build_magma(8, NOT_CANONICAL, "loop")
        assert check(table, "jordan") and check(table, "exponent-two")
        assert _row1_cycles(NOT_CANONICAL) == {2: [[0, 2], [1, 3], [4, 6], [5, 7]]}
        assert not row1_is_least(NOT_CANONICAL) and row1_is_least(xor)

    @pytest.mark.parametrize("order", [6, 8])
    def test_cut_keeps_the_filtered_completions(self, order, monkeypatch):
        """The completions the cut keeps are, as a set, those the filter
        after completion kept (``oracle.row1_is_least``)."""
        found, kept, classes = {6: (1, 1, 1), 8: (54, 22, 7)}[order]

        def completions():
            raw = []
            for pt in _class_seeds(order):
                if not any(pt.cells[:: order + 1]):
                    _search_seed(pt, SearchOptions(order), SearchStats(), raw.append, lambda: None)
            return [tuple(c[i : i + order] for i in range(0, order * order, order)) for c in raw]

        cut = completions()
        monkeypatch.setattr("jordanloops.search._row1_cut", lambda state: None)
        uncut = completions()
        filtered = [rows for rows in uncut if row1_is_least(rows)]
        assert (len(uncut), len(filtered), len(cut)) == (found, kept, kept)
        assert set(cut) == set(filtered) and len(set(cut)) == kept
        assert len(classify_up_to_iso([build_magma(order, rows, "loop") for rows in cut])) == classes

    def test_class_path_classifies_the_kept_completions(self, monkeypatch):
        calls = []

        def spy(rows):
            calls.append(1)
            build_magma(8, rows, "loop")  # the completions are keyed unchecked
            return _least_form(rows)

        monkeypatch.setattr("jordanloops.search._least_form", spy)
        classes, stats = enumerate_loops(SearchOptions(order=8, up_to_iso=True))
        assert classes == ORDER8_CLASSES
        assert (stats.completions, len(calls)) == (49, 49)


def _one_factorisations(classes) -> int:
    """The number of groups the exponent-2 ``classes``, given by their least
    forms, fall into when the identity moves to each vertex v, by
    x o y = v\\(x*y) and then swapping v and 0."""
    n = classes[0].order
    index = {c.rows: k for k, c in enumerate(classes)}
    parent = list(range(len(classes)))

    def root(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for k, c in enumerate(classes):
        rows = c.rows
        for v in range(1, n):
            swap = list(range(n))
            swap[0], swap[v] = v, 0
            divide = [0] * n  # divide[z] = v\z
            for y in range(n):
                divide[rows[v][y]] = y
            moved = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    moved[swap[x]][swap[y]] = swap[divide[rows[x][y]]]
            parent[root(index[_least_form(moved)[0]])] = root(k)
    return sum(parent[k] == k for k in range(len(classes)))


def _seeds(order):
    return list(_class_seeds(order))


@lru_cache(maxsize=None)
def _seed_group(pt):
    return seed_group(pt)


class TestSymmetryBreaking:
    @pytest.mark.parametrize("order", range(3, 8))
    def test_helpers_match_brute_force(self, order, monkeypatch):
        """The orbits of each seed's leftover group, and the minimality test
        on every row the search fills, against trying every permutation."""
        smaller = _Leftover.smaller
        rows = []

        def spy(self, row, k=1):
            pi = self.pi[:]
            found = smaller(self, row, k)
            assert self.pi == pi  # relabelled in place and restored
            if k == 1:
                rows.append((tuple(row), not found))
            return found

        monkeypatch.setattr(_Leftover, "smaller", spy)
        verdicts = set()
        for pt in _seeds(order):
            group = _seed_group(pt)
            orbit = _Leftover(pt, lambda: None).orbits()
            assert orbit == group_orbits(group, order)
            for require_jordan in (True, False):
                rows.clear()
                _search_seed(pt, SearchOptions(order, require_jordan), SearchStats(), [].append, lambda: None)
                for row, least in rows:
                    assert least == least_under_stabiliser(group, row)
                    a = row[0]  # the filled row is row a
                    assert orbit.count(orbit[a]) == max(map(orbit.count, orbit[1:]))
                    assert a == min(x for x in range(1, order) if orbit.count(orbit[x]) == orbit.count(orbit[a]))
                    verdicts.add(least)
        assert verdicts == ({True, False} if order >= 6 else {True})

    def test_exponent2_classes_are_one_factorisations(self):
        """An exponent-2 commutative loop of order 8 is a one-factorisation of
        K_8 with a marked vertex 0: colour c is the edges {x, y} with
        x*y = c.  The 7 classes give the 6,240 labelled one-factorisations
        (OEIS A000438), and moving the identity to each vertex v, by
        x o y = v\\(x*y) and then swapping v and 0, groups them into the 6
        one-factorisations of K_8 up to isomorphism."""
        classes = [c for c in classes_of(8, True) if not any(c.rows[x][x] for x in range(8))]
        assert len(classes) == 7
        assert sum(factorial(7) // _least_form(c.rows)[1] for c in classes) == 6240
        assert _one_factorisations(classes) == 6

    def test_budget_holds_on_a_large_leftover_group(self):
        # the diagonal (0,0,1,...,1) leaves 2..11 free to permute: 10! elements
        n = 12
        cells = list(PartialTable.blank(n).cells)
        cells[:: n + 1] = [0, 0] + [1] * (n - 2)
        pt = PartialTable(n, tuple(cells))
        assert _Leftover(pt, lambda: None).orbits() == [0, 1] + [2] * (n - 2)
        options, stats, start = SearchOptions(order=n, time_budget=1), SearchStats(), time.monotonic()
        try:
            _search_seed(pt, options, stats, [].append, partial(_check_limits, options, stats, start))
        except SearchIncomplete:
            pass
        assert time.monotonic() - start < 1.5


@settings(max_examples=40)
@given(data=st.data())
def test_propagated_seed_is_invariant_under_its_group(data):
    order = data.draw(st.integers(3, 8))
    pt = data.draw(st.sampled_from(_seeds(order)))
    p = data.draw(st.sampled_from(_seed_group(pt)))
    closed = propagate(pt, data.draw(st.booleans()))
    if closed is not None:
        image = [-1] * (order * order)
        for k, v in enumerate(closed.cells):
            image[p[k // order] * order + p[k % order]] = p[v] if v >= 0 else -1
        assert tuple(image) == closed.cells


ORDERS = [(n, True) for n in range(1, 10)] + [(n, False) for n in range(1, 8)]


@lru_cache(maxsize=None)
def listed(order: int, require_jordan: bool, nonassociative_only: bool):
    """The public labelled listing, cached for the tests below."""
    return enumerate_loops(SearchOptions(
        order=order, require_jordan=require_jordan, nonassociative_only=nonassociative_only,
    ))


@lru_cache(maxsize=None)
def classes_of(order: int, require_jordan: bool):
    return enumerate_loops(SearchOptions(order=order, require_jordan=require_jordan, up_to_iso=True))[0]


class TestLabelledListing:
    """The public labelled listing expands the class representatives; the
    labelled search from the blank table is its slow reference."""

    @pytest.mark.parametrize("order,require_jordan", ORDERS)
    def test_matches_labelled_reference(self, searched, order, require_jordan):
        reference, _ = searched(order, require_jordan)
        for nonassociative_only in (False, True):
            expected = [m for m in reference if not (nonassociative_only and check(m, "associative"))]
            tables, stats = listed(order, require_jordan, nonassociative_only)
            assert tables == expected
            assert stats.models_found == stats.models_after_iso == len(expected)

    @pytest.mark.parametrize("order", sorted(OUTPUT_DIGESTS))
    def test_output_digest(self, order):
        assert output_digest(listed(order, True, False)[0]) == OUTPUT_DIGESTS[order]

    @pytest.mark.parametrize("order", range(1, 10))
    def test_output_passes_build_magma(self, order):
        # the class representatives and their relabelled copies are frozen
        # unchecked; this is the check
        for table in classes_of(order, True) + listed(order, True, False)[0]:
            assert build_magma(order, table.rows, "loop") == table

    @pytest.mark.parametrize("order,require_jordan", ORDERS)
    def test_orbit_size_is_labellings_over_automorphisms(self, order, require_jordan):
        for rep in classes_of(order, require_jordan):
            orbit = _orbit(rep.rows)
            assert len(orbit) == factorial(order - 1) // _least_form(rep.rows)[1]
            assert bytes(v for row in rep.rows for v in row) in orbit

    def test_orbit_reports_progress_every_256_tables(self):
        z9 = next(c for c in classes_of(9, True) if find_isomorphism(c, cyclic_group(9)) is not None)
        calls = []
        assert len(_orbit(z9.rows, lambda: calls.append(1))) == 6720
        assert len(calls) == 6720 // 256

    def test_orbit_budget_stops_the_expansion(self):
        z9 = next(c for c in classes_of(9, True) if find_isomorphism(c, cyclic_group(9)) is not None)
        calls = []

        def tick():
            calls.append(1)
            raise SearchIncomplete("time budget 0 exceeded", SearchStats())

        with pytest.raises(SearchIncomplete, match="time budget"):
            _orbit(z9.rows, tick)
        assert len(calls) == 1

    @pytest.mark.parametrize("order,require_jordan", ORDERS)
    @settings(max_examples=3)
    @given(rnd=st.randoms(use_true_random=False))
    def test_orbit_matches_reference(self, order, require_jordan, rnd):
        """The chunked expansion against the one-table-at-a-time reference,
        every class representative under a random relabelling fixing 0."""
        for rep in classes_of(order, require_jordan):
            rows = relabel(rep, [0, *rnd.sample(range(1, order), order - 1)]).rows
            assert _orbit(rows) == orbit_reference(rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["7"], ["8"], ["9"], ["8", "--nonassociative"], ["9", "--limit", "5"],
            ["8", "--up-to-iso"], ["9", "--up-to-iso"], ["7", "--up-to-iso", "--nonassociative", "--limit", "1"],
        ],
        ids=" ".join,
    )
    def test_cli_text_matches_serialized_listing(self, argv, capsys):
        """The CLI writes both listings from cell bytes; this is their slow reference."""
        assert run(["search", "--order", *argv]) == 0
        out = re.sub(r"seconds=[\d.]+", "seconds=", capsys.readouterr().out)
        order, flags = int(argv[0]), argv[1:]
        if "--up-to-iso" in flags:
            limit = int(flags[-1]) if "--limit" in flags else None
            tables, stats = enumerate_loops(SearchOptions(
                order=order, nonassociative_only="--nonassociative" in flags, up_to_iso=True, result_limit=limit
            ))
        elif flags == ["--limit", "5"]:
            tables, stats = enumerate_loops(SearchOptions(order=order, result_limit=5))
        else:
            tables, stats = listed(order, True, flags == ["--nonassociative"])
        footer = (f"# nodes={stats.nodes} failures={stats.failures} models={stats.models_found} "
                  f"classes={stats.models_after_iso} seconds=\n")
        expected = "".join(serialize_table(t) + "\n" for t in tables) + footer
        assert out.splitlines() == expected.splitlines() and out == expected  # a cheap diff on failure
        if not flags:
            assert output_digest(parse_tables(out)) == OUTPUT_DIGESTS[order]

    @pytest.mark.parametrize("limit", [257, 0])
    def test_cli_listing_across_chunks(self, limit, capsys):
        """The listing is formatted 256 tables at a time: 257 tables span a
        chunk boundary, and none leaves the footer alone."""
        assert run(["search", "--order", "8", "--limit", str(limit)]) == 0
        out = re.sub(r"seconds=[\d.]+", "seconds=", capsys.readouterr().out)
        tables, stats = enumerate_loops(SearchOptions(order=8, result_limit=limit))
        assert len(tables) == limit
        footer = (f"# nodes={stats.nodes} failures={stats.failures} models={stats.models_found} "
                  f"classes={stats.models_after_iso} seconds=\n")
        assert out == "".join(serialize_table(t) + "\n" for t in tables) + footer

    def test_cli_limit_prints_a_prefix(self, monkeypatch, capsys):
        """``--limit k`` prints the first k tables of the full listing and
        the same footer; ``--limit 0`` expands no orbit."""
        assert run(["search", "--order", "8"]) == 0
        full = re.sub(r"seconds=[\d.]+", "seconds=", capsys.readouterr().out)
        for limit in (0, 1, 5):
            if limit == 0:
                monkeypatch.setattr("jordanloops.search._orbit", None)
            assert run(["search", "--order", "8", "--limit", str(limit)]) == 0
            out = re.sub(r"seconds=[\d.]+", "seconds=", capsys.readouterr().out)
            body, footer = out.rsplit("# nodes=", 1)
            assert len(parse_tables(body)) == limit and full.startswith(body)
            assert full.endswith("# nodes=" + footer)
            monkeypatch.undo()

    def test_listing_past_the_cap_is_refused(self, monkeypatch, capsys):
        """Past ``LISTING_LIMIT`` tables the listing exits 2 before it
        expands any orbit; the counts alone and a listing at the cap run."""
        monkeypatch.setattr("jordanloops.search.LISTING_LIMIT", 25979)
        with pytest.raises(ValueError, match="would hold 25980 tables"):
            enumerate_loops(SearchOptions(order=8))
        monkeypatch.setattr("jordanloops.search._orbit", None)
        assert run(["search", "--order", "8", "--limit", "3"]) == 2
        assert "more than LISTING_LIMIT = 25979" in capsys.readouterr().err
        assert run(["search", "--order", "8", "--limit", "0"]) == 0
        assert "models=25980 classes=25980 " in capsys.readouterr().out
        monkeypatch.undo()
        monkeypatch.setattr("jordanloops.search.LISTING_LIMIT", 25980)
        tables, stats = enumerate_loops(SearchOptions(order=8))
        assert len(tables) == stats.models_after_iso == 25980


@settings(max_examples=30)
@given(data=st.data())
def test_orbit_is_relabelling_invariant(data):
    order = data.draw(st.integers(3, 9))
    rep = data.draw(st.sampled_from(classes_of(order, True)))
    perm = [0] + data.draw(st.permutations(range(1, order)))
    assert _orbit(relabel(rep, perm).rows) == _orbit(rep.rows)


class TestClassification:
    def test_relabelings_collapse_to_one_class(self):
        rng = random.Random(42)
        base = even_jordan(6)
        copies = [base]
        for _ in range(8):
            perm = [0] + rng.sample(range(1, 6), 5)
            copies.append(relabel(base, perm))
        reps = classify_up_to_iso(copies)
        assert len(reps) == 1
        assert reps[0].rows == min(c.rows for c in copies)

    def test_empty_input(self):
        assert classify_up_to_iso([]) == []

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            classify_up_to_iso([cyclic_group(3), cyclic_group(4)])

    def test_non_loop_rejected(self):
        q = build_magma(2, [[1, 0], [0, 1]], "quasigroup")
        with pytest.raises(ValueError):
            classify_up_to_iso([q])

    def test_matches_canonical_form_oracle(self, searched):
        for n in (5, 6, 7):
            models, _ = searched(n)
            classes: dict = {}
            for m in models:
                classes.setdefault(canonical_form(m), []).append(m.rows)
            reps = classify_up_to_iso(models[::-1])
            assert [r.rows for r in reps] == sorted(min(c) for c in classes.values()), n

    def test_order8_classes_pinned(self, searched):
        models, _ = searched(8)
        assert classify_up_to_iso(models) == ORDER8_CLASSES
        shuffled = list(models)
        random.Random(8).shuffle(shuffled)
        assert classify_up_to_iso(shuffled) == ORDER8_CLASSES

    def test_representatives_sorted(self, searched):
        models, _ = searched(6)
        reps = classify_up_to_iso(models)
        assert [r.rows for r in reps] == sorted(r.rows for r in reps)
