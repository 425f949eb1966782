import hashlib
import itertools
import random
from enum import IntEnum
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanloops import tables
from jordanloops.constructions import antidiagonal_idempotent, construct
from jordanloops.search import SearchOptions, enumerate_loops
from jordanloops.tables import (
    KINDS,
    PROPERTY_TAGS,
    MagmaTable,
    ValidationError,
    _cells_text,
    _element_keys,
    _least_form,
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
    parse_tables,
    right_divide,
    serialize_table,
    squaring_bijective,
)
from oracle import (
    automorphism_count,
    build_magma_reference,
    canonical_form,
    least_form_reference,
    latin_violation_reference,
    least_isomorphism,
    parse_reference,
    properties_reference,
    random_loop,
    relabel,
    serialize_reference,
)


Z2 = [[0, 1], [1, 0]]
Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
NONCOMM = [[0, 1], [0, 1]]  # right projection: a*b = b column-wise? rows constant
ORDER8_CLASSES = parse_tables((Path(__file__).parent / "data" / "order8_classes.txt").read_text())


class TestBuildMagma:
    def test_basic_magma(self):
        t = build_magma(2, NONCOMM)
        assert t.order == 2 and t.kind == "magma"
        assert t.rows == ((0, 1), (0, 1))

    def test_rows_are_immutable_tuples(self):
        t = build_magma(3, Z3, "loop")
        assert isinstance(t.rows, tuple)
        assert all(isinstance(r, tuple) for r in t.rows)

    def test_equality_and_hash(self):
        a = build_magma(3, Z3, "loop")
        b = build_magma(3, [list(r) for r in Z3], "loop")
        c = build_magma(3, Z3, "quasigroup")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            build_magma(0, [])
        with pytest.raises(ValidationError):
            build_magma(2, [[0, 1]])
        with pytest.raises(ValidationError):
            build_magma(2, [[0, 1], [1, 0, 0]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError):
            build_magma(2, [[0, 2], [1, 0]])
        with pytest.raises(ValidationError):
            build_magma(2, [[0, -1], [1, 0]])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            build_magma(2, Z2, "group")

    def test_quasigroup_requires_latin(self):
        with pytest.raises(ValidationError):
            build_magma(2, NONCOMM, "quasigroup")

    def test_duplicate_diagnosis_scans_columns_first(self):
        # rows are fine column-wise here, so the row duplicate is reported
        with pytest.raises(ValidationError, match="row 0 repeats symbol 0"):
            build_magma(2, [[0, 0], [1, 1]], "quasigroup")
        # genuine column duplicate wins over a later row duplicate
        with pytest.raises(ValidationError, match="column 0 repeats symbol 0"):
            build_magma(2, [[0, 1], [0, 1]], "quasigroup")

    def test_loop_requires_identity_at_zero(self):
        with pytest.raises(ValidationError):
            build_magma(2, [[1, 0], [0, 1]], "loop")
        t = build_magma(2, Z2, "loop")
        assert identity_element(t) == 0

    def test_order_limit(self):
        with pytest.raises(ValidationError):
            build_magma(1 << 17, [])


class TestProperties:
    def test_property_tag_list(self):
        assert PROPERTY_TAGS == (
            "latin",
            "has-identity",
            "commutative",
            "associative",
            "idempotent",
            "exponent-two",
            "left-alternative",
            "jordan",
        )
        assert KINDS == ("magma", "quasigroup", "loop")

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            find_counterexample(cyclic_group(3), "medial")

    def test_latin(self):
        assert check(cyclic_group(4), "latin")
        bad = build_magma(2, [[0, 0], [1, 1]])
        assert "row 0" in find_counterexample(bad, "latin")

    def test_has_identity_anywhere(self):
        shifted = build_magma(2, [[1, 0], [0, 1]])  # identity is element 1
        assert check(shifted, "has-identity")
        assert identity_element(shifted) == 1
        proj = build_magma(2, NONCOMM)
        assert find_counterexample(proj, "has-identity") is not None

    def test_commutative(self):
        assert check(cyclic_group(5), "commutative")
        proj = build_magma(2, NONCOMM)
        witness = find_counterexample(proj, "commutative")
        assert "x=0" in witness and "y=1" in witness

    def test_associative(self):
        assert check(cyclic_group(6), "associative")

    def test_idempotent(self):
        diag = build_magma(1, [[0]])
        assert check(diag, "idempotent")
        assert find_counterexample(cyclic_group(2), "idempotent") is not None

    def test_exponent_two(self):
        assert check(cyclic_group(2), "exponent-two")
        klein = direct_product(cyclic_group(2), cyclic_group(2))
        assert check(klein, "exponent-two")
        assert not check(cyclic_group(4), "exponent-two")
        no_id = build_magma(2, NONCOMM)
        with pytest.raises(ValueError):
            find_counterexample(no_id, "exponent-two")

    def test_left_alternative(self):
        assert check(cyclic_group(7), "left-alternative")

    def test_jordan_includes_commutativity(self):
        proj = build_magma(2, NONCOMM)
        assert find_counterexample(proj, "jordan") is not None
        assert check(cyclic_group(9), "jordan")

    def test_every_tag_accepts_every_group(self):
        g = cyclic_group(2)
        for tag in PROPERTY_TAGS:
            if tag == "idempotent":
                continue
            assert check(g, tag), tag


@st.composite
def tables_of_each_kind(draw):
    """A table with every kind it qualifies for: a random magma, or a
    loop, possibly relabelled so its identity leaves 0 or isotoped by a row
    permutation so it may have none."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    else:
        rows = random_loop(n, draw(st.randoms(use_true_random=False))).rows
        move = draw(st.sampled_from(["none", "relabel", "rows"]))
        if move == "relabel":
            rows = relabel(build_magma(n, rows, "quasigroup"), draw(st.permutations(range(n)))).rows
        elif move == "rows":
            rows = [rows[i] for i in draw(st.permutations(range(n)))]
    tables = []
    for kind in KINDS:
        try:
            tables.append(build_magma(n, rows, kind))
        except ValidationError:
            pass
    return tables


class TestPropertiesAgainstReference:
    """The verdicts of ``find_counterexample``, which answers from a
    quasigroup's or loop's kind where it can, against their definitions."""

    @settings(max_examples=150)
    @given(tables=tables_of_each_kind())
    def test_every_tag_on_every_kind(self, tables):
        magma = tables[0]
        assert magma.kind == "magma"
        reference = properties_reference(magma.rows)
        for tag in PROPERTY_TAGS:
            if tag == "exponent-two" and not reference["has-identity"]:
                for t in tables:
                    with pytest.raises(ValueError, match="no identity element"):
                        find_counterexample(t, tag)
                continue
            witness = find_counterexample(magma, tag)
            assert (witness is None) == reference[tag], tag
            # a kind claim changes how a verdict is reached, never the text
            for t in tables[1:]:
                assert find_counterexample(t, tag) == witness, (t.kind, tag)

    def test_non_latin_magma_keeps_its_witness(self):
        rows = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
        t = build_magma(3, rows)
        assert find_counterexample(t, "latin") == latin_violation_reference(rows, 3) == "column 1 repeats symbol 1"
        assert find_counterexample(t, "exponent-two") == "column 1 repeats symbol 1"
        assert find_counterexample(t, "has-identity") is None


class TestQuasigroupOps:
    def test_divisions_invert_product(self):
        t = cyclic_group(7)
        for a, b in itertools.product(range(7), repeat=2):
            assert t.rows[a][left_divide(t, a, b)] == b
            assert t.rows[right_divide(t, a, b)][a] == b

    def test_division_requires_latin(self):
        with pytest.raises(ValueError):
            left_divide(build_magma(2, NONCOMM), 0, 1)

    def test_opposite(self):
        proj = build_magma(2, NONCOMM)
        opp = opposite(proj)
        assert opp.rows == ((0, 0), (1, 1))
        assert opposite(opp) == proj

    def test_squaring_bijective(self):
        assert squaring_bijective(cyclic_group(5))
        assert not squaring_bijective(cyclic_group(4))


class TestDirectProduct:
    def test_orders_multiply_and_kind_weakens(self):
        p = direct_product(cyclic_group(2), cyclic_group(3))
        assert p.order == 6 and p.kind == "loop"
        assert check(p, "associative")
        assert find_isomorphism(p, cyclic_group(6)) is not None

        q = build_magma(2, [[1, 0], [0, 1]], "quasigroup")
        mixed = direct_product(cyclic_group(2), q)
        assert mixed.kind == "quasigroup"

    def test_componentwise_product(self):
        a, b = cyclic_group(2), cyclic_group(3)
        p = direct_product(a, b)
        for i1, j1, i2, j2 in itertools.product(range(2), range(3), range(2), range(3)):
            x = i1 * 3 + j1
            y = i2 * 3 + j2
            expected = a.rows[i1][i2] * 3 + b.rows[j1][j2]
            assert p.rows[x][y] == expected


class TestIsomorphism:
    def test_identity_map_on_equal_tables(self):
        t = cyclic_group(6)
        assert find_isomorphism(t, t) == tuple(range(6))

    def test_order_mismatch(self):
        assert find_isomorphism(cyclic_group(3), cyclic_group(4)) is None

    def test_non_loop_rejected(self):
        q = build_magma(2, [[1, 0], [0, 1]], "quasigroup")
        with pytest.raises(ValueError):
            find_isomorphism(q, q)

    def test_distinguishes_z4_from_klein(self):
        klein = direct_product(cyclic_group(2), cyclic_group(2))
        assert find_isomorphism(cyclic_group(4), klein) is None

    def test_recovers_random_relabelings(self):
        rng = random.Random(20260823)
        base = cyclic_group(8)
        for _ in range(20):
            perm = [0] + rng.sample(range(1, 8), 7)
            copy = relabel(base, perm)
            pi = find_isomorphism(base, copy)
            assert pi is not None
            for x, y in itertools.product(range(8), repeat=2):
                assert pi[base.rows[x][y]] == copy.rows[pi[x]][pi[y]]

    def test_mapping_fixes_identity(self):
        copy = relabel(cyclic_group(5), (0, 3, 1, 4, 2))
        pi = find_isomorphism(cyclic_group(5), copy)
        assert pi is not None and pi[0] == 0

    def test_matches_least_isomorphism_oracle(self, searched):
        # a noncommutative nonassociative loop of order 5: 1*2 = 3, 2*1 = 4
        nc5 = build_magma(5, [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], "loop")
        loops = [cyclic_group(n) for n in range(1, 8)]
        loops += [direct_product(cyclic_group(2), cyclic_group(2)), nc5]
        for n in (5, 6, 7):
            loops += searched(n)[0]
        # two nonassociative classes that power order, commutant and squaring
        # walk alone put in one bucket; only the right-alternative defect
        # count tells them apart
        loops += [ORDER8_CLASSES[1], ORDER8_CLASSES[3]]
        rng = random.Random(20261018)
        for t in loops:
            n = t.order
            u = relabel(t, [0] + rng.sample(range(1, n), n - 1))
            other = next(s for s in loops if s.order == n)
            for lhs, rhs in ((t, u), (u, t), (t, other)):
                assert find_isomorphism(lhs, rhs) == least_isomorphism(lhs, rhs)

    @settings(max_examples=40)
    @given(n=st.integers(2, 7), rnd=st.randoms(use_true_random=False))
    def test_random_loops_match_least_isomorphism_oracle(self, n, rnd):
        """Mostly noncommutative loops, where many candidate images fail and
        the cycle types of their left translations prune the rest."""
        t = random_loop(n, rnd)
        u = random_relabelling(random_loop(n, rnd) if rnd.random() < 0.3 else t, rnd)
        assert find_isomorphism(t, u) == least_isomorphism(t, u)

    def test_construct_mappings_pinned(self):
        """The mappings found between construct(n), n = 6..64 with n != 9,
        and a seeded random relabelling of it, as one SHA-256 over lines of
        images: keys and pruning only cut the search, so every mapping
        stays the least one."""
        rnd = random.Random(30)
        digest = hashlib.sha256()
        for n in range(6, 65):
            if n != 9:
                t = construct(n)
                pi = find_isomorphism(t, relabel(t, [0, *rnd.sample(range(1, n), n - 1)]))
                digest.update((" ".join(map(str, pi)) + "\n").encode())
        assert digest.hexdigest() == "e61cc9faec98d050b42949de149ea26c8547d5802b21c588a95ea99fc4fe2506"

    def test_classes_only_the_defect_separates(self):
        """Distinct order-8 classes whose keys agree without the
        right-alternative defect reach the matcher, which finds no map;
        classes 1 and 3 are told apart by the defect alone."""
        keys = [sorted(_element_keys(t.rows)) for t in ORDER8_CLASSES]
        pairs = [(a, b) for a, b in itertools.combinations(range(len(keys)), 2) if keys[a] == keys[b]]
        assert (1, 3) in pairs
        defects = [sorted(_element_keys(ORDER8_CLASSES[a].rows, defect=True)) for a in (1, 3)]
        assert defects[0] != defects[1]
        for a, b in pairs:
            lhs, rhs = ORDER8_CLASSES[a], ORDER8_CLASSES[b]
            assert find_isomorphism(lhs, rhs) is None
            assert find_isomorphism(rhs, lhs) is None


class TestLeastForm:
    def test_matches_canonical_form_oracle(self, searched):
        # every commutative loop of order <= 6, the Jordan ones included
        loops = [m for n in range(1, 7) for m in searched(n, False)[0]]
        loops += classify_up_to_iso(searched(7)[0])
        for t in loops:
            rows, automorphisms = _least_form(t.rows)
            assert rows == canonical_form(t), t.rows
            assert automorphisms == automorphism_count(t), t.rows

    @settings(max_examples=20)
    @given(n=st.sampled_from([6, 7, 8, 10, 11, 12, 13, 14, 15, 16]), data=st.data())
    def test_relabelling_invariant(self, n, data):
        t = construct(n)
        copy = relabel(t, [0] + data.draw(st.permutations(range(1, n))))
        assert _least_form(copy.rows) == _least_form(t.rows)


@lru_cache(maxsize=None)
def least_form_pool():
    """Every commutative loop of orders 1-7 up to isomorphism, the 22
    order-8 Jordan classes and construct(n) for n = 6..16, n != 9."""
    loops = [
        t for n in range(1, 8)
        for t in enumerate_loops(SearchOptions(order=n, require_jordan=False, up_to_iso=True))[0]
    ]
    return loops + ORDER8_CLASSES + [construct(n) for n in range(6, 17) if n != 9]


def random_relabelling(table, rnd):
    return relabel(table, [0, *rnd.sample(range(1, table.order), table.order - 1)])


class TestLeastFormAgainstReference:
    """The branch-and-bound over the cycles of L_b against the row-1
    branching it replaced (``oracle.least_form_reference``)."""

    @settings(max_examples=4)
    @given(rnd=st.randoms(use_true_random=False))
    def test_known_loops(self, rnd):
        for t in least_form_pool():
            rows = random_relabelling(t, rnd).rows
            assert _least_form(rows) == least_form_reference(rows), rows

    @settings(max_examples=100)
    @given(n=st.integers(3, 8), rnd=st.randoms(use_true_random=False))
    def test_random_loops(self, n, rnd):
        rows = random_relabelling(random_loop(n, rnd), rnd).rows
        assert _least_form(rows) == least_form_reference(rows)

    def test_elementary_abelian_groups(self):
        """|Aut| is |GL(3,2)| = 168 at order 8 and |GL(4,2)| = 20,160 at
        order 16, where the reference takes about a minute.  The least form
        is the table itself: direct_product encodes the pairs as XOR does."""
        z2 = cyclic_group(2)
        e8 = direct_product(direct_product(z2, z2), z2)
        e16 = direct_product(e8, z2)
        assert _least_form(e8.rows) == (e8.rows, 168)
        assert _least_form(e16.rows) == (e16.rows, 20160)
        assert _least_form(random_relabelling(e16, random.Random(16)).rows) == (e16.rows, 20160)


Cell = IntEnum("Cell", [(f"C{v}", v) for v in range(12)])


class SubInt(int):
    pass


@st.composite
def corrupted_tables(draw):
    """A Latin square of order 1..12 (an identity-fixing relabelling of Z_n
    or a relabelling of its rows, columns and symbols), with up to three
    cells overwritten: out of range, negative, True, 2.0, an IntEnum
    member of the same value (still valid), or a copy of another cell of
    its row or column."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        p = [0] + draw(st.permutations(range(1, n)))
        r = c = s = p
    else:
        r, c, s = (draw(st.permutations(range(n))) for _ in range(3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[r[i]][c[j]] = s[(i + j) % n]
    square = [row[:] for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["high", "negative", "bool", "float", "enum", "row", "column"]))
        if how == "row":
            rows[i][j] = rows[i][draw(st.integers(0, n - 1))]
        elif how == "column":
            rows[i][j] = rows[draw(st.integers(0, n - 1))][j]
        else:
            rows[i][j] = {"high": n + draw(st.integers(0, 3)), "negative": -draw(st.integers(1, 3)),
                          "bool": True, "float": 2.0, "enum": Cell(square[i][j])}[how]
    return n, rows


def outcome(build, *args):
    try:
        result = build(*args)
    except ValidationError as exc:
        return str(exc)
    return result.rows if isinstance(result, MagmaTable) else result


class TestLineLevelChecks:
    @settings(max_examples=300)
    @given(corrupted_tables())
    def test_build_magma_matches_cell_by_cell_reference(self, case):
        n, rows = case
        for kind in KINDS:
            assert outcome(build_magma, n, rows, kind) == outcome(build_magma_reference, n, rows, kind)

    @settings(max_examples=60)
    @given(st.integers(1, 64), st.sampled_from(KINDS), st.randoms(use_true_random=False))
    def test_serialize_matches_per_cell_formatter(self, n, kind, rnd):
        """A random magma or Z_n, some of its cells an int subclass."""
        rows = [[rnd.choice((int, SubInt))(rnd.randrange(n) if kind == "magma" else (i + j) % n)
                 for j in range(n)] for i in range(n)]
        table = build_magma(n, rows, kind)
        text = serialize_table(table)
        assert text == serialize_reference(table)
        assert parse_tables(text) == [table]

    @settings(max_examples=10)
    @given(st.integers(0, 2**32))
    def test_cells_text_matches_serialize_table(self, seed):
        """Z_n at every order up to 64 and every constructed nonassociative
        loop up to order 64, each relabelled by a random permutation fixing 0."""
        rnd = random.Random(seed)
        for loop in cells_text_loops():
            n = loop.order
            table = relabel(loop, [0, *rnd.sample(range(1, n), n - 1)])
            cells = bytes(v for row in table.rows for v in row)
            assert _cells_text(n)(cells) == serialize_table(table) + "\n", n

    @pytest.mark.parametrize("k", [1, 2, 256])
    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 63, 64])
    def test_cells_text_chunk_is_concatenation(self, n, k):
        """k tables formatted at once read as k single-table calls joined;
        the cells are random labels, so both digit widths and every label
        position occur."""
        rnd = random.Random(n * 1000 + k)
        labels = bytes(v % n for v in range(256))
        chunk = [rnd.randbytes(n * n).translate(labels) for _ in range(k)]
        text = _cells_text(n)
        assert text(*chunk) == "".join(map(text, chunk))
        rows = [chunk[0][i * n:(i + 1) * n] for i in range(n)]
        assert text(chunk[0]) == serialize_table(MagmaTable(n, rows, "loop")) + "\n"
        assert text() == ""

    @pytest.mark.parametrize("n", range(1, 65))
    @settings(max_examples=1)
    @given(st.integers(0, 2**32))
    def test_cells_text_batches_match_serialize_table(self, n, seed):
        """Batches of random labels below, at and above the CLI's chunk of
        256 tables, against ``serialize_table`` one table at a time."""
        rnd = random.Random(seed)
        labels = bytes(v % n for v in range(256))
        chunk = [rnd.randbytes(n * n).translate(labels) for _ in range(257)]
        expected = [
            serialize_table(MagmaTable(n, [cells[i * n : i * n + n] for i in range(n)], "loop")) + "\n"
            for cells in chunk
        ]
        text = _cells_text(n)
        for k in (0, 1, 255, 256, 257):
            assert text(*chunk[:k]) == "".join(expected[:k]), k

    @settings(max_examples=100)
    @given(st.integers(1, 64), st.sampled_from(KINDS), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_parse_matches_int_reference(self, n, kind, edits, rnd):
        """A table of the kind at order n, up to ``edits`` of its tokens
        rewritten, dropped or repeated, then the same table untouched."""
        if kind == "magma":
            rows = [[rnd.randrange(n) for _ in range(n)] for _ in range(n)]
        elif kind == "quasigroup":
            r, c, v = (rnd.sample(range(n), n) for _ in range(3))
            rows = [[v[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]
        else:
            loop = rnd.choice([t for t in cells_text_loops() if t.order == n])
            rows = relabel(loop, [0, *rnd.sample(range(1, n), n - 1)]).rows
        table = build_magma(n, rows, kind)
        lines = serialize_table(table).splitlines()
        for _ in range(edits):
            i = rnd.randrange(n)
            tokens = lines[2 + i].split()
            j = rnd.randrange(len(tokens)) if tokens else 0
            how = rnd.choice([*TOKEN_EDITS, "drop", "repeat"])
            if how == "drop":
                del tokens[j:j + 1]
            elif how == "repeat":
                tokens.insert(j, tokens[j] if tokens else "0")
            else:
                tokens[j:j + 1] = [TOKEN_EDITS[how](rows[i][min(j, n - 1)], n)]
            lines[2 + i] = " ".join(tokens)
        text = "\n".join(lines) + "\n\n" + serialize_table(table)
        expected = outcome(parse_reference, text)
        assert outcome(parse_tables, text) == expected
        if not edits:
            assert expected == [table, table]

    def test_canonical_labels_skip_the_cell_checks(self, monkeypatch):
        """A text of canonical labels is checked only for its kind; one
        non-canonical token sends the table through ``build_magma``."""
        loop = construct(64)
        text = serialize_table(loop)
        calls = []
        build = tables.build_magma
        monkeypatch.setattr(tables, "build_magma", lambda *args: calls.append(args) or build(*args))
        assert parse_tables(text) == [loop] and not calls
        assert parse_tables(text.replace("\n1 ", "\n01 ", 1)) == [loop] and len(calls) == 1


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

# Rewrites of the token of label v in an order-n table: int() reads the
# first five as v (or 0), the next two as out of range, the last two not at all.
TOKEN_EDITS = {
    "leading zero": lambda v, n: f"0{v}",
    "plus sign": lambda v, n: f"+{v}",
    "minus zero": lambda v, n: "-0",
    "underscore": lambda v, n: f"{v // 10}_{v % 10}",
    "arabic-indic": lambda v, n: str(v).translate(ARABIC_INDIC),
    "order": lambda v, n: str(n),
    "minus one": lambda v, n: "-1",
    "letter": lambda v, n: "x",
    "decimal": lambda v, n: f"{v}.0",
}


@lru_cache(maxsize=None)
def cells_text_loops():
    return [cyclic_group(n) for n in range(1, 65)] + [construct(n) for n in range(6, 65) if n != 9]


ROUND_TRIP_LOOPS = (
    [construct(n) for n in (6, 7, 8, 10, 11, 12, 17)]
    + [t for n in (1, 2, 4, 5) for t in enumerate_loops(SearchOptions(n, require_jordan=False))[0]]
)
ROUND_TRIP_QUASIGROUPS = [antidiagonal_idempotent(n) for n in (1, 3, 5, 7)]


@st.composite
def noisy_tables(draw):
    """A relabelled table of one of the three kinds, and its serialisation
    with comment lines and indentation mixed in (blank lines would split it)."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "magma":
        n = draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        table = build_magma(n, rows, "magma")
    elif kind == "quasigroup":
        table = draw(st.sampled_from(ROUND_TRIP_QUASIGROUPS + ROUND_TRIP_LOOPS))
        table = build_magma(table.order, table.rows, "quasigroup")
    else:
        table = draw(st.sampled_from(ROUND_TRIP_LOOPS))
    n = table.order
    # only a loop must keep its identity at 0
    perm = ([0] + draw(st.permutations(range(1, n))) if kind == "loop"
            else draw(st.permutations(range(n))))
    table = relabel(table, perm)
    lines = []
    for line in serialize_table(table).splitlines():
        lines += draw(st.lists(st.sampled_from(["# note", "  #", "#order 3"]), max_size=2))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", "  "])))
    return table, "\n".join(lines)


GAPS = st.lists(st.sampled_from(["", "   ", "# between tables"]), max_size=3).map(
    lambda noise: "\n" + "\n".join(["", *noise]) + "\n")


class TestSerialization:
    def test_round_trip(self):
        t = cyclic_group(4)
        text = serialize_table(t)
        assert text.splitlines()[0] == "order 4"
        assert text.splitlines()[1] == "kind loop"
        assert parse_table(text) == t

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\norder 2\nkind loop\n# interior note\n0 1\n\n1 0\n"
        assert parse_table(text) == cyclic_group(2)

    def test_parse_errors(self):
        with pytest.raises(ValidationError, match="order"):
            parse_table("size 2\nkind loop\n0 1\n1 0\n")
        with pytest.raises(ValidationError, match="kind"):
            parse_table("order 2\nkind ring\n0 1\n1 0\n")
        with pytest.raises(ValidationError, match="rows"):
            parse_table("order 3\nkind loop\n0 1 2\n1 2 0\n")
        with pytest.raises(ValidationError, match="bad table row"):
            parse_table("order 2\nkind loop\n0 x\n1 0\n")
        with pytest.raises(ValidationError):
            parse_table("")

    def test_parse_enforces_declared_kind(self):
        with pytest.raises(ValidationError):
            parse_table("order 2\nkind loop\n1 0\n0 1\n")
        parsed = parse_table("order 2\nkind quasigroup\n1 0\n0 1\n")
        assert parsed.kind == "quasigroup"

    def test_multi_table_stream(self):
        text = serialize_table(cyclic_group(2)) + "\n" + serialize_table(cyclic_group(3))
        tables = parse_tables(text)
        assert tables == [cyclic_group(2), cyclic_group(3)]

    @settings(max_examples=80)
    @given(st.lists(noisy_tables(), min_size=1, max_size=4), GAPS, st.data())
    def test_stream_round_trip_many(self, cases, lead, data):
        """Every table survives serialize -> parse, alone and in a stream whose
        tables are separated by at least one blank line plus noise."""
        tables = [t for t, _ in cases]
        for table, text in cases:
            assert parse_table(text) == table
            assert parse_tables(serialize_table(table)) == [table]
        stream = lead.lstrip("\n")
        for i, (_, text) in enumerate(cases):
            stream += text + (data.draw(GAPS) if i < len(cases) - 1 else "\n")
        assert parse_tables(stream) == tables
