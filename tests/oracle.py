"""Slow reference implementations used to cross-check the fast engines.

Everything here favours obviousness over speed: plain generate-and-test
with only Latin-feasibility pruning, in a fixed cell order.  The one
exception is ``labelled_reference``, the search engine walking the whole
labelled tree.  The output digest pins whole lists of tables.
"""
from __future__ import annotations

import hashlib
import itertools
import time

from jordanloops.search import SearchOptions, SearchStats, _run, _State
from jordanloops.structure import conjugation, inner_left, inner_right
from jordanloops.tables import KINDS, MagmaTable, ValidationError, _check_order, build_magma, check


def _symmetric_fills(n: int, identity_border: bool) -> list:
    """Every symmetric Latin square of order n as a list of rows, by
    brute-force fill of the upper triangle; with ``identity_border`` row and
    column 0 are fixed to 0..n-1 first."""
    cells = [[-1] * n for _ in range(n)]
    row_used = [0] * n
    if identity_border:
        for i in range(n):
            cells[0][i] = cells[i][0] = i
            row_used[i] = 1 << i
        row_used[0] = (1 << n) - 1
    todo = [(i, j) for i in range(1 if identity_border else 0, n) for j in range(i, n)]
    out: list = []

    def fill(k: int):
        if k == len(todo):
            out.append([row[:] for row in cells])
            return
        i, j = todo[k]
        for v in range(n):
            b = 1 << v
            if row_used[i] & b or (i != j and row_used[j] & b):
                continue
            cells[i][j] = cells[j][i] = v
            row_used[i] |= b
            row_used[j] |= b
            fill(k + 1)
            row_used[i] &= ~b
            if i != j:
                row_used[j] &= ~b
            cells[i][j] = cells[j][i] = -1

    fill(0)
    return out


def naive_commutative_loops(n: int, require_jordan: bool) -> list[MagmaTable]:
    """Every commutative loop of order n, by brute-force fill of the upper
    triangle; leaves are filtered with the public property checks."""
    tables = [build_magma(n, rows, "loop") for rows in _symmetric_fills(n, True)]
    return [t for t in tables if not require_jordan or check(t, "jordan")]


def labelled_reference(order: int, require_jordan: bool):
    """Every labelled commutative loop of the order, as ``enumerate_loops``
    lists them, by one search from the blank table over every labelling
    instead of an expansion of the class representatives.  Returns
    (tables, stats); the stats describe that labelled tree."""
    stats = SearchStats()
    raw: list = []
    start = time.monotonic()
    _run(_State(order, require_jordan), SearchOptions(order, require_jordan), stats, raw, start)
    raw.sort()
    tables = [build_magma(order, [c[i * order:(i + 1) * order] for i in range(order)], "loop") for c in raw]
    stats.models_found = stats.models_after_iso = len(tables)
    stats.seconds = time.monotonic() - start
    return tables, stats


def latin_violation_reference(rows, n):
    """First duplicated symbol, columns scanned before rows, cell by cell:
    the scan ``tables._latin_violation`` makes only inside a failing line."""
    for j in range(n):
        seen = set()
        for i in range(n):
            v = rows[i][j]
            if v in seen:
                return f"column {j} repeats symbol {v}"
            seen.add(v)
    for i in range(n):
        seen = set()
        for v in rows[i]:
            if v in seen:
                return f"row {i} repeats symbol {v}"
            seen.add(v)
    return None


def build_magma_reference(order: int, rows, kind: str = "magma") -> MagmaTable:
    """``tables.build_magma`` checking every cell on its own, in the order
    that fixes which ``ValidationError`` message is raised."""
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}")
    _check_order(order)
    table = MagmaTable(order, rows, kind)
    rows = table.rows
    if len(rows) != order:
        raise ValidationError(f"expected {order} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != order:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {order}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                raise ValidationError(f"cell ({i},{j}) value {v!r} out of range 0..{order - 1}")
    if kind != "magma":
        bad = latin_violation_reference(rows, order)
        if bad is not None:
            raise ValidationError(bad)
    if kind == "loop":
        for x in range(order):
            if rows[0][x] != x:
                raise ValidationError(f"element 0 is not a left identity: 0*{x} = {rows[0][x]}")
            if rows[x][0] != x:
                raise ValidationError(f"element 0 is not a right identity: {x}*0 = {rows[x][0]}")
    return table


def serialize_reference(table: MagmaTable) -> str:
    """The wire format, one ``str`` call per cell."""
    lines = [f"order {table.order}", f"kind {table.kind}"]
    lines.extend(" ".join(str(v) for v in row) for row in table.rows)
    lines.append("")
    return "\n".join(lines)


def symmetric_latin_squares(n: int) -> list[MagmaTable]:
    """Every commutative quasigroup of order n (no identity demanded)."""
    return [build_magma(n, rows, "quasigroup") for rows in _symmetric_fills(n, False)]


def relabel(table: MagmaTable, perm) -> MagmaTable:
    """The isomorphic copy of a table under the given symbol permutation."""
    n = table.order
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[table.rows[i][j]]
    return build_magma(n, rows, table.kind)


def naive_parenthesizations(table: MagmaTable, c: int, k: int) -> frozenset:
    """All values of k-factor products of c, by direct recursion."""
    if k == 1:
        return frozenset((c,))
    vals = set()
    for i in range(1, k):
        for a in naive_parenthesizations(table, c, i):
            for b in naive_parenthesizations(table, c, k - i):
                vals.add(table.rows[a][b])
    return frozenset(vals)


def inner_mappings(table: MagmaTable) -> tuple:
    """Every generating inner mapping T(x), L(x,y) and R(x,y), deduplicated."""
    n = table.order
    maps = set()
    for x in range(n):
        maps.add(conjugation(table, x))
        for y in range(n):
            maps.add(inner_left(table, x, y))
            maps.add(inner_right(table, x, y))
    return tuple(maps)


def division_closure(table: MagmaTable, gens) -> tuple:
    """Subloop generated by ``gens``, by definition: the smallest set holding
    0 and the generators that is closed under the product and both
    divisions."""
    rows = table.rows
    members = {0, *gens}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        ra = rows[a]
        for b in tuple(members):
            for v in (ra[b], rows[b][a], ra.index(b), rows[b].index(a)):
                if v not in members:
                    members.add(v)
                    frontier.append(v)
    return tuple(sorted(members))


def inner_mapping_closure(table: MagmaTable, seed, maps) -> tuple:
    """Normal closure by definition: grow the generated subloop until every
    mapping in ``maps`` (``inner_mappings(table)``) maps it into itself."""
    members = set(division_closure(table, seed))
    while True:
        extra = {f[s] for f in maps for s in members} - members
        if not extra:
            return tuple(sorted(members))
        members = set(division_closure(table, members | extra))


def greedy_generators(table: MagmaTable) -> list:
    """The generating sequence the isomorphism search branches on: at each
    step, the least element outside the subloop generated so far."""
    gens: list = []
    members = {0}
    while len(members) < table.order:
        gens.append(min(set(range(table.order)) - members))
        members = set(division_closure(table, members | {gens[-1]}))
    return gens


def _relabellings(n: int):
    """Every permutation of 0..n-1 that fixes the identity 0."""
    return ((0, *rest) for rest in itertools.permutations(range(1, n)))


def least_isomorphism(lhs: MagmaTable, rhs: MagmaTable):
    """Of all identity-fixing isomorphisms lhs -> rhs, tried one by one, the
    one whose images of ``greedy_generators(lhs)`` are lexicographically
    least; None when there is none."""
    n = lhs.order
    if rhs.order != n:
        return None
    r1, r2 = lhs.rows, rhs.rows
    isos = [
        pi for pi in _relabellings(n)
        if all(pi[r1[x][y]] == r2[pi[x]][pi[y]] for x in range(n) for y in range(n))
    ]
    gens = greedy_generators(lhs)
    return min(isos, key=lambda pi: [pi[g] for g in gens], default=None)


def automorphism_count(table: MagmaTable) -> int:
    """How many identity-fixing permutations map the table to itself."""
    n = table.order
    rows = table.rows
    return sum(
        all(pi[rows[x][y]] == rows[pi[x]][pi[y]] for x in range(n) for y in range(n))
        for pi in _relabellings(n)
    )


def conjugacy_key(sq) -> tuple:
    """The least conjugate p*sq*p^-1 of a map of 0..n-1 that fixes 0, over
    every permutation p fixing 0; two such maps are conjugate exactly when
    their keys are equal."""
    best = None
    for p in _relabellings(len(sq)):
        image = [0] * len(sq)
        for x, s in enumerate(sq):
            image[p[x]] = p[s]
        if best is None or image < best:
            best = image
    return tuple(best)


def canonical_form(table: MagmaTable) -> tuple:
    """The least table rows over every identity-fixing relabelling; two loops
    are isomorphic exactly when their canonical forms are equal."""
    n = table.order
    rows = table.rows
    best = None
    for pi in _relabellings(n):
        inv = [0] * n
        for x, y in enumerate(pi):
            inv[y] = x
        form = tuple(tuple(pi[rows[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
        if best is None or form < best:
            best = form
    return best


def output_digest(tables) -> str:
    """The digest of bench/oracle.py: each table as its ``order``, ``kind``
    and row lines, the texts sorted and joined by a blank line."""
    texts = sorted(
        "\n".join([f"order {t.order}", f"kind {t.kind}"] + [" ".join(map(str, r)) for r in t.rows])
        for t in tables
    )
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
