"""Slow reference implementations used to cross-check the fast engines.

Everything here favours obviousness over speed: plain generate-and-test
with only Latin-feasibility pruning, in a fixed cell order.
"""
from __future__ import annotations

from jordanloops.powers import generated_subloop
from jordanloops.structure import conjugation, inner_left, inner_right
from jordanloops.tables import MagmaTable, build_magma, check


def naive_commutative_loops(n: int, require_jordan: bool) -> list[MagmaTable]:
    """Every commutative loop of order n, by brute-force fill of the upper
    triangle; leaves are filtered with the public property checks."""
    cells = [[-1] * n for _ in range(n)]
    for i in range(n):
        cells[0][i] = cells[i][0] = i
    row_used = [1 << i for i in range(n)]
    row_used[0] = (1 << n) - 1
    todo = [(i, j) for i in range(1, n) for j in range(i, n)]
    out: list[MagmaTable] = []

    def fill(k: int):
        if k == len(todo):
            table = build_magma(n, [row[:] for row in cells], "loop")
            if not require_jordan or check(table, "jordan"):
                out.append(table)
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


def symmetric_latin_squares(n: int) -> list[MagmaTable]:
    """Every commutative quasigroup of order n (no identity demanded)."""
    cells = [[-1] * n for _ in range(n)]
    row_used = [0] * n
    todo = [(i, j) for i in range(n) for j in range(i, n)]
    out: list[MagmaTable] = []

    def fill(k: int):
        if k == len(todo):
            out.append(build_magma(n, [row[:] for row in cells], "quasigroup"))
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


def inner_mapping_closure(table: MagmaTable, seed, maps) -> tuple:
    """Normal closure by definition: grow the generated subloop until every
    mapping in ``maps`` (``inner_mappings(table)``) maps it into itself."""
    members = set(generated_subloop(table, seed).members)
    while True:
        extra = {f[s] for f in maps for s in members} - members
        if not extra:
            return tuple(sorted(members))
        members = set(generated_subloop(table, tuple(members | extra)).members)
