"""Slow reference implementations used to cross-check the fast engines.

Everything here favours obviousness over speed: plain generate-and-test
with only Latin-feasibility pruning, in a fixed cell order.  The one
exception is ``labelled_reference``, the search engine walking the whole
labelled tree.  The output digest pins whole lists of tables.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import time
from operator import itemgetter

from jordanloops.search import SearchOptions, SearchStats, _run, _State
from jordanloops.powers import generated_subloop
from jordanloops.structure import normal_closure
from jordanloops.tables import (
    KINDS,
    MagmaTable,
    ValidationError,
    _associativity_witness,
    _check_order,
    build_magma,
    check,
)


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
    start = time.monotonic()
    raw = sorted(_run(_State(order, require_jordan), SearchOptions(order, require_jordan), stats, lambda: None))
    tables = [build_magma(order, [c[i * order:(i + 1) * order] for i in range(order)], "loop") for c in raw]
    stats.models_found = stats.models_after_iso = len(tables)
    stats.seconds = time.monotonic() - start
    return tables, stats


def closure_reference(order: int, cells):
    """The cells closed under the propagation rules, each applied to every
    line and every Jordan instance in rounds until a round sets nothing;
    None once the cells contradict.  The rules: a set cell sets its mirror;
    a line with one unset cell takes the one symbol it lacks; no line
    repeats a symbol; the diagonal can still give every symbol a count of
    the order's parity; and in an instance s*p = q*x, with s = x*x set,
    p = y*x and q = s*y, a lone unknown is forced: one side by the other,
    p as the column of q*x in row s, q as the column of s*p in row x."""
    n = order
    rows = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
    while True:
        forced = []
        for i in range(n):
            forced += [(j, i, v) for j, v in enumerate(rows[i]) if v >= 0]
            unset = [j for j in range(n) if rows[i][j] < 0]
            lacking = set(range(n)) - set(rows[i])
            if len(unset) == 1 and len(lacking) == 1:
                forced.append((i, unset[0], lacking.pop()))
        for x in range(n):
            s = rows[x][x]
            for y in range(n) if s >= 0 else ():
                p, q = rows[y][x], rows[s][y]
                lhs = rows[s][p] if p >= 0 else -1
                rhs = rows[q][x] if q >= 0 else -1
                if p >= 0 and q >= 0:
                    if lhs >= 0 and rhs >= 0 and lhs != rhs:
                        return None
                    if lhs < 0 <= rhs:
                        forced.append((s, p, rhs))
                    if rhs < 0 <= lhs:
                        forced.append((q, x, lhs))
                elif p < 0 and rhs >= 0 and rhs in rows[s]:
                    forced.append((y, x, rows[s].index(rhs)))
                elif q < 0 and lhs >= 0 and lhs in rows[x]:
                    forced.append((s, y, rows[x].index(lhs)))
        grew = False
        for i, j, v in forced:
            if rows[i][j] < 0:
                rows[i][j] = v
                grew = True
            elif rows[i][j] != v:
                return None
        for line in rows:
            symbols = [v for v in line if v >= 0]
            if len(symbols) != len(set(symbols)):
                return None
        diagonal = [rows[x][x] for x in range(n)]
        wrong = sum(diagonal.count(v) % 2 != n % 2 for v in range(n))
        if wrong > diagonal.count(-1) or (diagonal.count(-1) - wrong) % 2:
            return None
        if not grew:
            return tuple(v for row in rows for v in row)


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


def properties_reference(rows) -> dict:
    """Each property tag's verdict on the table ``rows``, from its
    definition over every tuple of elements."""
    n = len(rows)
    r = range(n)
    lines = [list(row) for row in rows] + [[rows[i][j] for i in r] for j in r]
    latin = all(sorted(line) == list(r) for line in lines)
    identities = [e for e in r if all(rows[e][x] == x == rows[x][e] for x in r)]
    commutative = all(rows[x][y] == rows[y][x] for x in r for y in r)
    return {
        "latin": latin,
        "has-identity": bool(identities),
        "commutative": commutative,
        "associative": all(rows[rows[x][y]][z] == rows[x][rows[y][z]] for x in r for y in r for z in r),
        "idempotent": all(rows[x][x] == x for x in r),
        "exponent-two": latin and bool(identities) and all(rows[x][x] == identities[0] for x in r),
        "left-alternative": all(rows[x][rows[x][y]] == rows[rows[x][x]][y] for x in r for y in r),
        "jordan": commutative and all(
            rows[rows[x][x]][rows[y][x]] == rows[rows[rows[x][x]][y]][x] for x in r for y in r),
    }


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


def parse_reference(text: str) -> list[MagmaTable]:
    """``tables.parse_tables`` converting every token with ``int()`` and
    validating every table with ``build_magma_reference``."""
    chunks: list = [[]]
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line:
            chunks[-1].append(line)
        elif chunks[-1]:
            chunks.append([])
    tables = []
    for lines in filter(None, chunks):
        if len(lines) < 2:
            raise ValidationError("truncated table: missing header lines")
        head = lines[0].split()
        if len(head) != 2 or head[0] != "order":
            raise ValidationError(f"expected 'order <n>' header, got {lines[0]!r}")
        try:
            order = int(head[1])
        except ValueError:
            raise ValidationError(f"bad order {head[1]!r}") from None
        kind = lines[1].split()
        if len(kind) != 2 or kind[0] != "kind" or kind[1] not in KINDS:
            raise ValidationError(f"expected 'kind magma|quasigroup|loop', got {lines[1]!r}")
        if len(lines) - 2 != order:
            raise ValidationError(f"expected {order} table rows, got {len(lines) - 2}")
        rows = []
        for line in lines[2:]:
            try:
                rows.append([int(token) for token in line.split()])
            except ValueError:
                raise ValidationError(f"bad table row {line!r}") from None
        tables.append(build_magma_reference(order, rows, kind[1]))
    return tables


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


def random_loop(n: int, rnd) -> MagmaTable:
    """A loop of order n with identity 0, most often non-commutative: a
    normalised Latin square filled cell by cell in row-major order, each
    cell trying the symbols its row and column leave free in the order of
    ``rnd``, with backtracking."""
    rows = [[-1] * n for _ in range(n)]
    for i in range(n):
        rows[0][i] = rows[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i]) | {row[j] for row in rows}
        for v in rnd.sample(range(n), n):
            if v not in used:
                rows[i][j] = v
                if fill(k + 1):
                    return True
        rows[i][j] = -1
        return False

    fill(0)
    return build_magma(n, rows, "loop")


@functools.cache
def naive_parenthesizations(table: MagmaTable, c: int, k: int) -> frozenset:
    """All values of k-factor products of c, by direct recursion, memoised
    so that k can pass 2m for an element whose right-power cycle has m
    elements."""
    if k == 1:
        return frozenset((c,))
    vals = set()
    for i in range(1, k):
        for a in naive_parenthesizations(table, c, i):
            for b in naive_parenthesizations(table, c, k - i):
                vals.add(table.rows[a][b])
    return frozenset(vals)


def right_power_reference(table: MagmaTable, c: int, k: int) -> int:
    """c*(c*(...*c)) with k factors, one product a factor."""
    v = 0
    for _ in range(k):
        v = table.rows[c][v]
    return v


def power_walk(rows, c: int, limit: int):
    """Yield c^1, c^2, ... up to c^limit while each power is well defined.

    The recursive criterion: c^k is well defined when c^(k-1) is and every
    split c^j * c^(k-j), 0 < j < k, gives the same value; the walk stops at
    the first k where two splits disagree.
    """
    rc = rows[c]
    powers = [0]
    for k in range(1, limit + 1):
        v = rc[powers[k - 1]]
        for j in range(2, k):
            if rows[powers[j]][powers[k - j]] != v:
                return
        powers.append(v)
        yield v


def element_order_reference(table: MagmaTable, c: int):
    """|<c>| when the subloop <c> passes the triple-by-triple associativity
    scan, else None."""
    members = generated_subloop(table, (c,)).members
    return None if _associativity_witness(table.rows, members) is not None else len(members)


def proper_normal_subloop_reference(table: MagmaTable):
    """The normal closure of the least nonidentity element whose closure is
    proper, trying one element at a time, or None."""
    for x in range(1, table.order):
        closure = normal_closure(table, (x,))
        if len(closure.members) < table.order:
            return closure
    return None


def conjugation_reference(table: MagmaTable, x: int) -> tuple:
    """T(x): z -> (x*z) / x, b / a being the w in column a with w*a = b."""
    rows = table.rows
    col = [row[x] for row in rows]
    return tuple(col.index(rows[x][z]) for z in range(table.order))


def inner_left_reference(table: MagmaTable, x: int, y: int) -> tuple:
    """L(x,y): z -> (y*x) \\ (y*(x*z)), a \\ b being the w in row a with a*w = b."""
    rows = table.rows
    row = rows[rows[y][x]]
    return tuple(row.index(rows[y][rows[x][z]]) for z in range(table.order))


def inner_right_reference(table: MagmaTable, x: int, y: int) -> tuple:
    """R(x,y): z -> ((z*x)*y) / (x*y)."""
    rows = table.rows
    col = [row[rows[x][y]] for row in rows]
    return tuple(col.index(rows[rows[z][x]][y]) for z in range(table.order))


def inner_mappings(table: MagmaTable) -> tuple:
    """Every generating inner mapping T(x), L(x,y) and R(x,y), deduplicated,
    each built from its definition."""
    n = table.order
    maps = set()
    for x in range(n):
        maps.add(conjugation_reference(table, x))
        for y in range(n):
            maps.add(inner_left_reference(table, x, y))
            maps.add(inner_right_reference(table, x, y))
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


def seed_group(pt) -> list:
    """Every identity-fixing permutation that maps the set cells of the
    partial table ``pt`` onto themselves, tried one by one."""
    n, cells = pt.order, pt.cells
    return [
        p for p in _relabellings(n)
        if all(cells[p[k // n] * n + p[k % n]] == (p[v] if v >= 0 else -1) for k, v in enumerate(cells))
    ]


def group_orbits(group, n: int) -> list:
    """The least element of each element's orbit under ``group``."""
    return [min(p[x] for p in group) for x in range(n)]


def least_under_stabiliser(group, row) -> bool:
    """Whether no permutation p in ``group`` fixing a = row[0] maps ``row``,
    row a of a loop, to a smaller row, where p puts p(row[j]) at p(j)."""
    for p in group:
        if p[row[0]] == row[0]:
            image = [0] * len(row)
            for j, v in enumerate(row):
                image[p[j]] = p[v]
            if image < list(row):
                return False
    return True


def orbit_reference(rows, tick=lambda: None) -> set:
    """Every identity-fixing relabelling of the loop ``rows``, as the bytes
    of its n*n cells (n <= 64): the closure of the table under the
    transposition (1 2) and the cycle (1 2 ... n-1), which generate S_(n-1),
    one table and one generator at a time.  ``tick`` is called every 256
    tables."""
    n = len(rows)
    seen = {bytes(v for row in rows for v in row)}
    if n < 3:
        return seen
    swap = [0, 2, 1, *range(3, n)]
    cycle = [0, *range(2, n), 1]
    back = [0, n - 1, *range(1, n - 1)]
    # relabelling by p writes p[x*y] into cell (p[x], p[y]), so cell (a, b)
    # reads cell (p^-1[a], p^-1[b])
    moves = [
        (itemgetter(*[q[a] * n + q[b] for a in range(n) for b in range(n)]), bytes(p).ljust(256))
        for p, q in ((swap, swap), (cycle, back))
    ]
    todo = list(seen)
    while todo:
        cells = todo.pop()
        for read, label in moves:
            image = bytes(read(cells)).translate(label)
            if image not in seen:
                seen.add(image)
                todo.append(image)
                if not len(seen) & 255:
                    tick()
    return seen


def least_form_reference(rows):
    """The least rows over every identity-fixing relabelling of the loop
    ``rows``, and the number of relabellings that give them: |Aut L|.

    The relabelled table is built cell by cell in row-major order.  Row 1
    names every element, so the branching happens there: the preimage of a
    label is chosen only when a cell needs it and no product has named it
    yet, and each newly met product takes the least unused label, as any
    other label would make that cell larger.  A branch is cut once its whole
    prefix exceeds the best table so far; the leaves that tie with the best
    are its automorphisms."""
    n = len(rows)
    pi = [-1] * n
    inv = [-1] * n
    pi[0] = inv[0] = 0
    row1 = [1]  # cell (1, 0); cell (1, j) lands at row1[j]
    best = None
    count = 0

    def leaf():
        nonlocal best, count
        tied = best is not None and row1 == list(best[1])
        form = [tuple(range(n)), tuple(row1)]
        for i in range(2, n):
            ri = rows[inv[i]]
            row = tuple([pi[ri[x]] for x in inv])
            if tied:
                if row > best[i]:
                    return
                tied = row == best[i]
            form.append(row)
        if tied:
            count += 1
        else:
            best, count = tuple(form), 1

    def scan(j, nxt):
        """Fill cell (1, j), with labels 0..nxt-1 given out."""
        if j == n:
            leaf()
            return
        if inv[j] != -1:
            choices = (inv[j],)
        else:  # j == nxt: the least unused label needs a preimage
            choices = [x for x in range(n) if pi[x] == -1]
            nxt += 1
        for b in choices:
            fresh = pi[b] == -1
            if fresh:
                pi[b], inv[j] = j, b
            c = rows[inv[1]][b]
            new = pi[c] == -1
            if new:
                pi[c], inv[nxt] = nxt, c
            row1[j:] = [pi[c]]
            if best is None or row1 <= list(best[1][: j + 1]):
                scan(j + 1, nxt + new)
            if new:
                pi[c] = inv[nxt] = -1
            if fresh:
                pi[b] = inv[j] = -1

    if n == 1:
        return ((0,),), 1
    scan(1, 1)
    return best, count


def row1_is_least(rows) -> bool:
    """The filter the class search once applied to each exponent-2
    completion after finding it: whether no left translation L_b has cycle
    lengths (the one through 0 first, the others ascending) below those of
    L_1, cycle by cycle from the first."""
    n = len(rows)

    def key(b):
        lengths, seen = [], set()
        for x in range(n):
            length = 0
            while x not in seen:
                seen.add(x)
                x = rows[b][x]
                length += 1
            if length:
                lengths.append(length)
        return [lengths[0], *sorted(lengths[1:])]

    return key(1) == min(key(b) for b in range(1, n))
