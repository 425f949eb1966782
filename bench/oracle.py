"""Reference checks written from the definitions.

Nothing here imports the package under test: the table parser, the property
tests, the isomorphism-map test, right powers and the normal-subloop test
are small independent re-implementations, so a defect in the package cannot
also hide in the reference it is checked against.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass


# The property tags of the ``verify`` command, in the order ``properties`` lists them.
TAGS = ("latin", "has-identity", "commutative", "associative", "idempotent",
        "exponent-two", "left-alternative", "jordan")


@dataclass(frozen=True)
class Table:
    order: int
    kind: str
    rows: tuple
    text: str  # the table's content lines, joined; used for digests and caching


def parse(text: str) -> list[Table]:
    """Blank-line separated tables; '#' lines are skipped. Raises ValueError."""
    chunks, current = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line:
            current.append(line)
        elif current:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    tables = []
    for lines in chunks:
        head, kind = lines[0].split(), lines[1].split()
        if len(head) != 2 or head[0] != "order" or len(kind) != 2 or kind[0] != "kind":
            raise ValueError(f"bad table header {lines[:2]!r}")
        n = int(head[1])
        rows = tuple(tuple(int(tok) for tok in line.split()) for line in lines[2:])
        if len(rows) != n or any(len(r) != n or not all(0 <= v < n for v in r) for r in rows):
            raise ValueError(f"malformed order-{n} table")
        tables.append(Table(n, kind[1], rows, "\n".join(lines)))
    return tables


def digest(tables) -> str:
    """sha256 of the tables' text, sorted, so output order does not matter."""
    return hashlib.sha256("\n\n".join(sorted(t.text for t in tables)).encode()).hexdigest()


def serialize(rows) -> str:
    n = len(rows)
    return "\n".join([f"order {n}", "kind loop"] + [" ".join(map(str, r)) for r in rows]) + "\n"


def properties(rows) -> dict:
    """Verdict for each property tag of the ``verify`` command."""
    n = len(rows)
    r = range(n)
    cols = [tuple(rows[i][j] for i in r) for j in r]
    latin = all(len(set(line)) == n for line in list(rows) + cols)
    ident = [e for e in r if all(rows[e][x] == x and rows[x][e] == x for x in r)]
    commutative = all(rows[x][y] == rows[y][x] for x in r for y in r)
    return {
        "latin": latin,
        "has-identity": bool(ident),
        "commutative": commutative,
        "associative": all(
            rows[rows[x][y]][z] == rows[x][rows[y][z]] for x in r for y in r for z in r
        ),
        "idempotent": all(rows[x][x] == x for x in r),
        "exponent-two": latin and bool(ident) and all(rows[x][x] == ident[0] for x in r),
        "left-alternative": all(rows[x][rows[x][y]] == rows[rows[x][x]][y] for x in r for y in r),
        # x2*(y*x) = (x2*y)*x with x2 = x*x
        "jordan": commutative and all(
            rows[rows[x][x]][rows[y][x]] == rows[rows[rows[x][x]][y]][x] for x in r for y in r
        ),
    }


def is_loop(rows) -> bool:
    """A Latin square with 0 as two-sided identity."""
    n = len(rows)
    lines = list(rows) + [[rows[i][j] for i in range(n)] for j in range(n)]
    return all(len(set(line)) == n for line in lines) and all(
        rows[0][x] == x and rows[x][0] == x for x in range(n))


def relabel(rows, perm) -> list:
    """The table of the isomorphic copy in which element x is called perm[x]."""
    n = len(rows)
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    return [[perm[rows[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def is_isomorphism(mapping, lhs, rhs) -> bool:
    n = len(lhs)
    if sorted(mapping) != list(range(n)) or mapping[0] != 0:
        return False
    return all(
        mapping[lhs[a][b]] == rhs[mapping[a]][mapping[b]] for a in range(n) for b in range(n)
    )


def right_power(rows, c: int, k: int) -> int:
    v = 0
    for _ in range(k):
        v = rows[c][v]
    return v


def group_of_order_9(rows) -> str | None:
    """'Z9' or 'Z3xZ3' when the table is that group under an explicit
    labelling of its elements by exponents, else None."""
    if len(rows) != 9:
        return None
    for g in range(1, 9):
        powers = [right_power(rows, g, k) for k in range(9)]
        if len(set(powers)) == 9:
            ok = all(rows[powers[a]][powers[b]] == powers[(a + b) % 9]
                     for a in range(9) for b in range(9))
            return "Z9" if ok else None
    a = 1
    b = next(x for x in range(1, 9) if x not in (right_power(rows, a, 1), right_power(rows, a, 2)))
    elem = {(i, j): rows[right_power(rows, a, i)][right_power(rows, b, j)]
            for i in range(3) for j in range(3)}
    if len(set(elem.values())) != 9:
        return None
    ok = all(rows[elem[i, j]][elem[k, l]] == elem[(i + k) % 3, (j + l) % 3]
             for (i, j) in elem for (k, l) in elem)
    return "Z3xZ3" if ok else None


def minimal_block(rows, members) -> set:
    """The block containing 0 of the finest partition that joins ``members``
    and is preserved by every left and right translation.

    The normal subloops of a loop are exactly such blocks (Albert 1943), so
    this is the normal closure of ``members``.  Union-find as in Atkinson,
    Math. Comp. 29 (1975).
    """
    n = len(rows)
    gens = [tuple(row) for row in rows] + [tuple(rows[z][a] for z in range(n)) for a in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []
    for m in members:
        ra, rb = find(0), find(m)
        if ra != rb:
            parent[rb] = ra
            pending.append((0, m))
    while pending:
        a, b = pending.pop()
        for g in gens:
            ra, rb = find(g[a]), find(g[b])
            if ra != rb:
                parent[rb] = ra
                pending.append((g[a], g[b]))
    root = find(0)
    return {x for x in range(n) if find(x) == root}


def is_normal_subloop(rows, members) -> bool:
    return 0 in members and minimal_block(rows, members) == set(members)


def is_simple(rows) -> bool:
    n = len(rows)
    return n > 1 and all(len(minimal_block(rows, (x,))) == n for x in range(1, n))
