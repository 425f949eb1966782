"""Finite magma/quasigroup/loop multiplication tables and property checks.

Elements of an order-n table are the indices 0..n-1; the table is stored
row-major, so ``M.rows[x][y]`` is the product x*y.  Loops always place their
identity at index 0.
"""
from __future__ import annotations

from itertools import chain
from operator import eq, itemgetter

Element = int
Permutation = tuple[int, ...]
PropertyTag = str

PROPERTY_TAGS = (
    "latin",
    "has-identity",
    "commutative",
    "associative",
    "idempotent",
    "exponent-two",
    "left-alternative",
    "jordan",
)

KINDS = ("magma", "quasigroup", "loop")

# Rows are tuples of pointers to one int per label, so memory grows with the
# square of the order.  The built tables set the peak RSS, as the CLI streams
# its output: 274 MB for `construct --order 4095`, 181 MB for `tower --depth
# 11` and 160 MB for `gap-loop --m 1360 --n 3` on CPython 3.11 (README,
# Limits); twice the order would take about four times as much.
ORDER_LIMIT = 1 << 12

# The one int object of each label: builders index this list rather than
# compute a cell, so a built table costs a pointer a cell, not an int.
_LABELS = list(range(ORDER_LIMIT))


class ValidationError(ValueError):
    """A table failed validation against its claimed kind or wire format."""


class MagmaTable:
    """Immutable multiplication table with a validated kind claim.

    A "quasigroup" or "loop" table is Latin, and a "loop" table has 0 as its
    two-sided identity: ``build_magma`` and the parser check the claim, and
    each builder that skips them (``_freeze``) makes tables valid by
    construction.  ``find_counterexample`` answers from the kind alone where
    the claim settles a property.
    """

    __slots__ = ("order", "kind", "rows")

    def __init__(self, order: int, rows, kind: str):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("MagmaTable is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MagmaTable)
            and self.order == other.order
            and self.kind == other.kind
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.order, self.kind, self.rows))

    def __repr__(self):
        return f"MagmaTable(order={self.order}, kind={self.kind!r})"


def _latin_violation(rows, n):
    """First duplicated symbol, columns scanned before rows.  A line is
    walked cell by cell only once a set shows it repeats a symbol."""
    for what, lines in (("column", zip(*rows)), ("row", rows)):
        for i, line in enumerate(lines):
            if len(set(line)) != n:
                seen = set()
                for v in line:
                    if v in seen:
                        return f"{what} {i} repeats symbol {v}"
                    seen.add(v)
    return None


def build_magma(order: int, rows, kind: str = "magma") -> MagmaTable:
    """Validate ``rows`` against the claimed kind and freeze it as a table.

    kind "magma" asks for shape only; "quasigroup" adds the Latin property;
    "loop" additionally requires element 0 to be a two-sided identity.
    A row or column is walked cell by cell only if a whole-line check fails.
    """
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
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= order:
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                    raise ValidationError(f"cell ({i},{j}) value {v!r} out of range 0..{order - 1}")
    return _check_kind(table)


def _freeze(order: int, rows: list, kind: str) -> MagmaTable:
    """Freeze rows that are valid by construction, without ``build_magma``'s
    checks.  Takes ownership of ``rows``, whose rows nothing else holds: each
    row becomes a tuple in place, so no second copy of the table is alive."""
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return MagmaTable(order, rows, kind)


def _check_kind(table: MagmaTable) -> MagmaTable:
    """The Latin and identity checks of ``build_magma``, on a table whose
    cells are already known to be labels 0..order-1."""
    order, rows, kind = table.order, table.rows, table.kind
    if kind != "magma":
        bad = _latin_violation(rows, order)
        if bad is not None:
            raise ValidationError(bad)
    if kind == "loop":
        for x in range(order):
            if rows[0][x] != x:
                raise ValidationError(f"element 0 is not a left identity: 0*{x} = {rows[0][x]}")
            if rows[x][0] != x:
                raise ValidationError(f"element 0 is not a right identity: {x}*0 = {rows[x][0]}")
    return table


def identity_element(table: MagmaTable) -> int | None:
    """The two-sided identity, wherever it sits, or None."""
    _require_table(table, "identity_element")
    rows = table.rows
    n = table.order
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            return e
    return None


def find_counterexample(table: MagmaTable, prop: PropertyTag) -> str | None:
    """None if ``prop`` holds, else a description of the first violation."""
    if prop not in PROPERTY_TAGS:
        raise ValueError(f"unknown property {prop!r}")
    _require_table(table, "a property check")
    rows = table.rows
    n = table.order
    latin = table.kind != "magma"
    if prop == "latin":
        return None if latin else _latin_violation(rows, n)
    if prop == "has-identity":
        if table.kind != "loop" and identity_element(table) is None:
            return "no two-sided identity element"
        return None
    if prop == "commutative":
        for x in range(n):
            for y in range(x + 1, n):
                if rows[x][y] != rows[y][x]:
                    return f"x={x} y={y}: x*y={rows[x][y]} but y*x={rows[y][x]}"
        return None
    if prop == "associative":
        bad = _associativity_witness(rows, range(n))
        if bad is None:
            return None
        x, y, z = bad
        return (
            f"x={x} y={y} z={z}: (x*y)*z={rows[rows[x][y]][z]} "
            f"but x*(y*z)={rows[x][rows[y][z]]}"
        )
    if prop == "idempotent":
        for x in range(n):
            if rows[x][x] != x:
                return f"x={x}: x*x={rows[x][x]}"
        return None
    if prop == "exponent-two":
        e = 0 if table.kind == "loop" else identity_element(table)
        if e is None:
            raise ValueError("exponent-two is undefined on a table with no identity element")
        bad = None if latin else _latin_violation(rows, n)
        if bad is not None:
            return bad
        for x in range(n):
            if rows[x][x] != e:
                return f"x={x}: x*x={rows[x][x]}, identity is {e}"
        return None
    if prop == "left-alternative":
        for x in range(n):
            rx = rows[x]
            xx = rx[x]
            for y in range(n):
                if rx[rx[y]] != rows[xx][y]:
                    return (
                        f"x={x} y={y}: x*(x*y)={rx[rx[y]]} "
                        f"but (x*x)*y={rows[xx][y]}"
                    )
        return None
    if prop == "jordan":
        bad = find_counterexample(table, "commutative")
        if bad is not None:
            return bad
        for x in range(n):
            s = rows[x][x]
            rs = rows[s]
            for y in range(n):
                # x2*(y*x) = (x2*y)*x
                lhs = rs[rows[y][x]]
                rhs = rows[rs[y]][x]
                if lhs != rhs:
                    return f"x={x} y={y}: x2*(y*x)={lhs} but (x2*y)*x={rhs}"
        return None
    raise AssertionError(prop)


def check(table: MagmaTable, prop: PropertyTag) -> bool:
    """Does the table satisfy the named property?"""
    return find_counterexample(table, prop) is None


def squaring_bijective(table: MagmaTable) -> bool:
    """Is x -> x*x a bijection?"""
    _require_table(table, "squaring_bijective")
    rows = table.rows
    return len({rows[x][x] for x in range(table.order)}) == table.order


def _require_table(table, op: str):
    if not isinstance(table, MagmaTable):
        raise ValidationError(f"{op} requires a MagmaTable, got {type(table).__name__}")


def _require_quasigroup(table: MagmaTable, op: str):
    _require_table(table, op)
    if table.kind == "magma":
        raise ValueError(f"{op} requires a quasigroup or loop, got kind {table.kind!r}")


def _require_loop(table: MagmaTable, op: str):
    _require_table(table, op)
    if table.kind != "loop":
        raise ValueError(f"{op} requires a loop, got kind {table.kind!r}")


def _check_int(value, name: str = "order"):
    """Reject anything but a plain int (bool excluded) before any arithmetic."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")


def _check_bool(value, name: str):
    """Reject anything but True or False, so a string flag is not read as set."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a bool, got {value!r}")


def _check_order(n: int):
    """Reject a non-int order or one outside 1..ORDER_LIMIT, before allocating."""
    _check_int(n)
    if not 1 <= n <= ORDER_LIMIT:
        raise ValidationError(f"order {n} out of supported range 1..{ORDER_LIMIT}")


def _check_element(table: MagmaTable, *elements: int):
    for c in elements:
        _check_int(c, "element")
        if not 0 <= c < table.order:
            raise ValueError(f"element {c} out of range 0..{table.order - 1}")


def left_divide(table: MagmaTable, a: int, b: int) -> int:
    """The unique x with a*x = b."""
    _require_quasigroup(table, "left_divide")
    _check_element(table, a, b)
    return table.rows[a].index(b)


def right_divide(table: MagmaTable, a: int, b: int) -> int:
    """The unique x with x*a = b."""
    _require_quasigroup(table, "right_divide")
    _check_element(table, a, b)
    return [row[a] for row in table.rows].index(b)


def _associativity_witness(rows, members):
    """First (x, y, z) drawn from ``members`` with (x*y)*z != x*(y*z), or None."""
    for x in members:
        rx = rows[x]
        for y in members:
            ry = rows[y]
            rxy = rows[rx[y]]
            for z in members:
                if rxy[z] != rx[ry[z]]:
                    return x, y, z
    return None


def _escaping_pair(rows, members):
    """First (a, b) drawn from ``members`` whose product a*b is not a member,
    or None when the subset is closed under the product."""
    sub = set(members)
    for a in members:
        ra = rows[a]
        for b in members:
            if ra[b] not in sub:
                return a, b
    return None


def _product_closure(rows, members):
    """Close a set of elements under the table product."""
    closed = set(members)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        ra = rows[a]
        for b in tuple(closed):
            for c in (ra[b], rows[b][a]):
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)
    return closed


def _right_powers(row) -> list:
    """The right powers c^0 = 0, c, c*c, c*(c*c), ... of the c whose loop row
    is ``row``: the cycle of L_c through 0, so c^k is entry k mod its length."""
    powers = [0]
    while row[powers[-1]]:
        powers.append(row[powers[-1]])
    return powers


def opposite(table: MagmaTable) -> MagmaTable:
    """The transposed table: x *' y = y*x."""
    _require_table(table, "opposite")
    # the transpose of a Latin table is Latin, and 0 stays a two-sided identity
    return _freeze(table.order, list(zip(*table.rows)), table.kind)


def _block_rows(outer, s: int, block):
    """Rows of the product of the outer table, whose rows are ``outer``, with
    the table on 0..s-1 whose rows are ``block``; pair (a, g) is encoded
    a + s*g and (a,g)(b,h) = (a*b, g*h).  Row a of ``block`` is relabelled
    once onto the labels of each outer element, and each row joins those
    pieces in the order of its outer row."""
    segs = [_LABELS[s * x:s * x + s] for x in range(len(outer))]
    pieces = [[tuple(map(seg.__getitem__, brow)) for seg in segs] for brow in block]
    return [list(chain.from_iterable(map(piece.__getitem__, grow))) for grow in outer for piece in pieces]


def _overlay(rows, table, members):
    """Lay ``table`` over ``members`` of ``rows``: members[i]*members[j] =
    members[table[i][j]]."""
    for mi, trow in zip(members, table):
        target = rows[mi]
        for mj, t in zip(members, trow):
            target[mj] = members[t]


def direct_product(a: MagmaTable, b: MagmaTable) -> MagmaTable:
    """Componentwise product on pairs, pair (i, j) encoded as i*|B| + j."""
    _require_table(a, "direct_product")
    _require_table(b, "direct_product")
    n = a.order * b.order
    _check_order(n)
    kind = KINDS[min(KINDS.index(a.kind), KINDS.index(b.kind))]
    # a product of Latin tables is Latin, with identity (0, 0) = 0 for loops
    return _freeze(n, _block_rows(a.rows, b.order, b.rows), kind)


def cyclic_group(n: int) -> MagmaTable:
    """Addition modulo n as a loop table."""
    _check_order(n)
    labels = _LABELS[:n]
    # row i is the labels rotated left by i: Latin, with identity 0
    return _freeze(n, [labels[i:] + labels[:i] for i in range(n)], "loop")


# -- isomorphism ---------------------------------------------------------

def _element_keys(rows, defect: bool = False):
    """Cheap isomorphism-invariant data, as a list indexed by element x of a
    loop: its right-power order (the least k >= 1 whose k-fold right power
    x*(x*(...*x)) is 0), its commutant size and the tail and cycle lengths
    of its iterated-squaring walk.  With ``defect``, also its
    right-alternative defect count #{y : (x*y)*y != x*(y*y)}: an O(n^2)
    term that ``classify_up_to_iso`` pays to keep its buckets small, while
    ``find_isomorphism`` leaves a pair it alone separates to the matcher."""
    n = len(rows)
    cols = list(zip(*rows))
    square = [rows[x][x] for x in range(n)]
    keys = []
    for x, rx in enumerate(rows):
        seen = {}
        v = x
        while v not in seen:
            seen[v] = len(seen)
            v = square[v]
        tail = seen[v]
        key = (len(_right_powers(rx)), sum(map(eq, rx, cols[x])), tail, len(seen) - tail)
        if defect:
            key += (sum(1 for cy, xy, yy in zip(cols, rx, square) if cy[xy] != rx[yy]),)
        keys.append(key)
    return keys


def _match(r1, keys1, r2, keys2) -> Permutation | None:
    """The isomorphism from rows ``r1`` to ``r2`` that maps each element to
    one with the same key (``_element_keys``) and takes the greedy
    generators of ``r1`` to the lexicographically least images, or None.

    ``mapped``, the elements in the order they got an image, is also the
    propagation queue: ``mapped[k]`` is multiplied with ``mapped[:k+1]``, so
    each pair is checked once, and a failed candidate is undone by cutting
    ``mapped`` back to its mark.  After a successful ``extend``, ``mapped``
    is the subloop generated so far, so the least unmapped element is the
    next greedy generator: the least element outside that subloop.  Each
    one at least doubles it, so there are at most log2(n) of them.

    Once a candidate image of a generator g has failed, a later candidate c
    is tried only when L_c has the cycle type of L_g, as an isomorphism pi
    has pi L_g pi^-1 = L_pi(g).  The types are computed on first use, as
    ``_perm_cycles`` lengths, since most generators take their first
    candidate."""
    n = len(r1)
    pi = [-1] * n
    used = [False] * n
    mapped = []
    types1, types2 = {}, {}

    def cycle_type(rows, types, x):
        if x not in types:
            types[x] = list(map(len, _perm_cycles(rows[x])))
        return types[x]

    def extend(a, b, mark):
        """Set pi[a] = b and close the map under products; False on a conflict."""
        pi[a] = b
        used[b] = True
        mapped.append(a)
        k = mark
        while k < len(mapped):
            u = mapped[k]
            pu = pi[u]
            for i in range(k + 1):
                w = mapped[i]
                pw = pi[w]
                for c1, c2 in ((r1[u][w], r2[pu][pw]), (r1[w][u], r2[pw][pu])):
                    m = pi[c1]
                    if m == -1:
                        if used[c2] or keys1[c1] != keys2[c2]:
                            return False
                        pi[c1] = c2
                        used[c2] = True
                        mapped.append(c1)
                    elif m != c2:
                        return False
            k += 1
        return True

    def search():
        if len(mapped) == n:
            return True
        g = pi.index(-1)
        mark = len(mapped)
        failed = False
        for cand in range(n):
            if used[cand] or keys1[g] != keys2[cand]:
                continue
            if failed and cycle_type(r2, types2, cand) != cycle_type(r1, types1, g):
                continue
            if extend(g, cand, mark) and search():
                return True
            for a in mapped[mark:]:
                used[pi[a]] = False
                pi[a] = -1
            del mapped[mark:]
            failed = True
        return False

    return tuple(pi) if extend(0, 0, 0) and search() else None


def find_isomorphism(lhs: MagmaTable, rhs: MagmaTable) -> Permutation | None:
    """A relabeling pi with pi(x*y) = pi(x)*pi(y), fixing pi(0) = 0, or None."""
    _require_loop(lhs, "find_isomorphism")
    _require_loop(rhs, "find_isomorphism")
    n = lhs.order
    if rhs.order != n:
        return None
    r1, r2 = lhs.rows, rhs.rows
    keys1 = _element_keys(r1)
    keys2 = _element_keys(r2)
    if sorted(keys1) != sorted(keys2):
        return None
    return _match(r1, keys1, r2, keys2)


def _row1_cycles(rows) -> dict:
    """The b whose left translation L_b gives the least row 1 of a
    relabelling that names b 1, each with the cycles of L_b: the one through
    0 first, then the others, shortest first.  That row lists the cycles in
    this order, each labelled in turn along itself, so it is least when the
    cycle through 0 is shortest and then the lengths of the others are."""
    least, found = None, {}
    for b in range(1, len(rows)):
        cycles = _perm_cycles(rows[b])
        key = list(map(len, cycles))
        if least is None or key < least:
            least, found = key, {}
        if key == least:
            found[b] = cycles
    return found


def _perm_cycles(perm) -> list:
    """The cycles of the permutation ``perm`` of 0..n-1: the one through 0
    first, then the others, shortest first."""
    seen, cycles = [False] * len(perm), []
    for x in range(len(perm)):
        cycle = []
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        if cycle:
            cycles.append(cycle)
    cycles[1:] = sorted(cycles[1:], key=len)
    return cycles


def _least_form(rows):
    """The least rows over every identity-fixing relabelling of the loop
    ``rows``, and the number of relabellings that give them: |Aut L|.

    Row 1 is fixed by ``_row1_cycles``, so the branching is over which b is
    relabelled 1, then which unused cycle of L_b of the next length comes
    next and where it starts.  After each cycle, the relabelled table is
    compared with the best so far in row-major order from row 2, up to a
    cell whose column has no label yet.  A product with no label will get
    one at least the next free label, so a branch is cut when the best
    table's cell is smaller.  When the cycle of that product has the next
    length, only labelling it next, from the product on, gives the cell
    that label, so no other cycle or start is tried there.

    The leaves that tie with the best are its automorphisms, and each is
    kept.  A branch that one of them, fixing the labels given so far, maps
    an explored sibling onto holds as many ties as that sibling, so they
    are counted and the branch is left; so is a later b at its first tie,
    which maps it onto the b that gave the best table."""
    n = len(rows)
    if n == 1:
        return ((0,),), 1
    pi, inv = [-1] * n, [-1] * n
    best = best_inv = None  # the least table so far, as rows of bytes, and its labels' elements
    count = root = root_count = version = 0  # version counts the best tables met
    automorphisms = []  # as lists of images

    def compare(p, k):
        """The first cell from p on in its row left open by labels 0..k-1, or
        -1 when the table exceeds the best there; the best is dropped (None)
        when the table is smaller."""
        nonlocal best
        i, j = divmod(p, n)
        if i < k:
            ri = rows[inv[i]]
            while j < k:
                v = pi[ri[inv[j]]]
                if v < 0:
                    return -1 if best is not None and best[i][j] < k else i * n + j
                if best is not None and v != best[i][j]:
                    if v > best[i][j]:
                        return -1
                    best = None
                j += 1
        return i * n + j

    def known(x, done, k):
        """Whether an automorphism found so far, fixing labels 0..k-1, maps
        the first element of a sibling in ``done`` onto x; its ties are then
        counted for x's branch (none when the best has changed since)."""
        nonlocal count
        fixed = inv[:k]
        gens = [a for a in automorphisms if list(map(a.__getitem__, fixed)) == fixed]
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for a in gens:
                if a[y] not in orbit:
                    orbit.add(a[y])
                    todo.append(a[y])
        for start, ties, v in done:
            if start in orbit:
                count += ties if v == version else 0
                return True
        return False

    def label(cycles, d, k, p):
        """Label the unused cycles, one of each length in cycles[d:] in
        turn, from label k on, the cells before p equal to the best; True
        when the subtree is left on an automorphism."""
        nonlocal best, best_inv, count, root, version
        if k == n:
            # whole rows from p's on, each relabelled by one translate
            get, relabel = itemgetter(*inv), bytes(pi).ljust(256)
            if best is not None:
                for i in range(p // n, n):
                    row = bytes(get(rows[inv[i]])).translate(relabel)
                    if row != best[i]:
                        if row > best[i]:
                            return False
                        best = None
                        break
            if best is None:
                best, best_inv = [bytes(get(rows[a])).translate(relabel) for a in inv], inv[:]
                count, root, version = 1, inv[1], version + 1
                return False
            automorphisms.append([best_inv[v] for v in pi])
            if root != inv[1]:
                count += root_count
                return True
            count += 1
            return False
        p = compare(p, k)
        if p < 0:
            return False
        size = len(cycles[d])
        i, j = divmod(p, n)
        z = rows[inv[i]][inv[j]] if i < k and j < k else 0
        forced = pi[z] < 0 and len(home[z]) == size
        done = []  # (first element, ties, version) of each sibling searched
        for cycle in [home[z]] if forced else cycles:
            if len(cycle) != size or pi[cycle[0]] >= 0:
                continue
            for s in [cycle.index(z)] if forced else range(size):
                if done and automorphisms and known(cycle[s], done, k):
                    continue
                before, old = count, version
                for t in range(size):
                    x = cycle[(s + t) % size]
                    pi[x], inv[k + t] = k + t, x
                if label(cycles, d + 1, k + size, p):
                    return True
                done.append((cycle[s], count - before if version == old else count, version))
            for x in cycle:
                pi[x] = -1
        return False

    done = []
    for b, cycles in _row1_cycles(rows).items():
        if done and automorphisms and known(b, done, 1):
            continue
        before, old = count, version
        pi[:] = [-1] * n
        home = {x: cycle for cycle in cycles for x in cycle}
        for t, x in enumerate(cycles[0]):
            pi[x], inv[t] = t, x
        label(cycles, 1, len(cycles[0]), 2 * n)
        done.append((b, count - before if version == old else count, version))
        if root == b:
            root_count = count
    return tuple(map(tuple, best)), count


def classify_up_to_iso(models) -> list[MagmaTable]:
    """One representative per isomorphism class: its lexicographically least
    member, representatives sorted the same way."""
    models = list(models)
    for m in models:
        _require_loop(m, "classify_up_to_iso")
    models.sort(key=lambda m: m.rows)
    orders = {m.order for m in models}
    if len(orders) > 1:
        raise ValueError(f"mixed orders {sorted(orders)} cannot be classified together")
    buckets: dict = {}
    reps: list = []
    for m in models:
        rows = m.rows
        keys = _element_keys(rows, defect=True)
        bucket = buckets.setdefault(tuple(sorted(keys)), [])
        if all(_match(rows, keys, r, r_keys) is None for r, r_keys in bucket):
            bucket.append((rows, keys))
            reps.append(m)
    return reps


# -- text wire format ----------------------------------------------------

def _table_lines(table: MagmaTable):
    """The wire format, one newline-terminated line at a time: the two
    header lines together, then each row, its labels formatted once."""
    label = list(map(str, range(table.order))).__getitem__
    yield f"order {table.order}\nkind {table.kind}\n"
    for row in table.rows:
        yield " ".join(map(label, row)) + "\n"


def _cells_text(n: int):
    """Map the n*n cell bytes of order-n loops (n <= 64) to their joined
    ``serialize_table(t) + "\\n"``: one stream of symbols (the header's
    characters as 64 and up, the cells, a tail), each filling a tens digit,
    a ones digit and a separator, or 0s, which are dropped."""
    head = f"order {n}\nkind loop\n".encode()
    tens = (bytes(48 + v // 10 if v > 9 else 0 for v in range(64)) + head + b"\n").ljust(256, b"\0")
    ones = bytes(48 + v % 10 for v in range(64)).ljust(256, b"\0")
    start, end = bytes(range(64, 64 + len(head))), bytes([64 + len(head)])
    seps = b"\0" * len(head) + (b" " * (n - 1) + b"\n") * n + b"\0"

    def text(*tables: bytes) -> str:
        symbols = b"".join(start + cells + end for cells in tables)
        buf = bytearray(3 * len(symbols))
        buf[::3], buf[1::3], buf[2::3] = symbols.translate(tens), symbols.translate(ones), seps * len(tables)
        return buf.translate(None, b"\0").decode()

    return text


def serialize_table(table: MagmaTable) -> str:
    """Render as the plain-text wire format: the lines of ``_table_lines``."""
    _require_table(table, "serialize_table")
    return "".join(_table_lines(table))


def _parse_chunk(lines) -> MagmaTable:
    if len(lines) < 2:
        raise ValidationError("truncated table: missing header lines")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "order":
        raise ValidationError(f"expected 'order <n>' header, got {lines[0]!r}")
    try:
        order = int(head[1])
    except ValueError:
        raise ValidationError(f"bad order {head[1]!r}") from None
    kind_line = lines[1].split()
    if len(kind_line) != 2 or kind_line[0] != "kind" or kind_line[1] not in KINDS:
        raise ValidationError(f"expected 'kind magma|quasigroup|loop', got {lines[1]!r}")
    body = lines[2:]
    if len(body) != order:
        raise ValidationError(f"expected {order} table rows, got {len(body)}")
    if 1 <= order <= ORDER_LIMIT:
        # a token found in the label map is the text of a label in range, so
        # only the kind's checks remain; any other token takes the int() path
        label = {str(v): v for v in range(order)}.__getitem__
        try:
            rows = [tuple(map(label, line.split())) for line in body]
        except KeyError:
            pass
        else:
            if all(len(row) == order for row in rows):
                return _check_kind(MagmaTable(order, rows, kind_line[1]))
    rows = []
    for line in body:
        try:
            rows.append(tuple(map(int, line.split())))
        except ValueError:
            raise ValidationError(f"bad table row {line!r}") from None
    return build_magma(order, rows, kind_line[1])


def _content_lines(text):
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        yield line


def parse_table(text: str) -> MagmaTable:
    """Parse one table; comment lines (leading '#') and blank lines ignored."""
    lines = [ln for ln in _content_lines(text) if ln]
    return _parse_chunk(lines)


def parse_tables(text: str) -> list[MagmaTable]:
    """Parse a blank-line-separated stream of tables."""
    chunks = []
    current = []
    for line in _content_lines(text):
        if line:
            current.append(line)
        elif current:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return [_parse_chunk(c) for c in chunks]
