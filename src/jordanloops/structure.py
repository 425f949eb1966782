"""Translations, inner mappings, normal subloops, and simplicity."""
from __future__ import annotations

from .tables import (
    MagmaTable,
    Permutation,
    _check_element,
    _escaping_pair,
    _require_loop,
    _require_quasigroup,
)
from .powers import SubsetClosure


def left_translation(table: MagmaTable, x: int) -> Permutation:
    """The permutation z -> x*z."""
    _require_quasigroup(table, "left_translation")
    _check_element(table, x)
    return table.rows[x]


def right_translation(table: MagmaTable, x: int) -> Permutation:
    """The permutation z -> z*x."""
    _require_quasigroup(table, "right_translation")
    _check_element(table, x)
    rows = table.rows
    return tuple(rows[z][x] for z in range(table.order))


def _inverse(perm) -> dict:
    """The inverse of a permutation, mapping each image to its preimage."""
    return dict(zip(perm, range(len(perm))))


def _inner_left(rows, x: int, y: int):
    """L(x,y) as an iterator over z of (y*x) \\ (y*(x*z))."""
    ry = rows[y]
    return map(_inverse(rows[ry[x]]).__getitem__, map(ry.__getitem__, rows[x]))


def inner_left(table: MagmaTable, x: int, y: int) -> Permutation:
    """L(x,y): z -> (y*x) \\ (y*(x*z)); fixes the identity."""
    _require_loop(table, "inner_left")
    _check_element(table, x, y)
    return tuple(_inner_left(table.rows, x, y))


def inner_right(table: MagmaTable, x: int, y: int) -> Permutation:
    """R(x,y): z -> ((z*x)*y) / (x*y); fixes the identity."""
    _require_loop(table, "inner_right")
    _check_element(table, x, y)
    rows = table.rows
    xy = rows[x][y]
    inv = _inverse([row[xy] for row in rows])
    return tuple(inv[rows[row[x]][y]] for row in rows)


def conjugation(table: MagmaTable, x: int) -> Permutation:
    """T(x): z -> (x*z) / x; the identity map in a commutative loop."""
    _require_loop(table, "conjugation")
    _check_element(table, x)
    rows = table.rows
    return tuple(map(_inverse([row[x] for row in rows]).__getitem__, rows[x]))


def _find(parent: list, x: int) -> int:
    """The root of x's class in a union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def normal_closure(table: MagmaTable, seed) -> SubsetClosure:
    """Smallest normal subloop containing the seed elements.

    The normal subloops are the blocks of the multiplication group Mlt(L)
    that contain the identity (Bruck 1958), so this merges 0 with the seed
    in a union-find and closes the merges under the left and right
    translations, which generate Mlt(L) (Atkinson, Math. Comp. 29, 1975).
    The members are the class of 0.
    """
    _require_loop(table, "normal_closure")
    seed = tuple(sorted(set(seed)))
    _check_element(table, *seed)
    rows = table.rows
    n = table.order
    # the rows and the columns are the translations.  Row x sends 0 to x, as
    # does column x, so a column can repeat only its own row
    gens = rows + tuple(col for x, col in enumerate(zip(*rows)) if col != rows[x])
    # roots stay the least of their class, so the class of 0 has root 0
    parent = list(range(n))
    pending = [(0, s) for s in seed if s]
    for _, s in pending:
        parent[s] = 0
    left = n - 1 - len(pending)  # merges still possible before every element joins 0
    while pending and left:
        a, b = pending.pop()
        for g in gens:
            x, y = g[a], g[b]
            rx, ry = _find(parent, x), _find(parent, y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                pending.append((x, y))
                left -= 1
    members = tuple(x for x in range(n) if _find(parent, x) == 0)
    return SubsetClosure(members=members, generators=seed)


def is_normal(table: MagmaTable, members) -> bool:
    """Is the given subloop its own normal closure, that is, a block of
    Mlt(L), or equivalently invariant under every inner mapping?"""
    _require_loop(table, "is_normal")
    if isinstance(members, SubsetClosure):
        members = members.members
    sub = set(members)
    _check_element(table, *sub)
    if 0 not in sub:
        raise ValueError("a subloop must contain the identity 0")
    escape = _escaping_pair(table.rows, sub)
    if escape is not None:
        a, b = escape
        raise ValueError(f"not a subloop: {a}*{b} = {table.rows[a][b]} escapes the subset")
    return normal_closure(table, sub).members == tuple(sorted(sub))


def _inner_orbit_leaders(rows) -> list:
    """The least element of each orbit on 1..n-1 of the inner mappings
    L(1,y) = L_(y*1)^-1 L_y L_1, y = 1..n-1, ascending.

    The orbits are merged in a union-find whose roots stay the least of
    their class; ``comp`` maps each element to its root, so a mapping that
    keeps every orbit is passed over in one comparison, and the merging
    stops once one orbit is left.
    """
    n = len(rows)
    parent = list(range(n))
    orbits = n - 1
    comp = parent[:]
    for y in range(1, n):
        if orbits < 2:
            break
        image = list(_inner_left(rows, 1, y))
        if list(map(comp.__getitem__, image)) == comp:
            continue
        for z, w in enumerate(image):
            a, b = _find(parent, z), _find(parent, w)
            if a != b:
                parent[max(a, b)] = min(a, b)
                orbits -= 1
        comp = [_find(parent, z) for z in range(n)]
    return [x for x in range(1, n) if comp[x] == x]


def find_proper_normal_subloop(table: MagmaTable) -> SubsetClosure | None:
    """The normal closure of the smallest nonidentity element whose closure
    is a proper subloop, or None when every such element normally generates
    the whole loop.  This is the witness behind ``is_simple``.

    A normal closure is a block of Mlt(L), which every inner mapping maps
    onto itself, so it is constant on an orbit of inner mappings: one
    closure per orbit, the orbits taken by their least element, finds the
    same witness as one per element.
    """
    _require_loop(table, "find_proper_normal_subloop")
    n = table.order
    for x in _inner_orbit_leaders(table.rows):
        closure = normal_closure(table, (x,))
        if len(closure.members) < n:
            return closure
    return None


def is_simple(table: MagmaTable) -> bool:
    """No proper nontrivial normal subloop.

    Decided by ``find_proper_normal_subloop`` finding no witness.  The
    trivial loop is not simple.
    """
    return find_proper_normal_subloop(table) is None and table.order > 1
