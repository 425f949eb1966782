"""Exhaustive enumeration of commutative (Jordan) loops of a given order.

The table is kept symmetric throughout, so one bitmask per line tracks the
symbols used in that row and column.  Propagation closes assignments under
Latin singles, commutativity mirroring, and Jordan-identity triggers, and
applies a parity fact: in a commutative quasigroup every symbol occurs on
the diagonal with the parity of the order.  At odd order ``assign`` keeps
the diagonal a bijection; at even order ``process_queue`` refutes a diagonal
whose free cells cannot give every symbol an even count.  An instance
with x*x = 0 reads y*x on both sides, so it is never evaluated.

The engine records each fact once: the trail of assignments doubles as the
propagation queue, and the diagonal of the table as the squaring map.

The search runs once per conjugacy class of squaring maps, from a table
seeded with that diagonal: an isomorphism of commutative loops conjugates
the squaring map, so this meets every class (McKay, Meynert and Myrvold,
"Small Latin squares, quasigroups and loops", J. Combin. Des. 15, 2007).
Each seed then breaks its leftover symmetry G, the relabellings fixing 0
that keep its set cells: the row of the least element a of a largest
G-orbit is filled first, and a filled row is searched on only when no
element of G fixing a gives it a smaller image.  Every completion has such
an image, itself a completion and isomorphic to it (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  A seed with a zero
diagonal, whose row 1 is seeded once per cycle type of L_1, also leaves a
node as soon as a filled row x gives L_x a smaller cycle key than L_1: each
exponent-2 class is still found, from the seed of the least key of its L_b,
with 1 naming such a b.
Each completion is keyed by its least relabelling, which also gives
|Aut L|, as soon as it is found: one dictionary of least forms holds the
classes, and the labelled models are counted as the sum of (n-1)!/|Aut L|.
With ``up_to_iso`` the least forms are the output; without it each is
expanded into all its identity-fixing relabellings, up to
``LISTING_LIMIT`` tables.  The engine can also run from the blank table
over every labelling; the tests keep that as the slow reference.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace
from functools import partial
from math import factorial, inf
from numbers import Real

from .tables import (  # classify_up_to_iso is re-exported for callers of this module
    MagmaTable,
    ValidationError,
    _associativity_witness,
    _check_int,
    _check_order,
    _least_form,
    _perm_cycles,
    build_magma,
    classify_up_to_iso,
)


# The labelled listing holds every table it lists: 120-140 bytes a table at
# orders 8 and 9 (README, Limits), so about 0.2 GB at this cap, which orders
# 1-9 stay far below and orders 10 and 11 exceed.
LISTING_LIMIT = 10**6


@dataclass(frozen=True)
class SearchOptions:
    """What to enumerate and how hard to try."""

    order: int
    require_jordan: bool = True
    nonassociative_only: bool = False
    up_to_iso: bool = False
    node_limit: int | None = None
    time_budget: float | None = None
    result_limit: int | None = None


@dataclass
class SearchStats:
    """``nodes`` counts the states visited, the root and complete tables
    included; ``failures`` the candidates that assign or propagation refuted.
    A state the row-1 cut leaves is a node but not a failure.

    Both count the seeded trees of the squaring classes, with or without
    ``up_to_iso``: each seed is one node, and a failure when propagation
    refutes it; the search of the seed's row a, and the tree searched from
    each filled row kept, add their own nodes and failures.  At order 9
    that is 936 nodes, against 224,743 for the labelled tree from the blank
    table.  ``completions`` counts the tables the seeds completed, each
    keyed by its least form; the exponent-2 seeds complete only those their
    row-1 cut keeps (49 of 81 at order 8).  ``models_found`` is
    the sum of (n-1)!/|Aut L| over the classes kept, the number of labelled
    models."""

    nodes: int = 0
    failures: int = 0
    completions: int = 0
    models_found: int = 0
    models_after_iso: int = 0
    seconds: float = 0.0


class SearchIncomplete(RuntimeError):
    """The budget ran out before the space was exhausted."""

    def __init__(self, message: str, stats: SearchStats):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class PartialTable:
    """A partially filled symmetric-in-progress table; -1 marks unset cells.

    Row 0 and column 0 always hold the identity border.  row_masks[i] and
    col_masks[i] are bitsets of the symbols already placed in line i.
    """

    order: int
    cells: tuple
    row_masks: tuple = field(init=False)
    col_masks: tuple = field(init=False)

    def __post_init__(self):
        n = self.order
        _check_order(n)
        cells = self.cells
        if len(cells) != n * n:
            raise ValidationError(f"expected {n * n} cells, got {len(cells)}")
        for i in range(n):
            if cells[i] != i or cells[i * n] != i:
                raise ValidationError("row 0 and column 0 must hold the identity border")
        rows = [0] * n
        cols = [0] * n
        for i in range(n):
            base = i * n
            for j in range(n):
                v = cells[base + j]
                if v == -1:
                    continue
                if not 0 <= v < n:
                    raise ValidationError(f"cell ({i},{j}) value {v} out of range")
                b = 1 << v
                if rows[i] & b:
                    raise ValidationError(f"row {i} repeats symbol {v}")
                if cols[j] & b:
                    raise ValidationError(f"column {j} repeats symbol {v}")
                rows[i] |= b
                cols[j] |= b
        object.__setattr__(self, "row_masks", tuple(rows))
        object.__setattr__(self, "col_masks", tuple(cols))

    @classmethod
    def blank(cls, order: int) -> "PartialTable":
        _check_order(order)
        cells = [-1] * (order * order)
        for i in range(order):
            cells[i] = i
            cells[i * order] = i
        return cls(order, tuple(cells))

    @classmethod
    def from_table(cls, table: MagmaTable) -> "PartialTable":
        return cls(table.order, tuple(v for row in table.rows for v in row))

    def cell(self, i: int, j: int) -> int:
        return self.cells[i * self.order + j]

    def with_cell(self, i: int, j: int, v: int) -> "PartialTable":
        cells = list(self.cells)
        cells[i * self.order + j] = v
        return PartialTable(self.order, tuple(cells))

    def is_complete(self) -> bool:
        return -1 not in self.cells

    def to_table(self, kind: str = "loop") -> MagmaTable:
        if not self.is_complete():
            raise ValueError("table still has unset cells")
        n = self.order
        return build_magma(n, [self.cells[i * n:(i + 1) * n] for i in range(n)], kind)


class _State:
    """Mutable search state shared by propagate and the enumerator.

    diag_parity holds the symbols whose count on the diagonal has the wrong
    parity so far; at odd order these are the symbols not yet on it.
    """

    __slots__ = (
        "n", "T", "pos", "free", "odd", "diag_parity", "diag_left", "by_sq",
        "trail", "require_jordan",
    )

    def __init__(self, n: int, require_jordan: bool):
        self.n = n
        self.require_jordan = require_jordan
        self.T = [-1] * (n * n)
        self.pos = [[-1] * n for _ in range(n)]
        for i in range(n):
            self.T[i] = i
            self.T[i * n] = i
            self.pos[i][i] = 0
            self.pos[0][i] = i
        full = (1 << n) - 1
        self.free = [full & ~(1 << i) for i in range(n)]
        self.free[0] = 0
        self.odd = bool(n & 1)
        # symbol 0 sits once at (0,0): right parity at odd order, wrong at even
        self.diag_parity = full & ~1 if self.odd else 1
        self.diag_left = n - 1
        self.by_sq = [[] for _ in range(n)]
        self.by_sq[0].append(0)
        self.trail = []

    def assign(self, i: int, j: int, v: int) -> bool:
        b = 1 << v
        free = self.free
        if i == j:
            if not (free[i] & b):
                return False
            if self.odd and not (self.diag_parity & b):
                return False
            self.diag_parity ^= b
            self.diag_left -= 1
            free[i] &= ~b
            self.by_sq[v].append(i)
        else:
            if not (free[i] & b) or not (free[j] & b):
                return False
            free[i] &= ~b
            free[j] &= ~b
        n = self.n
        self.T[i * n + j] = v
        self.T[j * n + i] = v
        self.pos[i][v] = j
        self.pos[j][v] = i
        self.trail.append((i, j, v))
        return True

    def undo(self, mark: int):
        n = self.n
        trail = self.trail
        free = self.free
        while len(trail) > mark:
            i, j, v = trail.pop()
            b = 1 << v
            self.T[i * n + j] = -1
            self.T[j * n + i] = -1
            self.pos[i][v] = -1
            self.pos[j][v] = -1
            free[i] |= b
            if i != j:
                free[j] |= b
            else:
                self.diag_parity ^= b
                self.diag_left += 1
                self.by_sq[v].pop()

    def check_instance(self, x: int, y: int) -> bool:
        """Jordan instance (x*x)*(y*x) = ((x*x)*y)*x; forces a lone unknown."""
        n = self.n
        T = self.T
        s = T[x * n + x]
        if s < 0:
            return True
        p = T[y * n + x]
        if p < 0:
            return True
        sn = s * n
        q = T[sn + y]
        if q < 0:
            return True
        lhs = T[sn + p]
        rhs = T[q * n + x]
        if lhs >= 0:
            if rhs >= 0:
                return lhs == rhs
            return self.assign(q, x, lhs)
        if rhs >= 0:
            return self.assign(s, p, rhs)
        return True

    def _latin_single(self, i: int) -> bool:
        f = self.free[i]
        if f and not (f & (f - 1)):
            v = f.bit_length() - 1
            n = self.n
            base = i * n
            T = self.T
            for j in range(1, n):
                if T[base + j] < 0:
                    return self.assign(i, j, v)
        return True

    def process_queue(self, mark: int) -> bool:
        """Close the assignments on the trail from ``mark`` on under all
        propagation rules; the trail grows as the rules assign."""
        trail = self.trail
        check_instance = self.check_instance
        latin_single = self._latin_single
        require_jordan = self.require_jordan
        by_sq = self.by_sq
        n = self.n
        T = self.T
        pos = self.pos
        qi = mark
        # an instance with x*x = 0 reads y*x on both sides, so it is never
        # evaluated; a and b are never 0, so neither is a square in by_sq[a]
        while qi < len(trail):
            a, b, v = trail[qi]
            qi += 1
            if require_jordan:
                if a == b:
                    if v:
                        for y in range(1, n):
                            if not check_instance(a, y):
                                return False
                elif (T[a * n + a] > 0 and not check_instance(a, b)) or (
                    T[b * n + b] > 0 and not check_instance(b, a)
                ):
                    return False
                for s0, c in ((a, b), (b, a)):
                    for x in by_sq[s0]:
                        if not check_instance(x, c):
                            return False
                        y = pos[x][c]
                        if y > 0 and not check_instance(x, y):
                            return False
                    sc = T[c * n + c]
                    if sc > 0:
                        y = pos[sc][s0]
                        if y > 0 and not check_instance(c, y):
                            return False
                    if a == b:
                        break
            if not latin_single(a):
                return False
            if a != b and not latin_single(b):
                return False
        if self.odd:  # assign keeps the diagonal a partial bijection
            return True
        # every symbol still of the wrong parity needs an odd number of the
        # diag_left free diagonal cells
        bad = self.diag_parity.bit_count()
        return bad <= self.diag_left and not (self.diag_left - bad) & 1

    def select(self):
        """Next decision cell and its candidate mask, None when complete:
        the cell with the fewest candidates in the line with the fewest free
        symbols, where an odd-order diagonal cell takes only symbols not yet
        on the diagonal.  Filling the diagonal first would branch on squaring
        maps that propagation cannot refute until later cells are set."""
        n = self.n
        free = self.free
        line = -1
        best_count = n + 1
        for i in range(1, n):
            f = free[i]
            if f:
                count = f.bit_count()
                if count < best_count:
                    best_count = count
                    line = i
        return None if line < 0 else self.select_in(line)

    def select_in(self, line: int):
        """The cell of ``line`` that ``select`` takes, or None when it is full."""
        n = self.n
        free = self.free
        T = self.T
        base = line * n
        best = None
        best_count = n + 1
        fline = free[line]
        diag = fline & self.diag_parity if self.odd else fline
        for j in range(1, n):
            if T[base + j] < 0:
                c = fline & free[j] if j != line else diag
                count = c.bit_count()
                if count < best_count:
                    best_count = count
                    best = (line, j, c)
                    if count <= 1:
                        break
        return best


def _seeded(pt: PartialTable, require_jordan: bool) -> _State | None:
    """A search state holding the cells of ``pt``, closed under Latin
    singles, commutativity mirroring and Jordan triggers; None on
    contradiction."""
    n = pt.order
    state = _State(n, require_jordan)
    T = state.T
    # assign writes (i,j) and (j,i) together, so a mirror that disagrees
    # with its already-set twin is caught like any other clash
    for k, v in enumerate(pt.cells):
        if v == -1 or v == T[k]:
            continue
        if T[k] != -1 or not state.assign(k // n, k % n, v):
            return None
    for i in range(1, n):
        if not state._latin_single(i):
            return None
    if not state.process_queue(0):
        return None
    return state


def propagate(pt: PartialTable, require_jordan: bool = True) -> PartialTable | None:
    """Close a partial table under Latin singles, commutativity mirroring,
    and Jordan triggers; None on contradiction."""
    state = _seeded(pt, require_jordan)
    return None if state is None else PartialTable(pt.order, tuple(state.T))


def _check_limits(options: SearchOptions, stats: SearchStats, start: float):
    """Raise SearchIncomplete once the node limit or the time budget is spent."""
    if options.node_limit is not None and stats.nodes > options.node_limit:
        spent = f"node limit {options.node_limit}"
    elif options.time_budget is not None and time.monotonic() - start > options.time_budget:
        spent = f"time budget {options.time_budget}s"
    else:
        return
    stats.seconds = time.monotonic() - start
    raise SearchIncomplete(f"{spent} hit before the order-{options.order} space was exhausted", stats)


def _run(state: _State, options: SearchOptions, stats: SearchStats, found, tick, select=None, cut=None):
    """Depth-first search on an explicit stack of (i, j, remaining candidates,
    trail mark) frames, so depth is not bounded by the recursion limit.
    ``select`` (``state.select`` by default) gives each decision cell,
    ``found`` is called with the cells of each state where it gives None,
    and ``tick`` on every 256th node and on each node past the node limit.
    A state where ``cut(mark)`` holds, mark being the trail's length before
    the state's own assignments, is counted as a node and left."""
    select = select or state.select
    node_limit = inf if options.node_limit is None else options.node_limit
    trail = state.trail
    stack = []
    mark = len(trail)
    while True:
        stats.nodes += 1
        if stats.nodes > node_limit or not stats.nodes & 255:
            tick()
        if cut is None or not cut(mark):
            sel = select()
            if sel is None:
                found(tuple(state.T))
            else:
                i, j, c = sel
                stack.append((i, j, c, len(trail)))
        # backtrack to the next candidate that propagates cleanly
        while stack:
            i, j, c, mark = stack.pop()
            if len(trail) > mark:
                state.undo(mark)
            if c:
                b = c & -c
                stack.append((i, j, c ^ b, mark))
                if state.assign(i, j, b.bit_length() - 1) and state.process_queue(mark):
                    break
                stats.failures += 1
        else:
            return


# -- squaring classes ----------------------------------------------------
#
# Drawn as a functional graph, the squaring map x -> x*x of a loop fixes 0
# and no other point (x*x = x forces x = 0).  At odd order it is a
# permutation.  At even order every fibre has even size, so a point off a
# cycle has an even number of preimages, a point on a cycle (0 included) an
# odd number off the cycle, and every tree hanging from a point has an odd
# number of points.  A rooted tree is written (size, children), with the
# children in descending order; a cycle of trees (size, trees), rotated to
# its greatest form.  Classes are built on demand from these canonical
# forms, so no table of all trees up to the order is kept.


def _tuples(total: int, bound: tuple, parts, descending: bool):
    """Tuples of items drawn from ``parts(size)``, each at most ``bound``
    and ``total`` points in all; when ``descending``, each item is at most
    the one before it, so a multiset is listed once."""
    if not total:
        yield ()
    for size in range(min(total, bound[0]), 0, -1):
        for item in parts(size):
            if item <= bound:
                for rest in _tuples(total - size, item if descending else bound, parts, descending):
                    yield (item, *rest)


def _trees(size: int):
    """Rooted trees of ``size`` points whose subtrees below the root all
    have an odd number of points."""
    for children in _tuples(size - 1, (size,), _odd_trees, True):
        yield (size, children)


def _odd_trees(size: int):
    return _trees(size) if size & 1 else ()


def _even_trees(size: int):
    return () if size & 1 else _trees(size)


def _cycles(size: int):
    """Cycles of at least two trees with an even number of points each,
    ``size`` points in all."""
    for head_size in range(size - 2, 1, -2):
        for head in _trees(head_size):
            for rest in _tuples(size - head_size, head, _even_trees, False):
                cycle = (head, *rest)
                if all(cycle >= cycle[k:] + cycle[:k] for k in range(1, len(cycle))):
                    yield (size, cycle)


def _lengths(size: int):
    return ((size,),) if size > 1 else ()


def _rotation(length: int, first: int) -> list:
    """The images of first, first+1, ... under one cycle through them in turn."""
    return [first + (k + 1) % length for k in range(length)]


def _squaring_map(root: tuple, cycles) -> list:
    """The squaring map of a graph: ``root`` hangs from 0, and the trees of
    each cycle from the cycle's points."""
    sq = [0]

    def hang(tree, at):
        for child in tree[1]:
            sq.append(at)
            hang(child, len(sq) - 1)

    hang(root, 0)
    for _, trees in cycles:
        first = len(sq)
        sq += _rotation(len(trees), first)
        for k, tree in enumerate(trees):
            hang(tree, first + k)
    return sq


def _squaring_classes(n: int):
    """One squaring map of an order-n loop per conjugacy class; at odd order
    one per partition of n - 1 with no part 1."""
    if n & 1:
        leaf = (1, ())
        for lengths in _tuples(n - 1, (n,), _lengths, True):
            yield _squaring_map(leaf, [(p, (leaf,) * p) for (p,) in lengths])
        return
    for size in range(n, 1, -2):
        for root in _trees(size):
            for cycles in _tuples(n - size, (n,), _cycles, True):
                yield _squaring_map(root, cycles)


def _class_seeds(n: int):
    """The partial tables to search from, one per squaring class.

    Each holds its class's diagonal.  The zero diagonal, which leaves all of
    S_(n-1) as symmetry, also gets row 1: in an exponent-2 loop L_a swaps 0
    and a and moves every other point, so relabelling a to 1 and then
    conjugating by permutations that fix 0 and 1 reaches row 1 = (1, 0, d)
    with d one derangement of 2..n-1 per cycle type."""
    blank = PartialTable.blank(n).cells
    for sq in _squaring_classes(n):
        cells = list(blank)
        cells[:: n + 1] = sq
        if n & 1 or any(sq):
            yield PartialTable(n, tuple(cells))
        else:
            yield from _exponent2_seeds(n, cells)


def _exponent2_seeds(n: int, cells: list):
    """``cells`` with row 1 seeded, once per cycle type on 2..n-1."""
    for lengths in _tuples(n - 2, (n,), _lengths, True):
        row = [1, 0]
        for (p,) in lengths:
            row += _rotation(p, len(row))
        cells[n : 2 * n] = row
        yield PartialTable(n, tuple(cells))


class _Leftover:
    """The leftover group G of a seed: the relabellings fixing 0 that map its
    set cells onto themselves, which is the centraliser of the seed's map f,
    its squaring map or, when that is zero, its row 1.  G is never listed: a
    partial relabelling ``pi`` (-1 where unset), with its inverse ``inv``,
    is extended in place one forced chain at a time and restored from an
    undo trail; every 256th step of a backtrack calls ``tick``.  Each
    method leaves ``pi`` as it found it."""

    def __init__(self, pt: PartialTable, tick):
        n, diagonal = pt.order, pt.cells[:: pt.order + 1]
        self.f = f = diagonal if any(diagonal) or n == 1 else pt.cells[n : 2 * n]
        self.n, self.tick, self.steps, self.trail = n, tick, 0, []
        self.pi, self.inv = [0] + [-1] * (n - 1), [0] + [-1] * (n - 1)
        # an element only maps to one of its colour: split colours by the
        # colours of f(x) and of the preimages of x until none splits
        pre = [[y for y in range(n) if f[y] == x] for x in range(n)]
        colour, self.colour = None, [0] * n
        while colour != self.colour:
            colour = self.colour
            keys = [(colour[x], colour[f[x]], *sorted(colour[y] for y in pre[x])) for x in range(n)]
            rank = {key: r for r, key in enumerate(sorted(set(keys)))}
            self.colour = [rank[key] for key in keys]
        # the candidate images of x, in increasing order
        self.peers = [[y for y in range(1, n) if self.colour[y] == self.colour[x]] for x in range(n)]

    def extend(self, x: int, y: int) -> bool:
        """Also map x to y, f(x) to f(y) and so on; False on a conflict,
        which leaves the maps made so far for ``undo``."""
        pi, inv, f, colour, trail = self.pi, self.inv, self.f, self.colour, self.trail
        while pi[x] < 0:
            if inv[y] >= 0 or colour[x] != colour[y]:
                return False
            pi[x], inv[y] = y, x
            trail.append(x)
            x, y = f[x], f[y]
        return pi[x] == y

    def undo(self, mark: int):
        """Unmap the elements mapped since the trail had length ``mark``."""
        pi, inv, trail = self.pi, self.inv, self.trail
        while len(trail) > mark:
            x = trail.pop()
            inv[pi[x]] = -1
            pi[x] = -1

    def step(self):
        """Count a step of a backtrack; every 256th calls ``tick``."""
        self.steps += 1
        if not self.steps & 255:
            self.tick()

    def complete(self, g: int = 1) -> bool:
        """Whether an element of G extends pi: each image of the least
        unmapped element, g or after it, is tried in turn."""
        self.step()
        pi, n = self.pi, self.n
        while g < n and pi[g] >= 0:
            g += 1
        if g == n:
            return True
        mark, inv = len(self.trail), self.inv
        for y in self.peers[g]:
            if inv[y] < 0:
                found = self.extend(g, y) and self.complete(g + 1)
                self.undo(mark)
                if found:
                    return True
        return False

    def orbits(self) -> list:
        """The least element of each element's G-orbit."""
        orbit = list(range(self.n))
        for y in range(2, self.n):
            for x in self.peers[y]:
                if x == y:
                    break
                found = orbit[x] == x and self.extend(x, y) and self.complete()
                self.undo(0)
                if found:
                    orbit[y] = x
                    break
        return orbit

    def smaller(self, row, k: int = 1) -> bool:
        """Whether an element φ of G extending pi gives ``row`` a smaller
        image, (φ·row)[φ(j)] = φ(row[j]), given that the image agrees with
        ``row`` before position k.  The image is built position by position:
        position k names its preimage j, then row[j] its image, and a branch
        ends once the image is larger."""
        self.step()
        if k == self.n:
            return False
        pi, inv, trail, rk = self.pi, self.inv, self.trail, row[k]
        mark = len(trail)
        for j in [inv[k]] if inv[k] >= 0 else [j for j in self.peers[k] if pi[j] < 0]:
            if self.extend(j, k):
                v = row[j]
                inner = len(trail)
                for t in [pi[v]] if pi[v] >= 0 else self.peers[v]:
                    if t > rk:
                        break
                    if self.extend(v, t) and (t < rk and self.complete() or t == rk and self.smaller(row, k + 1)):
                        self.undo(mark)
                        return True
                    self.undo(inner)
            self.undo(mark)
        return False


def _row1_cut(state: _State):
    """For a seed with a zero diagonal, a ``cut`` for ``_run``: whether a row
    x filled since the mark gives L_x a smaller cycle key than L_1 (the key
    of ``_row1_cycles``), so that no completion below has L_1 give the least
    row 1 (see the module docstring).  None when L_1 has only 2-cycles, as
    no key is smaller."""
    n, T, free, trail = state.n, state.T, state.free, state.trail
    key = list(map(len, _perm_cycles(T[n : 2 * n])))
    if max(key) == 2:
        return None

    def beats(x):
        return not free[x] and list(map(len, _perm_cycles(T[x * n : x * n + n]))) < key

    def cut(mark):
        for k in range(mark, len(trail)):
            i, j, _ = trail[k]
            if beats(i) or beats(j):
                return True
        return False

    return cut


def _search_seed(pt: PartialTable, options: SearchOptions, stats: SearchStats, found, tick):
    """Call ``found`` with the cells of each of the seed's completions whose
    row a is least and, for a zero diagonal, whose L_1 gives the least row 1
    (see the module docstring)."""
    n = options.order
    stats.nodes += 1
    tick()
    state = _seeded(pt, options.require_jordan)
    if state is None:
        stats.failures += 1
        return
    group = _Leftover(pt, tick)
    orbit = group.orbits()
    a = max(range(1, n), key=lambda x: (orbit.count(orbit[x]), -x), default=0)
    group.extend(a, a)
    row = slice(a * n, a * n + n)
    cut = _row1_cut(state) if n > 1 and not any(pt.cells[:: n + 1]) else None
    if cut is not None and cut(0):
        return

    def keep(cells):
        if not group.smaller(cells[row]):
            _run(state, options, stats, found, tick, cut=cut)

    _run(state, options, stats, keep, tick, partial(state.select_in, a), cut)


def _class_representatives(options: SearchOptions, stats: SearchStats, tick) -> list[MagmaTable]:
    """The least form of each isomorphism class: every completion is keyed
    by its least form as the search finds it, and then calls ``tick``."""
    n = options.order
    labellings = factorial(n - 1)
    forms = {}

    def found(cells):
        least, automorphisms = _least_form([cells[i * n:(i + 1) * n] for i in range(n)])
        forms[least] = automorphisms
        stats.completions += 1
        tick()

    for pt in _class_seeds(n):
        _search_seed(pt, options, stats, found, tick)
    reps = []
    for rows, automorphisms in forms.items():
        # associativity is an isomorphism invariant, so the least form
        # decides it for the class
        if not (options.nonassociative_only and _associativity_witness(rows, range(n)) is None):
            stats.models_found += labellings // automorphisms
            # a least form relabels a loop fixing 0: no need for build_magma
            reps.append(MagmaTable(n, rows, "loop"))
    return reps


def _orbit(rows, tick=lambda: None) -> set:
    """Every identity-fixing relabelling of the loop ``rows``, as the bytes
    of its n*n cells (n <= 64): the closure of the table under the
    transposition (1 2) and the cycle (1 2 ... n-1), which generate S_(n-1).
    Up to 256 tables are relabelled at once, a strided copy per moved cell
    and one translate per generator.  ``tick`` is called every 256 tables."""
    n = len(rows)
    size = n * n
    seen = {bytes(v for row in rows for v in row)}
    if n < 3:
        return seen
    swap = [0, 2, 1, *range(3, n)]
    cycle = [0, *range(2, n), 1]
    back = [0, n - 1, *range(1, n - 1)]
    # relabelling by p writes p[x*y] into cell (p[x], p[y]), so cell (a, b)
    # reads cell (p^-1[a], p^-1[b])
    moves = [
        ([(a * n + b, q[a] * n + q[b]) for a in range(n) for b in range(n) if (q[a], q[b]) != (a, b)],
         bytes(p).ljust(256))
        for p, q in ((swap, swap), (cycle, back))
    ]
    todo = list(seen)
    while todo:
        chunk = b"".join(todo[-256:])
        del todo[-256:]
        for cells, label in moves:
            image = bytearray(chunk)
            for to, frm in cells:
                image[to::size] = chunk[frm::size]
            image = bytes(image).translate(label)
            new = {image[k : k + size] for k in range(0, len(image), size)} - seen
            before = len(seen)
            seen |= new
            todo += new
            for _ in range(before // 256, len(seen) // 256):
                tick()
    return seen


def _check_options(options: SearchOptions):
    """Reject a bad order or limit before any search."""
    _check_order(options.order)
    if options.order > 64:
        raise ValueError(f"order {options.order} is far beyond exhaustive reach")
    for name in ("node_limit", "time_budget", "result_limit"):
        limit = getattr(options, name)
        if limit is not None and name != "time_budget":
            _check_int(limit, name)
        elif isinstance(limit, bool) or not isinstance(limit, Real | None):
            raise ValidationError(f"time_budget must be a real number, got {limit!r}")
        if limit is not None and not limit >= 0:  # also rejects a NaN budget
            raise ValueError(f"{name} must be non-negative, got {limit}")


def _labelled(options: SearchOptions) -> tuple[list[bytes], SearchStats]:
    """The listing of ``enumerate_loops``, each table as the bytes of its n*n
    cells: the class representatives with ``up_to_iso``, and without it
    their relabellings, expanded by ``_orbit``.  A labelled listing of more
    than ``LISTING_LIMIT`` tables is refused once the class search has
    counted them, unless ``result_limit`` is 0, which expands nothing."""
    _check_options(options)
    start = time.monotonic()
    # keep this call: bench/tracing.py times the search layer as search.enumerate_loops
    reps, stats = enumerate_loops(replace(options, up_to_iso=True, result_limit=None))
    limit = options.result_limit
    if options.up_to_iso:
        tables = (bytes(v for row in rep.rows for v in row) for rep in reps)
    else:
        # orbits of distinct classes are disjoint, each of (n-1)!/|Aut L| tables
        stats.models_after_iso = stats.models_found
        if limit != 0 and stats.models_found > LISTING_LIMIT:
            raise ValueError(
                f"the order-{options.order} labelled listing would hold {stats.models_found} tables "
                f"in memory, more than LISTING_LIMIT = {LISTING_LIMIT}; use --up-to-iso, "
                "or --limit 0 for the counts alone"
            )
        tick = partial(_check_limits, options, stats, start)
        tables = (cells for rep in reps for cells in _orbit(rep.rows, tick))
    raw = sorted(tables) if limit is None else heapq.nsmallest(limit, tables)
    stats.seconds = time.monotonic() - start
    return raw, stats


def enumerate_loops(options: SearchOptions) -> tuple[list[MagmaTable], SearchStats]:
    """All commutative loops of the given order meeting the requested
    filters, lexicographically least table first, plus search statistics.

    The search runs once per squaring class.  With ``up_to_iso`` each
    isomorphism class is listed by its least table; without it, by all its
    identity-fixing relabellings."""
    n = options.order
    if not options.up_to_iso:
        raw, stats = _labelled(options)
        # each relabelling of a loop fixing 0 is again a loop, so the
        # copies are frozen without build_magma's checks
        lines = [slice(i * n, i * n + n) for i in range(n)]
        return [MagmaTable(n, map(cells.__getitem__, lines), "loop") for cells in raw], stats
    _check_options(options)
    stats = SearchStats()
    start = time.monotonic()
    tick = partial(_check_limits, options, stats, start)
    tables = sorted(_class_representatives(options, stats, tick), key=lambda t: t.rows)
    stats.models_after_iso = len(tables)
    stats.seconds = time.monotonic() - start
    return tables[: options.result_limit], stats
