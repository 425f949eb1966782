"""The benchmark's workloads: lists of CLI commands with their references.

``setup(jl, rng, workdir)`` turns the seed into input files and returns the
commands.  The CLI sees only those files.  Every command carries the exit
codes it may return and a check of its output against a reference that comes
from how the input was built or from the literature, never from the code
under test (see ``oracle.py``).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle


@dataclass
class Op:
    """One CLI command. ``check(rc, stdout)`` returns a mismatch or None."""

    argv: list
    codes: tuple = (0,)
    check: Callable | None = None
    label: str | None = None  # names the command in the baseline cross-check


@dataclass(frozen=True)
class SearchReference:
    tables: int  # tables in the output file
    models: int  # labelled models, as counted in the output's summary line
    digest: str  # oracle.digest of the output tables, recorded at the seed commit
    groups: dict | None = None  # order 9: how many labelled copies of each group
    classes: bool = False  # the output lists one table per isomorphism class


def _summary(text: str) -> dict:
    line = [ln for ln in text.splitlines() if ln.startswith("# nodes=")][-1]
    return {k: float(v) if "." in v else int(v) for k, v in re.findall(r"(\w+)=([\d.]+)", line)}


class SearchWorkload:
    """``search --order n`` to a file, optionally ``--up-to-iso``."""

    # share of the non-border cells a propagate probe blanks
    BLANK = 0.5
    # propagate probes per traced run
    PROBES = 300

    def __init__(self, name, order, up_to_iso, reference):
        self.name = name
        self.order, self.up_to_iso, self.reference = order, up_to_iso, reference
        self.out = None

    def setup(self, jl, rng, workdir: Path) -> list:
        self.out = workdir / f"search-o{self.order}.txt"
        argv = ["search", "--order", str(self.order), "--out", str(self.out)]
        if self.up_to_iso:
            argv.insert(3, "--up-to-iso")
        return [Op(argv, check=self.check, label="search")]

    def check(self, rc, stdout):
        ref = self.reference
        text = self.out.read_text()
        tables = oracle.parse(text)
        if len(tables) != ref.tables:
            return f"{len(tables)} tables, expected {ref.tables}"
        models = _summary(text)["models"]
        if models != ref.models:
            return f"summary counts {models} labelled models, expected {ref.models}"
        if any(t.order != self.order or t.kind != "loop" for t in tables):
            return "a table of the wrong order or kind"
        if ref.groups is not None:
            found: dict = {}
            for t in tables:
                g = oracle.group_of_order_9(t.rows)
                found[g] = found.get(g, 0) + 1
            if found != ref.groups:
                return f"groups found {found}, expected {ref.groups}"
        if ref.classes:
            if len({t.text for t in tables}) != len(tables):
                return "a class representative is listed twice"
            for t in tables:
                p = oracle.properties(t.rows)
                if not (oracle.is_loop(t.rows) and p["jordan"]):
                    return "a class representative is not a commutative Jordan loop"
        if oracle.digest(tables) != ref.digest:
            return "output digest differs from the one recorded at the seed commit"
        return None

    def counts(self) -> dict:
        s = _summary(self.out.read_text())
        classes = s["classes"] if self.up_to_iso else 0
        return {"nodes": s["nodes"], "failures": s["failures"], "models": s["models"],
                "classes": classes}

    def probe(self, jl, tracer, rng):
        """Call ``propagate`` on partial tables cut from this workload's output.

        Each probe blanks a seeded share of the non-border cells of a found
        model (both (i, j) and (j, i)).  The model is a completion, so every
        cell propagation fills must agree with it.  Returns (attempted,
        mismatches, fill ratio)."""
        models = oracle.parse(self.out.read_text())
        if not models:
            return 1, ["no models to cut probes from"], 0.0
        n = self.order
        mismatches, blanked, filled = [], 0, 0
        for _ in range(self.PROBES):
            model = rng.choice(models)
            full = [v for row in model.rows for v in row]
            cells = list(full)
            for i in range(1, n):
                for j in range(i, n):
                    if rng.random() < self.BLANK:
                        cells[i * n + j] = cells[j * n + i] = -1
            pt = jl.PartialTable(n, tuple(cells))
            idx = tracer.begin("probe.propagate")
            result = jl.propagate(pt)
            tracer.end(idx)
            if result is None or any(v not in (-1, full[k]) for k, v in enumerate(result.cells)):
                mismatches.append("propagate contradicted a known completion")
                continue
            holes = [k for k, v in enumerate(cells) if v == -1]
            blanked += len(holes)
            filled += sum(1 for k in holes if result.cells[k] != -1)
        return self.PROBES, mismatches, filled / blanked if blanked else 0.0

    def crosscheck(self, metrics, op_walls):
        engine = metrics["search.enumerate_s"] + metrics["tables.materialise_s"]
        rows = {9: [("order 9 search (labelled)", 22.9, engine),
                    ("order 9 classify", 1.5, None)],
                8: [("order 8 search (labelled)", 11.0, engine),
                    ("order 8 classify", 15.9, metrics["search.classify_s"])]}
        return rows.get(self.order, [])


def achievable(lo, hi):
    """Orders with a nonassociative Jordan loop: n >= 6, n != 9."""
    return [n for n in range(max(lo, 6), hi + 1) if n != 9]


def gap_carrier(m: int, n: int) -> int:
    """Least s >= m + 2 coprime to n: the power-gap loop has order n*s."""
    s = m + 2
    while math.gcd(s, n) != 1:
        s += 1
    return s


_POWER_LINE = re.compile(r"^  k=(\d+) products=\{([\d,]*)\} (well-defined|ambiguous)$")


class AnalyseWorkload:
    """Construct, verify, powers and iso per order; simple on towers and on
    small constructs; power-gap loops; documented-limit probes.

    Each output text is parsed once, so repeated passes re-check cheaply."""

    def __init__(self, name, orders, simple_orders, towers, gaps, limits):
        self._cache: dict = {}
        self.name = name
        self.orders, self.simple_orders = orders, simple_orders
        self.towers, self.gaps, self.limits = towers, gaps, limits

    def memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def table(self, path: Path) -> oracle.Table:
        text = path.read_text()
        tables = self.memo(("parse", text), lambda: oracle.parse(text))
        if len(tables) != 1:
            raise ValueError(f"{path.name}: expected one table, got {len(tables)}")
        return tables[0]

    def props(self, t: oracle.Table) -> dict:
        return self.memo(("props", t.text), lambda: oracle.properties(t.rows))

    def setup(self, jl, rng, workdir: Path) -> list:
        ops = []
        for n in self.orders:
            built, copy = workdir / f"c{n}.txt", workdir / f"r{n}.txt"
            perm = [0] + rng.sample(range(1, n), n - 1)
            copy.write_text(oracle.serialize(oracle.relabel(jl.construct(n).rows, perm)))
            c = rng.randrange(1, n)
            ops += [
                Op(["construct", "--order", str(n), "--out", str(built)],
                   check=lambda rc, out, n=n, p=built: self.check_construct(n, p)),
                Op(["verify"] + [a for tag in oracle.TAGS for a in ("-p", tag)] + [str(built)],
                   codes=(1,), check=lambda rc, out, p=built: self.check_verify(p, out)),
                Op(["powers", "--element", str(c), str(built)],
                   check=lambda rc, out, p=built, c=c, n=n: self.check_powers(p, out, c, n + 1)),
                Op(["iso", str(built), str(copy)],
                   check=lambda rc, out, a=built, b=copy: self.check_iso(a, b, out)),
            ]
        for n in self.simple_orders:
            path = workdir / f"c{n}.txt"
            ops.append(Op(["simple", str(path)], codes=(0, 1),
                          check=lambda rc, out, p=path: self.check_simple(p, rc, out)))
        for d in self.towers:
            path = workdir / f"t{d}.txt"
            ops += [
                Op(["tower", "--depth", str(d), "--out", str(path)],
                   check=lambda rc, out, d=d, p=path: self.check_tower(d, p)),
                # towers of depth >= 2 are simple (hyper_extend of a simple loop)
                Op(["simple", str(path)], check=lambda rc, out: self.expect(out, "table 1: simple"),
                   label=f"simple tower {d}"),
            ]
        if 2 in self.towers and 7 in self.orders:
            # jordan_tower(2) is simple; odd_jordan(7) = construct(7) is not
            ops.append(Op(["iso", str(workdir / "t2.txt"), str(workdir / "c7.txt")], codes=(1,),
                          check=lambda rc, out: self.expect(out, "not isomorphic")))
        for m, n in self.gaps:
            path = workdir / f"g{m}_{n}.txt"
            c = 1 + n  # the generator (1, 1), encoded a + n*u
            ops += [
                Op(["gap-loop", "--m", str(m), "--n", str(n), "--out", str(path)],
                   check=lambda rc, out, m=m, n=n, p=path, c=c: self.check_gap(m, n, c, p)),
                Op(["powers", "--element", str(c), "--max-k", str(m * n), str(path)],
                   check=lambda rc, out, p=path, c=c, k=m * n: self.check_powers(p, out, c, k, gap=k)),
            ]
        ops += [Op(list(argv), codes=(2,)) for argv in self.limits]
        return ops

    @staticmethod
    def expect(out, text):
        return None if out.strip() == text else f"printed {out.strip()[:80]!r}, expected {text!r}"

    def check_construct(self, n, path):
        t = self.table(path)
        if t.order != n or t.kind != "loop" or not oracle.is_loop(t.rows):
            return f"construct {n}: not a loop of order {n}"
        p = self.props(t)
        if not p["jordan"] or p["associative"]:
            return f"construct {n}: not a nonassociative Jordan loop"
        return None

    def check_verify(self, path, out):
        p = self.props(self.table(path))
        lines = out.splitlines()
        if len(lines) != len(oracle.TAGS):
            return f"verify printed {len(lines)} lines"
        for line, tag in zip(lines, oracle.TAGS):
            verdict = "ok" if p[tag] else "FAIL"
            if not line.startswith(f"table 1: {tag} {verdict}"):
                return f"verify {path.name}: {line!r}, reference says {tag} {verdict}"
        return None

    def check_powers(self, path, out, c, max_k, gap=None):
        """Every exponent is listed; a well-defined power equals the right
        power and an ambiguous one contains it.  Powers up to the fifth are
        well defined in any Jordan loop; a gap loop's powers are well
        defined below m*n and ambiguous at m*n."""
        rows = self.table(path).rows
        lines = out.splitlines()
        if lines[0] != f"table 1: element {c}, order {len(rows)}":
            return f"powers header {lines[0]!r}"
        ks = [_POWER_LINE.match(line) for line in lines[1:max_k + 1]]
        if len(ks) != max_k or not all(ks):
            return "powers did not list every exponent"
        for k, match in enumerate(ks, start=1):
            values = {int(v) for v in match.group(2).split(",")}
            well = match.group(3) == "well-defined"
            rp = oracle.right_power(rows, c, k)
            if int(match.group(1)) != k or rp not in values or well != (len(values) == 1):
                return f"powers k={k}: {match.group(0).strip()!r}, right power {rp}"
            if (gap and well != (k < gap)) or (not gap and k <= 5 and not well):
                return f"powers k={k}: {match.group(3)}, reference says otherwise"
        order = re.fullmatch(r"  element order: (\d+)", lines[max_k + 1])
        if order:
            o = int(order.group(1))
            if [oracle.right_power(rows, c, k) == 0 for k in range(1, o + 1)] != [False] * (o - 1) + [True]:
                return f"element order {o} disagrees with the right powers of {c}"
        return None

    def check_iso(self, lhs, rhs, out):
        if not out.startswith("isomorphic: "):
            return f"iso {lhs.name} {rhs.name}: {out.strip()[:60]!r}"
        mapping = [int(v) for v in out.split(":")[1].split()]
        if not oracle.is_isomorphism(mapping, self.table(lhs).rows, self.table(rhs).rows):
            return f"iso {lhs.name} {rhs.name}: the printed map is not an isomorphism"
        return None

    def check_simple(self, path, rc, out):
        t = self.table(path)
        if out.strip() == "table 1: simple":
            ok = rc == 0 and self.memo(("simple", t.text), lambda: oracle.is_simple(t.rows))
            return None if ok else f"simple {path.name}: the reference finds a proper normal subloop"
        match = re.fullmatch(r"table 1: not simple \(proper normal subloop of size (\d+): \{([\d,]+)\}\)",
                             out.strip())
        if not match or rc != 1:
            return f"simple {path.name}: {out.strip()[:80]!r}"
        members = {int(v) for v in match.group(2).split(",")}
        if (len(members) != int(match.group(1)) or not 1 < len(members) < t.order
                or not oracle.is_normal_subloop(t.rows, members)):
            return f"simple {path.name}: the witness is not a proper normal subloop"
        return None

    def check_tower(self, depth, path):
        t = self.table(path)
        if t.order != 2 ** (depth + 1) - 1 or not oracle.is_loop(t.rows) or not self.props(t)["jordan"]:
            return f"tower {depth}: not a Jordan loop of order {2 ** (depth + 1) - 1}"
        return None

    def check_gap(self, m, n, c, path):
        t = self.table(path)
        if t.order != n * gap_carrier(m, n) or not oracle.is_loop(t.rows):
            return f"gap-loop {m} {n}: not a loop of order {n * gap_carrier(m, n)}"
        if f"# element {c}: powers well-defined below {m * n}" not in path.read_text():
            return f"gap-loop {m} {n}: the element line does not name {c}"
        return None

    def counts(self) -> dict:
        return {"nodes": 0, "failures": 0, "models": 0, "classes": 0}

    def probe(self, jl, tracer, rng):
        return 0, [], 0.0

    def crosscheck(self, metrics, op_walls):
        return [(f"is_simple tower depth {d}", ref, op_walls.get(f"simple tower {d}"))
                for d, ref in ((4, 0.38), (5, 5.8)) if d in self.towers]


LIMIT_PROBES = (
    ("search", "--order", "64", "--node-limit", "5000"),
    ("search", "--order", "65"),
    ("construct", "--order", "9"),
    ("tower", "--depth", "16"),
)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            "search-o9",
            order=9, up_to_iso=False,
            reference=SearchReference(
                tables=7560, models=7560, groups={"Z9": 6720, "Z3xZ3": 840},
                digest="007e64ec1c5f5bceb0d5a8502d44230d2d77c7ad71460c7c564a64bd78f24488"),
        ),
        SearchWorkload(
            "search-o8-iso",
            order=8, up_to_iso=True,
            reference=SearchReference(
                tables=22, models=25980, classes=True,
                digest="4cdaa0d1094d801797f09d1ba78aa37cfa570d742c88d2f444bba0968b4c4e21"),
        ),
        AnalyseWorkload(
            "analyse",
            orders=achievable(6, 64), simple_orders=achievable(6, 32), towers=(2, 3, 4, 5),
            gaps=((2, 3), (4, 3), (3, 5), (2, 7), (5, 7)), limits=LIMIT_PROBES,
        ),
    )
}
