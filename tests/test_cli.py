import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jordanloops
from jordanloops.cli import _build_parser, run
from jordanloops.constructions import even_jordan, jordan_tower
from jordanloops.tables import parse_table, parse_tables, serialize_table


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_module(*args, **kwargs):
    """``python -m jordanloops.cli`` in a child process that imports the
    package under test, however this process found it; ``kwargs`` go to
    ``subprocess.run``."""
    src = str(Path(jordanloops.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "jordanloops.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def cap_address_space():
    """Limit the child to about 1 GB of address space, so that a builder
    which allocates before checking its size fails fast with MemoryError."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestConstruct:
    def test_writes_valid_table(self, capsys):
        assert run(["construct", "--order", "6"]) == 0
        out = capsys.readouterr().out
        table = parse_table(out)
        assert table.order == 6 and table.kind == "loop"
        assert table == even_jordan(6)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "loop.txt"
        assert run(["construct", "--order", "10", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert parse_table(target.read_text()).order == 10

    def test_invalid_order_is_parameter_error(self, capsys):
        assert run(["construct", "--order", "9"]) == 2
        err = capsys.readouterr().err
        assert "valid orders" in err


class TestVerify:
    def test_all_pass(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", serialize_table(even_jordan(6)))
        code = run(["verify", "-p", "latin", "-p", "jordan", f])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("ok") == 2 and "FAIL" not in out

    def test_failure_sets_exit_one(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", serialize_table(even_jordan(6)))
        code = run(["verify", "-p", "associative", f])
        out = capsys.readouterr().out
        assert code == 1 and "FAIL" in out

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_table(jordan_tower(2))))
        assert run(["verify", "-p", "jordan", "-"]) == 0

    def test_multiple_tables_all_reported(self, tmp_path, capsys):
        text = serialize_table(even_jordan(6)) + "\n" + serialize_table(jordan_tower(2))
        f = write(tmp_path, "many.txt", text)
        code = run(["verify", "-p", "commutative", f])
        out = capsys.readouterr().out
        assert code == 0
        assert "table 1:" in out and "table 2:" in out

    def test_unknown_property_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", serialize_table(even_jordan(6)))
        assert run(["verify", "-p", "medial", f]) == 2

    def test_missing_file(self, capsys):
        assert run(["verify", "-p", "latin", "/does/not/exist"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe")
        assert run(["verify", "-p", "latin", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_exponent_two_without_identity_is_parameter_error(self, tmp_path, capsys):
        f = write(tmp_path, "q.txt", "order 3\nkind quasigroup\n0 2 1\n2 1 0\n1 0 2\n")
        assert run(["verify", "-p", "exponent-two", f]) == 2


class TestSearch:
    def test_enumeration_with_stats(self, capsys):
        assert run(["search", "--order", "5"]) == 0
        out = capsys.readouterr().out
        tables = parse_tables(out)
        assert len(tables) == 6
        assert "# nodes=" in out and "models=6" in out

    def test_filters_and_classes(self, capsys):
        assert run(["search", "--order", "6", "--nonassociative", "--up-to-iso"]) == 0
        out = capsys.readouterr().out
        assert len(parse_tables(out)) == 1
        assert "models=6" in out and "classes=1" in out

    @pytest.mark.parametrize("iso", [[], ["--up-to-iso"]])
    def test_search_layer_runs_once(self, iso, monkeypatch, capsys):
        """Both listings reach the class search through one
        ``enumerate_loops`` call, the name the benchmark's tracer times."""
        calls = []
        real = jordanloops.search.enumerate_loops

        def spy(options):
            calls.append(options)
            return real(options)

        monkeypatch.setattr("jordanloops.search.enumerate_loops", spy)
        assert run(["search", "--order", "6", *iso]) == 0
        assert len(calls) == 1 and calls[0].up_to_iso
        assert "classes=" in capsys.readouterr().out

    def test_no_jordan_superset(self, capsys):
        assert run(["search", "--order", "5", "--no-jordan"]) == 0
        out = capsys.readouterr().out
        assert len(parse_tables(out)) == 6

    def test_limit(self, capsys):
        assert run(["search", "--order", "6", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert len(parse_tables(out)) == 3
        assert "models=66" in out

    def test_node_limit_exhaustion(self, capsys):
        assert run(["search", "--order", "8", "--node-limit", "100"]) == 2
        captured = capsys.readouterr()
        assert "node limit" in captured.err
        assert "# nodes=" in captured.out  # partial stats still reported

    def test_node_limit_deeper_than_recursion_limit(self, capsys):
        # the labelled listing searches from the first squaring class's
        # seeded diagonal; without the Jordan rules that tree stacks ~1,800
        # frames by then
        assert run(["search", "--order", "64", "--no-jordan", "--node-limit", "5000"]) == 2
        captured = capsys.readouterr()
        assert "node limit 5000 hit" in captured.err
        assert captured.out.startswith("# nodes=5001 ")

    @pytest.mark.parametrize("limit", [["--node-limit", "5000"], ["--budget", "1"]])
    def test_class_path_honours_limits(self, limit, capsys):
        start = time.monotonic()
        assert run(["search", "--order", "64", "--up-to-iso", *limit]) == 2
        assert time.monotonic() - start < 5
        captured = capsys.readouterr()
        assert "hit before the order-64 space was exhausted" in captured.err
        assert captured.out.startswith("# nodes=")

    @pytest.mark.parametrize("iso", [[], ["--up-to-iso"]])
    def test_budget_holds_at_order_10(self, iso, capsys):
        # some order-10 squaring classes take seconds to materialise and
        # classify, so the budget is checked there too, not only per node
        assert run(["search", "--order", "10", *iso, "--budget", "3"]) == 2
        captured = capsys.readouterr()
        assert "time budget 3.0s hit" in captured.err
        assert float(re.search(r"seconds=([\d.]+)", captured.out).group(1)) <= 3.5

    def test_bad_order(self, capsys):
        assert run(["search", "--order", "0"]) == 2

    @pytest.mark.parametrize("flag", ["--limit", "--node-limit", "--budget"])
    def test_negative_limit_is_parameter_error(self, flag, capsys):
        for iso in ([], ["--up-to-iso"]):
            assert run(["search", "--order", "6", *iso, flag, "-1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "must be non-negative" in captured.err

    @pytest.mark.parametrize("iso", [[], ["--up-to-iso"]])
    @pytest.mark.parametrize(
        "args,message",
        [(["--order", "6", "--budget", "nan"], "time_budget must be non-negative, got nan"),
         (["--order", "65"], "order 65 is far beyond exhaustive reach")],
    )
    def test_bad_argument_exits_before_search(self, iso, args, message, capsys):
        assert run(["search", *args, *iso]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestPowers:
    def test_gap_loop_report(self, tmp_path, capsys):
        assert run(["gap-loop", "--m", "2", "--n", "3", "--out", str(tmp_path / "g.txt")]) == 0
        f = str(tmp_path / "g.txt")
        text = (tmp_path / "g.txt").read_text()
        assert "# element 4" in text
        assert parse_table(text).order == 12

        code = run(["powers", f, "--element", "4", "--max-k", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "k=5 products={5} well-defined" in out
        assert "k=6 products={3,6} ambiguous" in out
        assert "element order: undefined" in out
        assert "power-associative: no" in out

    def test_power_associative_loop(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", serialize_table(jordan_tower(2)))
        assert run(["powers", f, "--element", "3", "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "element order: 3" in out
        assert "power-associative: yes" in out

    def test_element_out_of_range(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", serialize_table(jordan_tower(2)))
        assert run(["powers", f, "--element", "7"]) == 2

    def test_requires_loop_kind(self, tmp_path, capsys):
        f = write(tmp_path, "q.txt", "order 2\nkind quasigroup\n1 0\n0 1\n")
        assert run(["powers", f, "--element", "0"]) == 2

    def test_gap_loop_bad_params(self, capsys):
        assert run(["gap-loop", "--m", "1", "--n", "3"]) == 2
        assert run(["gap-loop", "--m", "2", "--n", "4"]) == 2


class TestSimple:
    def test_simple_loop(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", serialize_table(jordan_tower(2)))
        assert run(["simple", f]) == 0
        assert "table 1: simple" in capsys.readouterr().out

    def test_composite_loop(self, tmp_path, capsys):
        from jordanloops.tables import cyclic_group

        f = write(tmp_path, "t.txt", serialize_table(cyclic_group(6)))
        assert run(["simple", f]) == 1
        out = capsys.readouterr().out
        assert out == "table 1: not simple (proper normal subloop of size 3: {0,2,4})\n"

    def test_trivial_loop(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", "order 1\nkind loop\n0\n")
        assert run(["simple", f]) == 1
        assert capsys.readouterr().out == "table 1: not simple (trivial loop)\n"


class TestIso:
    def test_isomorphic_pair(self, tmp_path, capsys):
        from jordanloops.tables import cyclic_group

        f1 = write(tmp_path, "a.txt", serialize_table(cyclic_group(5)))
        f2 = write(tmp_path, "b.txt", serialize_table(cyclic_group(5)))
        assert run(["iso", f1, f2]) == 0
        assert capsys.readouterr().out.startswith("isomorphic: 0 ")

    def test_non_isomorphic_pair(self, tmp_path, capsys):
        f1 = write(tmp_path, "a.txt", serialize_table(even_jordan(8)))
        f2 = write(tmp_path, "b.txt", serialize_table(even_jordan(6)))
        assert run(["iso", f1, f2]) == 1
        assert "orders differ" in capsys.readouterr().out

    def test_same_order_different_structure(self, tmp_path, capsys):
        from jordanloops.constructions import odd_jordan

        f1 = write(tmp_path, "a.txt", serialize_table(odd_jordan(7)))
        f2 = write(tmp_path, "b.txt", serialize_table(jordan_tower(2)))
        assert run(["iso", f1, f2]) == 1
        assert "not isomorphic" in capsys.readouterr().out


class TestTower:
    def test_depths(self, capsys):
        assert run(["tower", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert parse_table(out) == jordan_tower(2)

    def test_bad_depth(self, capsys):
        assert run(["tower", "--depth", "-1"]) == 2
        assert run(["tower", "--depth", "99"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "-p", "exponent-two"], "exponent-two is undefined on a table with no identity element"),
        (["powers", "--element", "0"], "power_profile requires a loop, got kind 'quasigroup'"),
        (["simple"], "find_proper_normal_subloop requires a loop, got kind 'quasigroup'"),
    ],
)
def test_error_names_the_table_after_earlier_reports(tmp_path, capsys, argv, message):
    f = write(tmp_path, "two.txt", serialize_table(jordan_tower(2)) + "\n"
              + "order 3\nkind quasigroup\n0 2 1\n2 1 0\n1 0 2\n")
    assert run([*argv, f]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("table 1: ")
    assert "table 2" not in captured.out
    assert captured.err == f"error: table 2: {message}\n"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = run_module("construct", "--order", "6")
        assert proc.returncode == 0
        assert parse_table(proc.stdout) == even_jordan(6)

    def test_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "construct" in proc.stdout

    @pytest.mark.parametrize(
        "probe",
        [
            ("construct", "--order", "4097"),
            ("construct", "--order", "70000"),
            ("tower", "--depth", "12"),
            ("tower", "--depth", "15"),
            ("gap-loop", "--m", "2", "--n", "1025"),
        ],
        ids=" ".join,
    )
    def test_oversize_is_parameter_error(self, probe):
        proc = run_module(*probe, preexec_fn=cap_address_space)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_parser_reused_without_leaking_arguments(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        f = write(tmp_path, "t.txt", serialize_table(even_jordan(6)))
        assert run(["verify", "-p", "latin", f]) == 0
        assert capsys.readouterr().out == "table 1: latin ok\n"
        assert run(["verify", "-p", "jordan", f]) == 0
        assert capsys.readouterr().out == "table 1: jordan ok\n"
        assert run(["search", "--order", "6", "--no-jordan"]) == 0
        assert "models=456 " in capsys.readouterr().out
        assert run(["search", "--order", "6"]) == 0
        assert "models=66 " in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2
