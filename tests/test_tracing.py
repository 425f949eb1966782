"""The benchmark tracer's names keep resolving in the package.

``bench/tracing.py`` wraps the functions named in its ``LAYERS`` by
rebinding module attributes; a refactor that renames one of them, or stops
calling it through its module, would only show in a benchmark run.  These
tests read ``LAYERS`` from the file as it is.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from jordanloops.constructions import construct
from jordanloops.structure import find_proper_normal_subloop

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_names_are_callables_of_their_modules():
    tracing = _tracing()
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_install_then_restore_leaves_every_attribute():
    tracing = _tracing()
    package = tracing.PACKAGE
    for layer in tracing.LAYERS:
        importlib.import_module(f"{package}.{layer}")
    modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
    before = {m: dict(vars(m)) for m in modules}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for layer, names in tracing.LAYERS.items():
            home = sys.modules[f"{package}.{layer}"]
            for name in names:
                assert getattr(home, name) is not before[home][name], f"{layer}.{name}"
        # the simplicity check calls normal_closure through its module, so
        # its closures are seen as spans
        find_proper_normal_subloop(construct(7))
        assert "structure.normal_closure" in {span[0] for span in tracer.take()}
    finally:
        tracer.restore()
    for module, attrs in before.items():
        now = vars(module)
        assert now.keys() == attrs.keys(), module.__name__
        assert all(now[k] is v for k, v in attrs.items()), module.__name__
