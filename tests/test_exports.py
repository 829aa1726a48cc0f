"""Import surface: every exported name resolves, the package re-exports
only names its modules list in __all__, and the functions the benchmark
looks up by name exist."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import csdetect

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(csdetect.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"csdetect.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_package_reexports_are_public_names():
    tree = ast.parse(Path(csdetect.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"csdetect.{module_name}")
        assert attr in module.__all__, f"{module_name}.{attr}"
        assert getattr(csdetect, attr) is getattr(module, attr)


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps these functions by name, and perfbench/run.py
    # times pipeline.decode_signal: a rename here breaks the traced benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {(module, attr) for module, attr, _, _ in tracing.TARGETS}
    assert names
    for module_name, attr in sorted(names | {("pipeline", "decode_signal")}):
        module = importlib.import_module(f"csdetect.{module_name}")
        assert callable(getattr(module, attr, None)), f"csdetect.{module_name}.{attr}"
