"""The benchmark's tracer wraps rbdsdep functions by name; these checks
fail when a rename in ``src/`` leaves one of its targets behind."""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", REPO / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for mod_name, *_ in module.TARGETS:
        importlib.import_module(mod_name)
    return module


def test_every_target_is_a_callable_in_src(tracer):
    src = REPO / "src"
    for mod_name, attr, *_ in tracer.TARGETS:
        home = importlib.import_module(mod_name)
        assert Path(home.__file__).resolve().is_relative_to(src), mod_name
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name)
            assert owner.__module__ == mod_name, attr
            target = vars(owner).get(meth)
        else:
            target = getattr(home, attr, None)
        assert callable(target), f"{mod_name}.{attr}"


def test_install_then_uninstall_restores_every_binding(tracer):
    before = tracer.callable_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = tracer.callable_bindings()
    finally:
        t.uninstall()
    assert tracer.callable_bindings() == before
    changed = {key for key in before if during.get(key) != before[key]}
    assert len(changed) >= len(tracer.TARGETS)
