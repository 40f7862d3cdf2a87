"""Every name the benchmark's tracer wraps must exist in dispbound.

``perfbench/tracer.py`` looks each traced function, counted function and
method up with ``getattr`` when a traced run starts, so a rename or a
deletion in dispbound makes every traced benchmark run exit 1.  These tests
fail first.  They read the tracer's tables from its source text and change
nothing under ``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables() -> dict:
    namespace: dict = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


TABLES = _tracer_tables()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in TABLES["FUNCTIONS"] + TABLES["COUNTED"]],
)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module, cls, method",
    [(module, cls, method) for module, cls, method, _ in TABLES["METHODS"]],
)
def test_traced_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[method])  # the tracer reads the class dict


def test_verify_has_checks_to_trace():
    verify = importlib.import_module("dispbound.verify")
    prefix = TABLES["CHECK_PREFIX"]
    assert any(
        name.startswith(prefix) and callable(getattr(verify, name)) for name in vars(verify)
    )
