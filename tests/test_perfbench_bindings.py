"""The benchmark's tracer finds every function it measures.

perfbench/layers.py and perfbench/tracer.py name teleportsim functions by
string; the tracer only wraps public functions defined in a layer module, and
a name that no longer resolves silently reads 0 under ``--trace 1``. These
tests import both modules read-only and fail instead when a traced name is
deleted, renamed or made private, or when a run function loses a parameter
the tracer binds by name.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path
from types import FunctionType

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import layers, tracer  # noqa: E402
from teleportsim import protocol  # noqa: E402

# Per-layer metrics named after one function: "<layer>.<function>.<unit>".
_FUNCTION_METRIC = re.compile(r"^(bell|adversary|oracle)\.([a-z_]+)\.(us|us_per_run|calls_per_run)$")


def _metric_functions():
    names = set()
    for metric, _ in layers.metric_names():
        match = _FUNCTION_METRIC.match(metric)
        if match:
            names.add(f"{match[1]}.{match[2]}")
    return names


def _traced_names():
    names = {f"core.{fn}" for fn in layers.CORE_FNS}
    names |= set(layers.QND_CHILDREN) | set(layers.RUN_FUNCTIONS) | set(layers.MAIN_WORK)
    names |= {"bell.qnd_bell_measure"} | _metric_functions() | set(tracer._INFO)
    return sorted(names)


def _resolve(name):
    layer, *path = name.split(".")
    assert layer in tracer.LAYERS, f"{name}: {layer} is not a traced layer"
    module = importlib.import_module(f"teleportsim.{layer}")
    if len(path) == 2:  # a method, as the tracer takes it: Class.__dict__[name]
        cls = getattr(module, path[0])
        return module, cls.__dict__[path[1]]
    return module, getattr(module, path[0])


def test_function_metrics_are_found():
    # The pattern must keep matching what layers.py reports, or the next test checks nothing.
    assert {"bell.apply_qnd_circuit", "adversary.trace_distance", "oracle.dual_run"} <= _metric_functions()


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_is_a_public_layer_function(name):
    module, fn = _resolve(name)
    assert isinstance(fn, FunctionType), f"{name} is not a plain function"
    assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


@pytest.mark.parametrize(
    "name, params",
    [
        ("run_single_channel_aqt", {"approach", "pair_interceptor"}),
        ("run_two_channel_aqt", {"message_interceptor"}),
        ("run_op_baseline", set()),
    ],
)
def test_run_functions_keep_the_parameters_the_tracer_binds(name, params):
    assert params <= set(inspect.signature(getattr(protocol, name)).parameters)
