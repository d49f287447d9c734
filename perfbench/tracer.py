"""Span tracer that rebinds teleportsim's public functions from outside the package.

Every public function defined in a layer module is replaced by a wrapper that
records one span: (name, start, end, parent, op id, end index, info). Layers
import each other's functions with ``from .core import ...`` and
``verification.CHECKS`` holds function references, so one function has several
bindings; ``install`` rebinds every one it can find in the package's module
namespaces (including functions inside module-level lists, tuples and dicts),
and ``InputSpec.resolve``. ``uninstall`` puts the originals back. ``stray``
lists bindings that escaped either step.

Spans are appended at call start, so a span's descendants are exactly the
spans at indices (index, end index), which makes subtree counts a slice.
Nothing is recorded while no op is open.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Any, Callable, NamedTuple

LAYERS = ("core", "bell", "protocol", "adversary", "oracle", "verification", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top of an op
    op: int
    end_index: int  # one past the last descendant
    info: Any


def _qubits(args: tuple, kwargs: dict, result: Any) -> int | None:
    """Register size a core function handed back, for peak live qubits."""
    state = result[1] if isinstance(result, tuple) and len(result) == 2 else result
    labels = getattr(state, "labels", None)
    return len(labels) if isinstance(labels, tuple) and hasattr(state, "amplitudes") else None


def _core_info(fn: Callable) -> Callable:
    return _qubits


def _run_info(variant: str | None, interceptor: str | None = None, suffix: str = "") -> Callable:
    """Span info (variant key, runs executed) for a protocol run function; variant None
    means single-channel, named by its approach."""

    def factory(fn: Callable) -> Callable:
        sig = inspect.signature(fn)

        def hook(args: tuple, kwargs: dict, result: Any) -> tuple[str, int]:
            bound = sig.bind(*args, **kwargs).arguments
            key = variant or ("single-i" if bound["approach"].value == "restore" else "single-ii")
            if interceptor and bound.get(interceptor) is not None:
                key += suffix
            return key, len(result) if isinstance(result, list) else 1

        return hook

    return factory


# Span info factories by span name; each receives the original function.
_INFO: dict[str, Callable[[Callable], Callable]] = {
    "protocol.run_op_baseline": _run_info("op"),
    "protocol.run_two_channel_aqt": _run_info("dual", "message_interceptor", ".eve-qubit"),
    "protocol.run_single_channel_aqt": _run_info(None, "pair_interceptor", ".eve-pair"),
    "protocol.InputSpec.resolve": lambda fn: lambda args, kwargs, result: bool(args[0].random),
    "adversary.pair_interception_analysis": lambda fn: lambda args, kwargs, result: len(result),
}


def package_modules(package: ModuleType) -> list[ModuleType]:
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _swap(value: Any, mapping: dict, depth: int = 0) -> Any:
    """value with every function in mapping replaced; the same object if none is."""
    if isinstance(value, FunctionType):
        return mapping.get(value, value)
    if depth >= 2 or type(value) not in (list, tuple, dict):
        return value
    if type(value) is dict:
        new = {k: _swap(v, mapping, depth + 1) for k, v in value.items()}
        changed = any(new[k] is not value[k] for k in value)
    else:
        new = type(value)(_swap(v, mapping, depth + 1) for v in value)
        changed = any(a is not b for a, b in zip(new, value))
    return new if changed else value


class Tracer:
    """Records spans around every public function of the layer modules."""

    def __init__(self, package: ModuleType, only: tuple[str, ...] | None = None) -> None:
        """Wrap every public layer function, or only the span names in ``only``."""
        self.modules = package_modules(package)
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self.originals: dict[Callable, Callable] = {}  # original -> wrapper
        layer_mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for layer in LAYERS:
            mod = layer_mods[layer]
            for name, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self.originals[obj] = self._wrap(f"{layer}.{name}", obj)
        self._input_spec = layer_mods["protocol"].InputSpec
        resolve = self._input_spec.__dict__["resolve"]
        self.originals[resolve] = self._wrap("protocol.InputSpec.resolve", resolve)
        if only is not None:
            self.originals = {fn: w for fn, w in self.originals.items() if w.span_name in only}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        make_info = _INFO.get(name, _core_info if name.startswith("core.") else None)
        info = make_info(fn) if make_info else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, len(spans),
                                    info(args, kwargs, result) if info else None)

        wrapper.span_name = name
        return wrapper

    def install(self) -> None:
        mapping = self.originals
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                new = _swap(value, mapping)
                if new is value:
                    continue
                if type(value) is list:
                    old = list(value)
                    value[:] = new
                    self._undo.append(functools.partial(value.__setitem__, slice(None), old))
                else:
                    setattr(mod, attr, new)
                    self._undo.append(functools.partial(setattr, mod, attr, value))
        resolve = self._input_spec.__dict__["resolve"]
        if resolve in mapping:
            self._input_spec.resolve = mapping[resolve]
            self._undo.append(functools.partial(setattr, self._input_spec, "resolve", resolve))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def stray(self, installed: bool) -> list[str]:
        """Bindings that are not in the expected state: an unwrapped original while
        installed, or a leftover wrapper after uninstall."""
        bad = set(self.originals) if installed else set(self.originals.values())
        found = []

        def visit(where: str, value: Any, depth: int) -> None:
            if isinstance(value, FunctionType):
                if value in bad:
                    found.append(where)
            elif depth < 2 and type(value) in (list, tuple):
                for i, v in enumerate(value):
                    visit(f"{where}[{i}]", v, depth + 1)
            elif depth < 2 and type(value) is dict:
                for k, v in value.items():
                    visit(f"{where}[{k!r}]", v, depth + 1)

        for mod in self.modules:
            for attr, value in vars(mod).items():
                visit(f"{mod.__name__}.{attr}", value, 0)
        visit("InputSpec.resolve", self._input_spec.__dict__["resolve"], 0)
        return found

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

