"""The package's exception types: one per caller that catches it."""

import importlib
import pkgutil

import pwexpand
from pwexpand.errors import ToolError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_tool_error_subclass_has_a_catching_caller():
    for info in pkgutil.iter_modules(pwexpand.__path__):
        importlib.import_module(f"pwexpand.{info.name}")
    found = {cls.__name__ for cls in _subclasses(ToolError)
             if cls.__module__.startswith("pwexpand.")}
    assert found == {"ConfigError", "ParseError", "EvalError",
                     "NoRateError"}, (
        "a new ToolError subclass needs a caller that catches it by type; "
        "otherwise raise ToolError (or ConfigError for bad input) with a "
        "message that tells the failures apart")
