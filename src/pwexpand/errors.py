"""Shared exception types.

Every error raised deliberately by this package is a ToolError, and the
CLI maps any ToolError to ``error: <message>`` and exit code 1 (usage
errors are 2).  A subclass exists only where a caller catches it by type:

- `ToolError`: a computation failed; `cli.main` catches it.
- `ConfigError`: bad input (a map config, an option out of range); no
  code in the package catches it, but library callers can, through the
  public `pwexpand.ConfigError`, and the tests' `pytest.raises` do.
- `expr.ParseError`: a syntax error, with its `.offset`; `maps.make_map`
  catches it to name the branch.
- `expr.EvalError`: a domain violation while evaluating; `maps.make_map`
  catches it to name the branch formula.
"""


class ToolError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolError):
    """Malformed map-config document or invalid run configuration."""
