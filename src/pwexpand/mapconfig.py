"""Map-config JSON documents: the user-facing description of a map.

Schema (version 1)::

    {
      "v": 1,
      "epsilon": 1.0,
      "branches": [
        {"lo": 0.0, "hi": 0.5, "formula": "2*x",
         "min_slope": 2.0, "holder_constant": 0.0},
        ...
      ]
    }

`min_slope` and `holder_constant` are optional; when absent they are
estimated by sampling at construction time.  This module checks the
document (`v`, `epsilon`, a non-empty `branches` list); `make_map` checks
each branch.
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .maps import PiecewiseMap, make_map

SCHEMA_VERSION = 1


def map_from_config(doc) -> PiecewiseMap:
    if not isinstance(doc, dict):
        raise ConfigError("map config must be a JSON object")
    version = doc.get("v")
    # True == 1 in Python, but a JSON true is not a version number
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported map-config version {version!r} "
            f"(expected {SCHEMA_VERSION})")
    if "epsilon" not in doc:
        raise ConfigError("map config is missing 'epsilon'")
    branches = doc.get("branches")
    if not isinstance(branches, list) or not branches:
        raise ConfigError("map config needs a non-empty 'branches' list")
    return make_map(branches, epsilon=doc["epsilon"])


def map_to_config(pmap: PiecewiseMap) -> dict:
    """Config document reproducing the map exactly, with the effective
    slope and Hölder constants pinned so a reload does not re-estimate."""
    return {
        "v": SCHEMA_VERSION,
        "epsilon": pmap.holder_exponent,
        "branches": [
            {
                "lo": br.domain.lo,
                "hi": br.domain.hi,
                "formula": br.formula,
                "min_slope": br.min_slope,
                "holder_constant": br.holder_constant,
            }
            for br in pmap.branches
        ],
    }


def load_map(path) -> PiecewiseMap:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read map config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"map config {path} is not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"map config {path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError(f"map config {path} nests too deeply to read") from err
    return map_from_config(doc)


def dump_map_config(pmap: PiecewiseMap) -> str:
    return json.dumps(map_to_config(pmap), indent=2) + "\n"
