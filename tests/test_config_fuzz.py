"""Regression guard for bad map configs: replacing any one field of a valid
config with a value of the wrong kind, deleting a branch key, or replacing
a whole branch, or giving a branch a hostile formula, must end in exit
code 0 or 1 with a message, never in an exception escaping the CLI.  A
JSON boolean where a number belongs must end in exit code 1."""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pwexpand.cli import main
from test_cli_fuzz import HOSTILE_FORMULAS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_DOCS = {p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}

_BRANCH_KEYS = ("lo", "hi", "formula", "min_slope", "holder_constant")
_NUMBER_FIELDS = {"v", "epsilon", "lo", "hi", "min_slope", "holder_constant"}

_VALUES = st.one_of(
    st.text(max_size=8),
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                     10 ** 400, -(10 ** 400), 0, -1, 0.5, 2.0]),
    st.floats(),
    st.integers(),
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def _mutated_docs(draw):
    """A mutated config, and whether it sets a number field to a boolean."""
    doc = json.loads(json.dumps(_DOCS[draw(st.sampled_from(sorted(_DOCS)))]))
    value = draw(_VALUES)
    where = draw(st.sampled_from(("v", "epsilon", "branches", "branch")))
    if where == "branch":
        k = draw(st.integers(0, len(doc["branches"]) - 1))
        key = draw(st.sampled_from(_BRANCH_KEYS))
        change = draw(st.sampled_from(("set", "delete", "replace")))
        if change == "set":
            doc["branches"][k][key] = value
            where = key
        elif change == "delete":
            doc["branches"][k].pop(key, None)
        else:
            doc["branches"][k] = value
    else:
        doc[where] = value
    return doc, isinstance(value, bool) and where in _NUMBER_FIELDS


def _check_exits_cleanly(doc, allowed=(0, 1)):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "map.json"
        cfg.write_text(json.dumps(doc))
        assert main(["check-slope", str(cfg), "--p", "1"]) in allowed
        assert main(["density", str(cfg), "--bins", "16", "--no-plot",
                     "--out", str(Path(tmp) / "d.csv")]) in allowed


@settings(max_examples=300, deadline=None)
@given(mutated=_mutated_docs())
def test_bad_config_field_never_escapes(mutated):
    doc, boolean_number = mutated
    _check_exits_cleanly(doc, (1,) if boolean_number else (0, 1))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_DOCS)), branch=st.integers(0, 1),
       formula=st.sampled_from(HOSTILE_FORMULAS))
def test_hostile_branch_formula_never_escapes(name, branch, formula):
    doc = json.loads(json.dumps(_DOCS[name]))
    doc["branches"][branch]["formula"] = formula
    _check_exits_cleanly(doc)
