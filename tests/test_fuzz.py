"""Drawn input for the family and policy loaders and for the value grammar.

Each run of the command line must exit 0, or exit 1 with nothing on
stdout and exactly one stderr line that starts with ``error:``.  The
mutations start from valid files, so that most draws get past the JSON
parser and reach the field checks, the value grammar and the solver.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from secretary_lab import ConstructionParams, build_hard_family, solve_optimal
from secretary_lab.cli import run_command
from secretary_lab.instances import family_to_dict

FAMILY = build_hard_family(ConstructionParams(mix_eps=Fraction(1, 10), s=Fraction(5), k=4))
FAMILY_FILE = family_to_dict(FAMILY)
POLICY_FILE = solve_optimal(FAMILY, constrained=True).policy.to_dict()

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Text that often lands inside the value grammar ("p", "p/q", "s^e", with
# any Unicode digits and spacing), and text that need not.
VALUE_TEXT = st.text(max_size=20) | st.from_regex(
    r"\A\s?(s\^-?\d{1,4}|-?\d{1,24}(/-?\d{0,24})?)\s?\Z"
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | VALUE_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# State keys built from the pieces of "(i:v),(i:v)|current=(i:v)".
KEY_TEXT = st.text(max_size=30) | st.lists(
    st.sampled_from(
        ["(", ")", ":", ",", "|current=", "|", "0", "1", "2", "3", "5", "25", "-", "/", "s^2"]
    ),
    max_size=12,
).map("".join)
ACTION_TEXT = st.sampled_from(["accept", "reject", "Accept", " reject", ""]) | st.text(
    max_size=10
)


def _paths(node, path=()):
    """The path of every field and list item below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def mutated(draw, document, keys=st.text(max_size=12), values=JSON_VALUES):
    """``document`` with one field or list item dropped, replaced by a
    drawn value or renamed, or with one drawn field added to an object."""
    document = copy.deepcopy(document)
    kind = draw(st.sampled_from(("drop", "replace", "rename", "add")))
    if kind == "add":
        objects = [()] + [p for p in _paths(document) if isinstance(_at(document, p), dict)]
        _at(document, draw(st.sampled_from(objects)))[draw(keys)] = draw(values)
        return document
    paths = list(_paths(document))
    if kind == "rename":
        paths = [p for p in paths if isinstance(_at(document, p[:-1]), dict)]
    path = draw(st.sampled_from(paths))
    parent = _at(document, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "replace":
        parent[path[-1]] = draw(values)
    else:
        parent[draw(keys)] = parent.pop(path[-1])
    return document


def assert_clean_exit(argv):
    """Run ``argv``; exit 0, or exit 1 with one ``error:`` line only."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:"), lines


@FUZZ
@given(family=mutated(FAMILY_FILE))
def test_mutated_family_file(tmp_path, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family), encoding="utf-8")
    assert_clean_exit(["solve", "--family", str(path)])


@FUZZ
@given(policy=mutated(POLICY_FILE, keys=KEY_TEXT, values=JSON_VALUES | ACTION_TEXT))
def test_mutated_policy_file(tmp_path, policy):
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(FAMILY_FILE), encoding="utf-8")
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy), encoding="utf-8")
    assert_clean_exit(["eval", "--family", str(family_path), "--alg", f"policy:{path}"])


@FUZZ
@given(text=VALUE_TEXT)
def test_drawn_value_text(text):
    # The "=" form keeps text that starts with "-" from reading as a flag.
    assert_clean_exit(["bounds", f"--eps={text}", "--s", "5", "--k", "4"])
