"""The structured and columns renderers against the encoders they replace:
``json.dumps(..., sort_keys=True, indent=2)`` and one f-string per row."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import cli
from chebconvex.cli import emit_columns, render_structured


def reference_structured(doc):
    payload = {k: v for k, v in doc.items() if not k.startswith("_")}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_columns(rows):
    lines = ["x f omega diff segment"]
    for x, fx, ox, diff, seg in rows:
        lines.append(f"{x!r} {fx!r} {ox!r} {diff!r} {seg}")
    return "\n".join(lines) + "\n"


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS
           | st.text(max_size=8) | st.sampled_from(["été", "∂f", "\U0001d4b3", "a\"b\\c\n"]))


@st.composite
def float_rows(draw, depth=2):
    """Nonempty equal-length rows of finite floats, to ``depth`` levels, with
    now and then a non-finite float, an int or a bool among them, or one
    row of another length."""
    shape = [draw(st.integers(1, 4)) for _ in range(depth)]

    def build(level):
        if level == depth:
            return draw(FINITE)
        return [build(level + 1) for _ in range(shape[level])]

    rows = build(0)
    spoil = draw(st.sampled_from(["none", "none", "nonfinite", "int", "bool", "ragged",
                                  "tuple", "empty"]))
    leaf = rows
    while isinstance(leaf[0], list):
        leaf = leaf[-1]
    if spoil == "nonfinite":
        leaf[-1] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif spoil == "int":
        leaf[-1] = draw(st.integers())
    elif spoil == "bool":
        leaf[-1] = draw(st.booleans())
    elif spoil == "ragged" and depth > 1:
        rows[-1] = rows[-1] + rows[-1][:1]
    elif spoil == "tuple" and depth > 1:
        rows[0] = tuple(rows[0])
    elif spoil == "empty" and depth > 1:
        rows[-1] = []
    return rows


DOCUMENTS = st.recursive(
    SCALARS | st.lists(FLOATS, max_size=6) | float_rows(1) | float_rows(2) | float_rows(3),
    lambda children: (st.lists(children, max_size=4)
                      | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=20)


class TestStructuredRenderer:
    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), DOCUMENTS, max_size=5))
    def test_equals_json_dumps(self, doc):
        assert render_structured(doc) == reference_structured(doc)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], [[], []], [{}], [1.5, True], [1.5, None], [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], (3.0, 4.0)], [-0.0, 0.0, 1e-300, 1e300, 5e-324],
        [[math.nan, 1.0], [2.0, 3.0]], [[[1.0, 2.0]], [[3.0, 4.0]]], [[1.0, 2.0], [3.0, "x"]],
        ["é", "\U0001f600", "\x00"], {"b": 1, "a": [2.0, 3.0], "é": None},
        {"nested": {"z": [[0.5, -0.25]], "y": {}}}, (1.0, 2.0),
    ])
    def test_edge_documents(self, value):
        doc = {"value": value, "_hidden": [1.0]}
        assert render_structured(doc) == reference_structured(doc)

    def test_non_string_keys_inside_go_to_json(self):
        doc = {"counts": {2: [0.5], 1: "x"}, "rates": {2.5: True, 0.5: []}}
        assert render_structured(doc) == reference_structured(doc)


COMMANDS = [
    ("classify", "--system", "poly:3", "--grid", "-1:1:30"),
    ("classify", "--system", "cossin", "--grid", "0.1:3:40"),
    ("dd", "--system", "poly:4", "--f", "monomial:5", "--points", "-1.5,-0.2,1.1,2.4",
     "--classical"),
    ("certify", "--method", "theoremA", "--system", "poly:3", "--f", "negmonomial:3",
     "--grid", "-1:1:20"),
    ("certify", "--method", "corollary1", "--system", "poly:3", "--f", "monomial:3",
     "--grid", "-1:1:20"),
    ("certify", "--method", "theorem2", "--system", "poly:3", "--f", "negmonomial:3",
     "--knots", "0,1", "--grid", "-2:3:300"),
    ("certify", "--method", "definition", "--system", "poly:3", "--f", "monomial:3",
     "--nodes", "-1,0,1", "--grid", "-2:3:300"),
    ("support", "--system", "poly:3", "--f", "negmonomial:3", "--knots", "0,1",
     "--grid", "-2:3:300"),
    ("support", "--system", "poly:2", "--f", "exp:1", "--knots", "0", "--interval", "-1:1",
     "--grid", "-1:1:200"),
    ("reproduce-paper-example",),
]


def rendered_document(monkeypatch, argv):
    """The document that ``main`` renders for ``argv``, and its output."""
    docs = []
    render = cli.render_structured
    monkeypatch.setattr(cli, "render_structured", lambda doc: docs.append(doc) or render(doc))
    stream = io.StringIO()
    cli.main([*argv, "--format", "structured"], stream)
    (doc,) = docs
    return doc, stream.getvalue()


class TestCommandDocuments:
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:3]))
    def test_every_command_renders_as_json_dumps(self, monkeypatch, argv):
        doc, text = rendered_document(monkeypatch, argv)
        assert text == reference_structured(doc)

    def test_theorem2_violations_are_rendered(self, monkeypatch):
        doc, text = rendered_document(monkeypatch, COMMANDS[5])
        assert doc["monotonicity"]["violations"]
        assert json.loads(text)["monotonicity"]["violations"] == [
            [list(a), list(b)] for a, b in doc["monotonicity"]["violations"]]


class TestColumns:
    @pytest.mark.parametrize("argv", [
        ("support", "--system", "poly:3", "--f", "monomial:3", "--knots", "0.05,1.05",
         "--grid", "-2:3:100"),
        ("reproduce-paper-example",),
    ])
    def test_rows_render_as_the_f_strings(self, argv):
        config = cli.parse_config([*argv, "--format", "columns"])
        doc, _ = cli._RUNNERS[config.command](config)
        rows = doc["_columns"]
        assert all(type(row) is tuple and len(row) == 5 for row in rows)
        assert emit_columns(doc) == reference_columns(rows)
        # The segment is 1 + the number of knots left of x.
        knots = doc["support"]["knots"]
        assert [row[4] for row in rows] == [1 + sum(x > k for k in knots)
                                            for x, *_ in rows]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(FLOATS, FLOATS | st.integers(), FLOATS, FLOATS,
                              st.integers(1, 5)), max_size=8))
    def test_any_rows(self, rows):
        assert emit_columns({"_columns": rows}) == reference_columns(rows)
        lists = [list(row) for row in rows]
        assert emit_columns({"_columns": lists}) == reference_columns(lists)
