"""The README's examples, run as written.

Every ``chebconvex ...`` line of the CLI block goes through ``cli.main``
and must exit 0, or 2 where its comment says ``exit 2``. The Library
snippet runs as one script, and each bare expression with a value in its
comment must evaluate to that value.
"""

import ast
import io
import pathlib
import re
import shlex

import pytest

from chebconvex.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def cli_examples():
    for line in fenced_block("CLI", "sh").splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("chebconvex "):
            yield pytest.param(shlex.split(command)[1:], 2 if "exit 2" in comment else 0,
                               id=command.strip())


@pytest.mark.parametrize("argv, code", list(cli_examples()))
def test_cli_example_exits_as_documented(argv, code):
    assert main(argv, stream=io.StringIO()) == code


def test_cli_block_has_every_command():
    commands = {argv[0] for argv, _ in (p.values for p in cli_examples())}
    assert commands == {"classify", "dd", "certify", "support", "reproduce-paper-example"}


def shown_value(comment: str):
    """The literal a comment starts with: a parenthesized tuple or one token."""
    return ast.literal_eval(re.match(r"\(.*?\)|[^,\s]+", comment.strip()).group(0))


def test_library_snippet_shows_its_values():
    source = fenced_block("Library", "python")
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        code = ast.Module([stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        want = shown_value(comment)
        assert value == want
        shown.append(want)
    assert shown == [3.0, (0.0, -1.0, 2.0), True]
