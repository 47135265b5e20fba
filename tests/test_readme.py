"""The README's examples, run as written: every command line and the library block."""

from __future__ import annotations

import ast
import io
import shlex
import tokenize
from pathlib import Path

from pvanish import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """Each "$ pvanish ..." line of README.md with the output lines shown under it."""
    examples: list[tuple[list[str], list[str]]] = []
    shown = None  # the output lines of the example being read, if any
    for line in README.read_text().splitlines():
        if line.startswith(("```", "$")):
            shown = None
            if line.startswith("$ pvanish "):
                shown = []
                examples.append((shlex.split(line)[2:], shown))
        elif shown is not None:
            shown.append(line)
    return examples


def test_readme_examples_print_what_they_show(capsys):
    # every example exits 0, and one with output lines under it prints exactly those
    examples = readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "char", "degree", "decompose", "compose", "padic", "vanishing", "verify"
    }
    for argv, shown in examples:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert not shown or out.splitlines() == shown, argv


def test_readme_library_example_values():
    # each expression of the "## Library" block against the value in its
    # comment, on the same line or on the line below
    text = README.read_text().split("## Library", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(code).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        row = node.end_lineno
        if row not in comments:
            row += 1
            assert lines[row - 1].lstrip().startswith("#"), ast.unparse(node)
        source = ast.get_source_segment(code, node)
        assert eval(source, namespace) == ast.literal_eval(comments[row]), source
        checked.append(source)
    assert len(checked) == 5
