"""README's Python examples run, and the values their comments show are the values they give;
its shell examples print what they show.

Every ```python block of README.md runs in order in one namespace.  A line
`expr  # <literal>` (a comment whose text up to its first double space is a
Python literal) is checked: eval(expr) must equal the literal.  Lines with
other comments, such as rendered output or prose, are only run.  Every
`$ plactic-lab ...` line runs through cli.main, in process.
"""
import ast
import io
import pathlib
import re
import shlex
import tokenize

from plactic_lab import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _expected(comment: str):
    """The literal a comment starts with, in a one-tuple; None when it starts with none."""
    text = comment.lstrip("#").strip().split("  ")[0]
    try:
        return (ast.literal_eval(text),)
    except (ValueError, SyntaxError):
        return None


def test_readme_examples_run_and_show_their_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 5
    namespace, checked = {}, []
    for block in blocks:
        comments = {tok.start[0]: tok.string
                    for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                    if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            expected = None
            if (isinstance(stmt, ast.Expr) and stmt.lineno == stmt.end_lineno
                    and stmt.lineno in comments):
                expected = _expected(comments[stmt.lineno])
            if expected is None:
                exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
            assert value == expected[0], ast.get_source_segment(block, stmt)
            checked.append(ast.get_source_segment(block, stmt))
    assert len(checked) == 8, checked


def test_readme_shell_examples_print_the_lines_they_show(capsys):
    # one block of `$ plactic-lab ...` lines, each followed by its output up to a blank line
    blocks = re.findall(r"^```\n(\$ plactic-lab .*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    examples = re.findall(r"^\$ plactic-lab (.*)\n((?:.+\n)*)", blocks[0], re.M)
    assert len(examples) == 10
    for command, shown in examples:
        assert cli.main(shlex.split(command)) in (0, 1), command
        out, expected = capsys.readouterr().out.splitlines(), shown.splitlines()
        assert len(out) == len(expected), command
        for line, want in zip(out, expected):
            # a line elided with "..." shows the start and the end of the output line
            head, dots, tail = want.partition("...")
            assert (line.startswith(head) and line.endswith(tail) and len(line) > len(want) - 3
                    if dots else line == want), command
