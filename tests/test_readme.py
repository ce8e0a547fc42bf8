"""README's Python examples run, and the values their comments show are the values they give.

Every ```python block of README.md runs in order in one namespace.  A line
`expr  # <literal>` (a comment whose text up to its first double space is a
Python literal) is checked: eval(expr) must equal the literal.  Lines with
other comments, such as rendered output or prose, are only run.
"""
import ast
import io
import pathlib
import re
import tokenize

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
