"""The README's Python examples run, and each expression statement with a
trailing comment evaluates to what the comment says: its repr, or the name
of the exception it raises, optionally followed by a ": note"."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def comments(source: str) -> dict[int, str]:
    """Line number -> the text of the comment ending that line."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def shows(comment: str, text: str) -> bool:
    return comment == text or comment.startswith(text + ":")


def test_readme_examples_print_their_comments():
    blocks = python_blocks()
    assert len(blocks) == 4
    namespace: dict = {}  # the blocks run in order, as one session
    for block in blocks:
        notes = comments(block)
        checked = 0
        for stmt in ast.parse(block).body:
            comment = notes.get(stmt.end_lineno)
            if not (isinstance(stmt, ast.Expr) and comment):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            source = ast.get_source_segment(block, stmt)
            try:
                got = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                                namespace))
            except Exception as exc:  # the comment may name the exception
                got = type(exc).__name__
            assert shows(comment, got), f"{source}: comment {comment!r}, got {got}"
            checked += 1
        assert checked, block
