"""Count the lines of each module of a package, two ways.

For each `*.py` file under the directory given (default `src/pakit`)
and for their total, print the line count `wc -l` gives and the count
of code lines: lines that hold a token other than a comment, where no
token is part of a docstring.  Tokens come from `tokenize`, so a string
or bracket over several lines counts each line it spans; docstrings
(the first statement of a module, class or function, if it is a string
literal) come from `ast`.

    python3 tools/count_lines.py [directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set:
    """The line numbers of every docstring in `source`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of `source` that hold a token of code: not blank, not only a comment, not a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def counts(directory: Path) -> list:
    """(name, wc -l lines, code lines) for each module under `directory`, by path, then the total."""
    rows = []
    for path in sorted(directory.rglob("*.py")):
        source = path.read_text()
        rows.append((str(path.relative_to(directory)), source.count("\n"), code_lines(source)))
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    return rows


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    directory = Path(args[0] if args else "src/pakit")
    print("%-24s %8s %8s" % ("module", "wc -l", "code"))
    for name, physical, code in counts(directory):
        print("%-24s %8d %8d" % (name, physical, code))


if __name__ == "__main__":
    main()
