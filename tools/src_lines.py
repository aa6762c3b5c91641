"""Physical and code lines of each Python file under a source tree.

    python3 tools/src_lines.py [--src DIR]

A code line is a line that holds a token other than a comment, a newline
or indentation, outside module, class and function docstrings; a token
that spans lines (a multi-line string) holds each of them. Prints one row
per file under DIR (default: the repository's `src/`), in path order, then
the totals.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tokens that hold no code
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(physical lines, code lines) of Python source `text`."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree to count")
    args = parser.parse_args(argv)
    src = Path(args.src)
    if not src.is_dir():
        parser.error(f"no directory {src}")
    total_physical = total_code = 0
    print(f"{'file':<40} {'lines':>7} {'code':>7}")
    for path in sorted(src.rglob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{str(path.relative_to(src)):<40} {physical:>7,} {code:>7,}")
    print(f"{'total':<40} {total_physical:>7,} {total_code:>7,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
