"""Print the three size figures of ``src/cbic``: lines, settable values, CLI options.

Usage::

    python scripts/size.py [--src DIR]

``DIR`` (default: this checkout's ``src``) holds the ``cbic`` package.

- lines: newline count over ``cbic/*.py``, as ``wc -l`` gives it;
- settable values: defaulted parameters of every ``def`` (positional and
  keyword-only; lambdas are left out) plus defaulted fields of every
  ``@dataclass`` class, found with ``ast``;
- CLI options: the options of every subcommand of ``cbic``'s parser,
  ``--help`` left out.

Nothing is run but the parser's construction.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
            )
    return count


def cli_options(src: str) -> int:
    sys.path.insert(0, src)
    from cbic import cli

    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sum(
        1
        for sp in sub.choices.values()
        for a in sp._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    src = os.path.abspath(ap.parse_args().src)
    lines = settable = 0
    for path in sorted(glob.glob(os.path.join(src, "cbic", "*.py"))):
        with open(path) as fh:
            text = fh.read()
        lines += text.count("\n")
        settable += settable_values(ast.parse(text, path))
    print(f"lines {lines}")
    print(f"settable values {settable}")
    print(f"CLI options {cli_options(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
