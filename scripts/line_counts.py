#!/usr/bin/env python3
"""Lines of each top-level function and class of `flmgof`, per source tree.

For every module of the package, counts the lines of each top-level function
and class, decorators included, and of each method of those classes (named
`Class.method`), then prints the module totals (all lines of the file) of
every tree side by side and the definitions that changed: those whose source
differs between the trees or that only some trees have. With one tree it
prints every definition. Each `--src [LABEL=]DIR` names a package source
tree, the directory that holds `flmgof/` (default: this checkout's `src`):

    python3 scripts/line_counts.py --src before=../old/src --src after=src
"""

import argparse
import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def definitions(path):
    """({name: (lines, source)} of the module at `path`, its line count)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()

    def entry(node):
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        return node.end_lineno - first + 1, "\n".join(lines[first - 1 : node.end_lineno])

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {}
    for node in ast.parse(text).body:
        if isinstance(node, kinds):
            found[node.name] = entry(node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]):
                    found[f"{node.name}.{member.name}"] = entry(member)
    return found, len(lines)


def tree_counts(src):
    """{module: ({name: (lines, source)}, module lines)} of one tree."""
    package = os.path.join(src, "flmgof")
    return {name: definitions(os.path.join(package, name))
            for name in sorted(os.listdir(package)) if name.endswith(".py")}


def table(rows, labels):
    width = max(len(row[0]) for row in rows)
    return "\n".join(f"{name:<{width}}" + "".join(f" {value:>8}" for value in values)
                     for name, *values in [("", *labels), *rows])


def report(trees):
    """The printed report for {label: tree_counts(...)}."""
    labels = list(trees)
    modules = sorted({module for counts in trees.values() for module in counts})

    def cell(label, module, name=None):
        counts = trees[label].get(module)
        if counts is None:
            return "-"
        if name is None:
            return counts[1]
        return counts[0][name][0] if name in counts[0] else "-"

    totals = [(module, *(cell(label, module) for label in labels)) for module in modules]
    totals.append(("total", *(sum(lines for _, lines in trees[label].values())
                              for label in labels)))
    changed = []
    for module in modules:
        names = {}  # every tree's names, the last tree's first, in file order
        for label in reversed(labels):
            names.update(dict.fromkeys(trees[label].get(module, ({}, 0))[0]))
        for name in names:
            sources = {trees[label].get(module, ({}, 0))[0].get(name, (0, None))[1]
                       for label in labels}
            if len(labels) == 1 or len(sources) > 1:
                row = (f"{module[:-3]}.{name}", *(cell(label, module, name) for label in labels))
                changed.append(row)
    heading = "definitions" if len(labels) == 1 else "changed definitions"
    parts = ["module lines", table(totals, labels)]
    if changed:
        parts += ["", heading, table(changed, labels)]
    return "\n".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="[LABEL=]DIR of a package tree")
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.src or [os.path.join(REPO, "src")]:
        label, _, src = spec.rpartition("=")
        trees[label or src] = tree_counts(os.path.abspath(src))
    print(report(trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
