from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "minpair").glob("*.py"))


def test_source_lines_fit_in_100_columns():
    assert SOURCES
    long = [
        f"{path.name}:{i}"
        for path in SOURCES
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in used]
    assert unused == []


def test_only_suites_reads_json():
    """`suites.load_json` is the one JSON reader: no other module reads JSON
    with `json.load` or `json.loads`, by attribute or by import."""
    readers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if {"json.load", "json.loads"} & set(names):
                readers.append(f"{path.name}:{node.lineno}")
    assert [reader.split(":")[0] for reader in readers] == ["suites.py"]


def test_the_math_layer_imports_only_the_math_layer():
    """`operators` and `graphs` import from no minpair module but `arith` and
    `graphs`: the config layer (`suites`) and its errors stay out of them."""
    reached = []
    for path in SOURCES:
        if path.stem not in ("operators", "graphs"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):  # each imported name, as minpair.<module>.<name>
                package = ".".join(filter(None, ("minpair" if node.level else "", node.module)))
                names = [f"{package}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            modules = [name.split(".")[:2] for name in names]
            reached += [
                f"{path.name}:{node.lineno}: {'.'.join(module)}"
                for module in modules
                if module[0] == "minpair" and module[1:] not in (["arith"], ["graphs"])
            ]
    assert reached == []
