"""Checks over the source of the sqst package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqst"


def _json_dump_calls(tree: ast.Module) -> list:
    """Lines that call json.dump, through any name the module binds it to."""
    modules, functions = {"json"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {a.asname or a.name for a in node.names if a.name == "dump"}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "dump"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
        or isinstance(node.func, ast.Name) and node.func.id in functions)]


def test_no_module_calls_the_streaming_json_encoder():
    # json.dump runs the pure-Python encoder and writes once per token; json.dumps
    # takes the C encoder, so files are written from json.dumps text
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    calls = {p.name: _json_dump_calls(ast.parse(p.read_text(), str(p))) for p in sources}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_the_json_encoder_check_sees_every_spelling():
    tree = ast.parse("import json\nimport json as j\nfrom json import dump, dump as d\n"
                     "json.dump(1, f)\nj.dump(1, f)\ndump(1, f)\nd(1, f)\n"
                     "json.dumps(1)\njson.load(f)\njson.loads('1')\n")
    assert _json_dump_calls(tree) == [4, 5, 6, 7]
