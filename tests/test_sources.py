"""Checks over the source of the sqst package itself."""

import ast
from collections import Counter
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


# what builds a numpy generator, bit generator or seed sequence
_GENERATORS = {"default_rng", "Generator", "SeedSequence", "Philox", "PCG64", "PCG64DXSM", "SFC64",
               "MT19937", "RandomState"}


def _calls(tree: ast.Module, module: str, names: set) -> list:
    """(top-level definition, line) of each call to one of names, through an attribute
    (module.X, an alias's .X) or a name imported from module under any alias."""
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == module
                for a in node.names if a.name in names}
    return [(getattr(top, "name", None), node.lineno) for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr in names
                or isinstance(node.func, ast.Name) and node.func.id in imported)]


def _generator_builds(tree: ast.Module) -> list:
    """(top-level definition, line) of each call that builds a generator."""
    return _calls(tree, "numpy.random", _GENERATORS)


def test_stream_rng_is_the_one_place_the_package_builds_a_generator():
    # one keyed stream per (seed, stream...) key is the whole determinism contract
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    builds = {(p.name, top) for p in sources
              for top, _ in _generator_builds(ast.parse(p.read_text(), str(p)))}
    assert builds == {("states.py", "stream_rng")}


def test_the_generator_check_sees_every_spelling():
    tree = ast.parse("import numpy as np\nimport numpy.random as npr\n"
                     "from numpy.random import Philox, SFC64 as S, Generator as G\n"
                     "np.random.default_rng(1)\nnpr.PCG64(1)\nPhilox(1)\nS(1)\n"
                     "def keyed(seed):\n"
                     "    return G(np.random.PCG64DXSM(np.random.SeedSequence([seed])))\n"
                     "def draw(rng: np.random.Generator):\n    return rng.random(2)\n"
                     "class Legacy:\n    rng = npr.RandomState(npr.MT19937(0))\n"
                     "np.random.random(2)\nrandom.Random(1)\n")
    assert _generator_builds(tree) == [(None, 4), (None, 5), (None, 6), (None, 7), ("keyed", 9),
                                       ("keyed", 9), ("keyed", 9), ("Legacy", 13), ("Legacy", 13)]


def _bincounts(tree: ast.Module) -> list:
    """(top-level definition, line) of each call to numpy's bincount."""
    return _calls(tree, "numpy", {"bincount"})


def test_a_record_is_counted_in_one_place():
    # every record, file or stream, is counted by measurement.counted; AliasTable.counts
    # bincounts the slots of draws that are never ordered (fig-2's trials)
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    calls = {(p.name, top) for p in sources for top, _ in _bincounts(ast.parse(p.read_text(), str(p)))}
    assert calls == {("measurement.py", "counted"), ("measurement.py", "AliasTable")}


def test_the_count_check_sees_every_spelling():
    tree = ast.parse("import numpy as np\nimport numpy\nfrom numpy import bincount as b\n"
                     "np.bincount(x)\nnumpy.bincount(x, minlength=2)\nb(x)\n"
                     "def count(x):\n    return b(x, minlength=3)\n"
                     "np.unique(x, return_counts=True)\nnp.histogram(x)\n")
    assert _bincounts(tree) == [(None, 4), (None, 5), (None, 6), ("count", 8)]


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _public_definitions(tree: ast.Module) -> list:
    """(qualified name, node) of each public top-level function or class and public method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def _named(node: ast.AST) -> Counter:
    """How often each name appears under node: as a Name, an Attribute, an import alias
    (by its last dotted part and its asname) or a string constant."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names.update({n.name.rpartition(".")[2], n.asname} - {None})
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names[n.value] += 1
    return names


def _uncalled(package: dict, others: list) -> list:
    """'module.name' of each public definition of package (module name -> tree) that is
    named nowhere but inside itself, in package or in the others' trees."""
    named = sum((_named(tree) for tree in [*package.values(), *others]), Counter())
    return sorted(f"{module}.{qualified}" for module, tree in package.items()
                  for qualified, node in _public_definitions(tree)
                  if named[node.name] == _named(node)[node.name])


def test_every_public_name_has_a_caller_outside_the_tests():
    # API that only its own unit test calls is deleted, not kept for the test
    package = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(p.read_text(), str(p)) for p in sorted(PERFBENCH.glob("*.py"))
              if not p.name.startswith("test_")]
    assert package and others
    assert _uncalled(package, others) == []


def test_the_caller_check_sees_every_spelling_and_only_callers():
    package = {
        "a": ast.parse("def used_by_name(): pass\ndef used_by_attr(): pass\n"
                       "def used_by_import(): pass\ndef used_by_string(): pass\n"
                       "def only_tested(): pass\ndef recursive(): return recursive()\n"
                       "def _private(): pass\n"
                       "class Kept:\n    def method(self): pass\n    def unused(self): pass\n"
                       "    def _hidden(self): pass\n"),
        "b": ast.parse("from .a import used_by_import as u\nimport a\n"
                       "used_by_name()\na.used_by_attr()\nKept().method()\n"),
    }
    others = [ast.parse("wrap(owner, 'used_by_string')\n")]
    tests = ast.parse("from a import only_tested\nonly_tested()\nKept().unused()\n")
    assert _uncalled(package, others) == ["a.Kept.unused", "a.only_tested", "a.recursive"]
    assert _uncalled(package, [*others, tests]) == ["a.recursive"]


def _stdout_writes(tree: ast.Module) -> list:
    """Lines outside `_emit` that print without file= or name stdout, in any spelling."""
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_emit" for n in ast.walk(node)}
    return sorted({n.lineno for n in ast.walk(tree) if id(n) not in inside and (
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "print"
        and not any(k.arg == "file" for k in n.keywords)
        or isinstance(n, ast.Attribute) and n.attr in ("stdout", "__stdout__")
        or isinstance(n, ast.Name) and n.id == "stdout"
        or isinstance(n, ast.ImportFrom) and any(a.name == "stdout" for a in n.names))})


def test_the_cli_writes_to_stdout_only_in_emit():
    # stdout holds the command's document alone, so a pipe can parse it; summaries go to stderr
    source = PACKAGE / "cli.py"
    assert _stdout_writes(ast.parse(source.read_text(), str(source))) == []


def test_the_stdout_check_sees_every_spelling():
    tree = ast.parse("import sys\nimport sys as s\nfrom sys import stdout\n"
                     "def _emit(text):\n    sys.stdout.write(text)\n    print(text)\n"
                     "def say(text):\n    print(text, file=sys.stderr)\n    print(text)\n"
                     "    sys.stdout.write(text)\n    s.stdout.flush()\n    stdout.write(text)\n"
                     "    print(text, file=sys.stdout)\n    sys.__stdout__.write(text)\n")
    assert _stdout_writes(tree) == [3, 9, 10, 11, 12, 13, 14]
