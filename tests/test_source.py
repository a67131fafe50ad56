import ast
from pathlib import Path

import smodlab

SOURCE = Path(smodlab.__file__).resolve().parent


def _library_nodes(matches):
    """`path:line` of every syntax node under the library that `matches`."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{node.lineno}"
                  for node in ast.walk(tree) if matches(node)]
    return found


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts: invariants must raise typed errors
    found = _library_nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def _catches_everything(node) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types)


def test_no_catch_all_handlers_in_the_library():
    # a catch-all turns any bug into an ordinary verdict like "not a member"
    found = _library_nodes(_catches_everything)
    assert not found, found


def _unused_imports(tree) -> list:
    """Names an import binds that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports_in_the_library():
    # `__init__` modules import to re-export, so they are left out
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{line} {name}"
                  for line, name in _unused_imports(tree)]
    assert not found, found


def _referenced_names(tree) -> set:
    """Names and attributes the tree reads."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_dead_private_definitions_in_the_library():
    # a top-level private function or class that no library code reads is
    # dead: tests alone may not keep it alive, nor may its own body
    defined, reads = [], []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                defined.append((f"{path.relative_to(SOURCE)}:{node.lineno}",
                                node.name, len(reads)))
            reads.append(_referenced_names(node))
    found = [f"{where} {name}" for where, name, own in defined
             if not any(name in names for i, names in enumerate(reads) if i != own)]
    assert not found, found


def _builds_a_coherence_space(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CoherenceSpace")


def test_only_models_builds_coherence_spaces():
    # how a coherence relation is represented is known in one module
    found = [where for where in _library_nodes(_builds_a_coherence_space)
             if not where.startswith("models.py:")]
    assert not found, found


def _asks_the_presentation_for_coherence(node) -> bool:
    """`isinstance(…, CoherenceP)` or a read of `.presentation.space`."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        kinds = node.args[1:]
        if kinds and isinstance(kinds[0], ast.Tuple):
            kinds = kinds[0].elts
        return any(getattr(k, "id", getattr(k, "attr", None)) == "CoherenceP"
                   for k in kinds)
    return (isinstance(node, ast.Attribute) and node.attr == "space"
            and getattr(node.value, "attr", None) == "presentation")


def test_only_basedmod_and_models_read_a_coherence_presentation():
    # which coherence space a carrier is, is decided by models.coherence_of
    found = [where for where in _library_nodes(_asks_the_presentation_for_coherence)
             if not where.startswith(("basedmod.py:", "models.py:"))]
    assert not found, found


def _tests_for_a_free_presentation(node) -> bool:
    """`isinstance(…, FreeP)`."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1:]
    if kinds and isinstance(kinds[0], ast.Tuple):
        kinds = kinds[0].elts
    return any(getattr(k, "id", getattr(k, "attr", None)) == "FreeP" for k in kinds)


def test_only_basedmod_models_and_linmaps_test_for_a_free_presentation():
    # whether a free module is free on its generators is decided in linmaps
    found = [where for where in _library_nodes(_tests_for_a_free_presentation)
             if not where.startswith(("basedmod.py:", "models.py:", "linmaps.py:"))]
    assert not found, found


def _ratlp_imports(node) -> list:
    """What an import statement takes from `ratlp`: the module or its names."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[-1] == "ratlp"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if (node.module or "").split(".")[-1] == "ratlp":
        return [a.name for a in node.names]
    return [a.name for a in node.names if a.name == "ratlp"]


def test_the_frontend_solves_no_linear_program():
    # a term's type is read from its factors, never found by an LP; the
    # CLI's `dual --bound` default is the one name the frontend may take
    found = [where for where in _library_nodes(
                 lambda node: set(_ratlp_imports(node)) - {"VERTEX_BOUND"})
             if where.startswith("frontend/")]
    assert not found, found


_RE_FUNCTIONS = {"fullmatch", "match", "search", "sub", "subn", "finditer",
                 "findall", "split"}


def _compiles_a_literal_pattern(node) -> bool:
    """`re.fullmatch("…", …)` and the like: the pattern is looked up in
    re's cache on every call instead of being compiled once."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RE_FUNCTIONS
            and getattr(node.func.value, "id", None) == "re"
            and bool(node.args) and isinstance(node.args[0], (ast.Constant, ast.JoinedStr))
            and isinstance(getattr(node.args[0], "value", ""), str))


def test_library_patterns_are_compiled_once_at_module_level():
    found = _library_nodes(_compiles_a_literal_pattern)
    assert not found, found


def test_the_pattern_rule_catches_the_two_pass_loader():
    # tests/test_frontend.py keeps the loader this rule retired as an oracle
    path = Path(__file__).resolve().parent / "test_frontend.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    oracle = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_parent_")]
    found = [node.lineno for fn in oracle for node in ast.walk(fn)
             if _compiles_a_literal_pattern(node)]
    assert len(found) >= 5, found
