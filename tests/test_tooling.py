"""Source-level checks on the package itself."""

import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

import dimgroup


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    """Every invariant check must survive ``python -O``, which strips
    ``assert``, and must raise the typed ``InvariantViolated`` that the CLI
    maps to an exit code, not a bare ``AssertionError``."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or _raises_assertion_error(node)]
    assert found == []


def test_src_imports_only_stdlib():
    """The package runs on the standard library alone."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and name.split(".")[0] != "dimgroup"]
    assert found == []


def _calls(node, name: str) -> list:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == name]


def test_cli_maps_errors_to_exit_codes_only_in_main():
    """``main`` holds the one table from error to exit code.  A ``cmd_*``
    function that catches an error to print it, or an error payload built
    outside ``main``, would bring back a per-command copy of that table."""
    path = Path(dimgroup.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    emitting = [f"{name}:{handler.lineno}"
                for name, func in funcs.items() if name.startswith("cmd_")
                for handler in ast.walk(func)
                if isinstance(handler, ast.ExceptHandler)
                and _calls(handler, "_emit")]
    assert emitting == []
    assert len(_calls(tree, "_error_payload")) \
        == len(_calls(funcs["main"], "_error_payload")) == 1


def test_no_unused_locals():
    """A name bound inside a function and never read there (its nested
    functions included) is dead code.  Names that start with ``_`` are
    deliberately unused and exempt."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for node in ast.walk(func)
                     if isinstance(node, ast.Name)]
            read = {node.id for node in names
                    if not isinstance(node.ctx, ast.Store)}
            found += sorted({f"{path.name}:{func.name} {node.id}"
                             for node in names
                             if isinstance(node.ctx, ast.Store)
                             and not node.id.startswith("_")
                             and node.id not in read})
    assert found == []


def test_json_is_written_only_through_the_c_encoder():
    """``json.dump`` and any ``indent=`` make the json module fall back to
    its pure-Python encoder; ``realization.dump_json`` lays out its text
    around ``json.dumps`` calls without indent instead."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "dump"
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "json"):
                found.append(f"{path.name}:{call.lineno} json.dump")
            found += [f"{path.name}:{call.lineno} indent="
                      for kw in call.keywords if kw.arg == "indent"]
    assert found == []


_LOG_METHODS = {"debug", "info", "warning", "warn", "error", "exception",
                "critical", "log"}


def _logging_calls(tree) -> list:
    """Calls of a logging method on ``logging`` or on a module-level name
    bound to ``logging.getLogger(...)``."""
    loggers = {"logging"}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "getLogger"):
            loggers |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return [call for call in ast.walk(tree) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _LOG_METHODS
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in loggers]


def test_log_messages_are_constant_format_strings():
    """A log message is a string constant with lazy ``%`` arguments, so a
    record that no handler takes costs no formatting; an f-string, a
    ``%``-formatted or concatenated message would be built on every call."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call in _logging_calls(tree):
            args = call.args[1:] if call.func.attr == "log" else call.args
            if not (args and isinstance(args[0], ast.Constant)
                    and isinstance(args[0].value, str)):
                found.append(f"{path.name}:{call.lineno}")
    assert found == []


def test_logging_call_finder_sees_the_package_loggers():
    tree = ast.parse('import logging\n_log = logging.getLogger(__name__)\n'
                     '_log.info(f"{x}")\nlogging.log(10, "%s", x)\n'
                     'other.info(x)\n')
    assert [call.lineno for call in _logging_calls(tree)] == [3, 4]
    ecs = Path(dimgroup.__file__).parent / "ecs.py"
    assert _logging_calls(ast.parse(ecs.read_text()))


def _is_call_to(node, name: str) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def _own_nodes(func) -> list:
    """The nodes of a function's body, those of nested functions left out."""
    nodes, todo = [], list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return nodes


def _eliminations(tree) -> list[tuple[int, bool]]:
    """(line, whether its rows come from _integer_rows) for each call of
    _eliminate.  They do when the call's one argument is a local name that
    its function binds only as the first target of
    ``rows, ... = _integer_rows(...)``."""
    checked = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = _own_nodes(func)
        from_integer_rows = {
            id(node.targets[0].elts[0]) for node in nodes
            if isinstance(node, ast.Assign)
            and _is_call_to(node.value, "_integer_rows")
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)}
        params = {arg.arg for arg in ast.walk(func.args)
                  if isinstance(arg, ast.arg)}
        for call in filter(lambda n: _is_call_to(n, "_eliminate"), nodes):
            arg = call.args[0] if len(call.args) == 1 else None
            ok = (isinstance(arg, ast.Name) and not call.keywords
                  and arg.id not in params)
            if ok:
                stores = [node for node in nodes
                          if isinstance(node, ast.Name) and node.id == arg.id
                          and isinstance(node.ctx, ast.Store)]
                ok = bool(stores) and all(id(node) in from_integer_rows
                                          for node in stores)
            checked[id(call)] = ok
    # A call outside every function takes rows that nothing checked.
    return sorted((call.lineno, checked.get(id(call), False))
                  for call in ast.walk(tree) if _is_call_to(call, "_eliminate"))


def test_every_elimination_takes_rows_from_integer_rows():
    """``_integer_rows`` keeps each distinct nonzero row once, which is what
    makes a stage of repeated rows cheap to eliminate; every call of
    ``_eliminate`` takes its rows from it."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, ok) for _, ok in _eliminations(tree)]
    assert found == [("exact.py", True)] * 4


def test_elimination_finder_flags_other_rows():
    tree = ast.parse(
        "def f(m):\n"
        "    rows, _ = _integer_rows(m)\n"
        "    return _eliminate(rows)\n"
        "def g(m):\n"
        "    rows = [list(r) for r in m]\n"
        "    return exact._eliminate(rows)\n"
        "def h(rows):\n"
        "    return _eliminate(rows)\n"
        "def i(m):\n"
        "    rows, _ = _integer_rows(m)\n"
        "    rows = rows + [[0]]\n"
        "    return _eliminate(rows)\n"
        "_eliminate([[1]])\n")
    assert _eliminations(tree) == [(3, True), (6, False), (8, False),
                                   (12, False), (13, False)]


# Exports that no other code in the package calls, each kept because an
# acceptance criterion reproduces a result of the paper with it.
ACCEPTANCE_EXPORTS = {"split_ecs_matrix", "b_compose", "is_unimodular",
                      "check_equal_sums_criterion", "unique_trace_diagnostic"}


def test_every_export_is_used_in_the_package_or_allowed():
    """A public name that only ``__init__`` and the tests reach is a test
    oracle in ``src/``; it belongs in the test module that uses it."""
    pkg = Path(dimgroup.__file__).parent
    init = ast.parse((pkg / "__init__.py").read_text())
    exports = {alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in sorted(pkg.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            # A definition's own body does not count as a use of it.
            own = getattr(top, "name", None)
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    assert sorted(exports - used - ACCEPTANCE_EXPORTS) == []
    assert ACCEPTANCE_EXPORTS <= exports - used
    acceptance = ast.parse(
        (Path(__file__).parent / "test_acceptance.py").read_text())
    assert ACCEPTANCE_EXPORTS <= {node.id for node in ast.walk(acceptance)
                                  if isinstance(node, ast.Name)}


def test_every_error_class_is_raised_in_the_package():
    """An error class in ``errors.py`` is raised by name in another module
    of the package, or is a base of one that is.  A class that only the
    tests raise belongs in the test module that raises it."""
    pkg = Path(dimgroup.__file__).parent
    tree = ast.parse((pkg / "errors.py").read_text())
    bases = {node.name: [base.id for base in node.bases]
             for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(pkg.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    needed = raised & set(bases)
    todo = list(needed)
    while todo:
        for base in bases[todo.pop()]:
            if base in bases and base not in needed:
                needed.add(base)
                todo.append(base)
    assert sorted(set(bases) - needed) == []



def test_every_traced_target_resolves_in_the_package():
    """Each (module, class, attribute) that the benchmark's tracer wraps is
    a name in the package, so a deletion that would blind a per-layer metric
    fails here and not only in the separately run benchmark suite."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert len(targets) > 20
    missing = []
    for name, module, cls, attr, _ in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(name)
    assert missing == []


# Methods that no code in the package calls, each with its reason.
UNCALLED_ALLOWED = {
    # perfbench/tracer.py wraps it to count Perron root candidates; it goes
    # together with that tracer entry.
    "charpoly_at",
    # Matrix.rank: perfbench/tracer.py wraps it as exact.rank, and it goes
    # together with that tracer entry.  Only cli.py's args.rank, a name
    # alone, would otherwise let it pass.
    "rank",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _uncalled_definitions(trees: dict, allowed=frozenset()) -> list[str]:
    """``module:name`` or ``module:Class.name`` for each module function or
    method of a module class in ``trees`` (module name to parsed source)
    that no code there uses outside the definition's own body.  A function
    is used where its name appears as a name or an attribute; a method only
    where it appears as an attribute (``x.name``), so a builtin of the same
    name, as in ``pow(a, b)``, does not count.  Dunders, which Python calls
    itself, and names in ``allowed`` are left out.

    Methods are matched on their name alone: a method whose name another
    class's used method shares (``to_json``, ``det``) passes unseen.  A
    definition used only by an uncalled one passes too."""
    defs = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, _FUNCS):
                defs.append((f"{module}:{top.name}", top, False))
            elif isinstance(top, ast.ClassDef):
                defs += [(f"{module}:{top.name}.{f.name}", f, True)
                         for f in top.body if isinstance(f, _FUNCS)]
    attrs, names = defaultdict(set), defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs[node.attr].add(id(node))
            elif isinstance(node, ast.Name):
                names[node.id].add(id(node))
    found = []
    for label, func, is_method in defs:
        if (func.name.startswith("__") and func.name.endswith("__")
                or func.name in allowed):
            continue
        used = attrs[func.name] if is_method \
            else attrs[func.name] | names[func.name]
        if not used - {id(node) for node in ast.walk(func)}:
            found.append(label)
    return found


def test_every_function_and_method_is_used_in_the_package():
    """A function or method that only the tests reach is a test oracle in
    ``src/``; it belongs in the test module that uses it."""
    pkg = Path(dimgroup.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(pkg.glob("*.py"))}
    assert _uncalled_definitions(
        trees, ACCEPTANCE_EXPORTS | UNCALLED_ALLOWED) == []


def test_uncalled_definition_finder():
    tree = ast.parse(
        "class M:\n"
        "    def __add__(self, o):\n"
        "        return self.used(o)\n"
        "    def used(self, o):\n"
        "        return o\n"
        "    def unused(self):\n"
        "        return 0\n"
        "    def pow(self, e):\n"
        "        return e\n"
        "    def allowed(self):\n"
        "        return 1\n"
        "def f(n):\n"
        "    return f(n - 1) + pow(2, n)\n"
        "def g(n):\n"
        "    return h(n)\n"
        "def h(n):\n"
        "    return n\n")
    assert _uncalled_definitions({"m": tree}, {"allowed"}) \
        == ["m:M.unused", "m:M.pow", "m:f", "m:g"]
    assert _uncalled_definitions({"m": tree}) \
        == ["m:M.unused", "m:M.pow", "m:M.allowed", "m:f", "m:g"]


def _record_shortcuts(tree) -> list[str]:
    """``line what`` for each import of ``dataclasses`` and each call of a
    ``_replace`` method.  The records are named tuples whose constructors
    run the input checks; ``_replace`` builds through ``tuple.__new__`` and
    skips them, and dataclass code generation is import-time cost."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno} import {alias.name}"
                      for alias in node.names
                      if alias.name.split(".")[0] == "dataclasses"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "dataclasses"):
            found.append(f"{node.lineno} from {node.module}")
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_replace"):
            found.append(f"{node.lineno} _replace")
    return found


def test_records_are_built_only_through_their_checked_constructors():
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{hit}" for hit in _record_shortcuts(tree)]
    assert found == []


def test_record_shortcut_finder_flags_planted_examples():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass, replace\n"
        "import collections, dataclasses as dc\n"
        "from collections import namedtuple\n"
        "from .dataclasses import x\n"
        "seq = seq._replace(properties={})\n"
        "replace(seq)\n"
        "seq.replace('a', 'b')\n")
    assert _record_shortcuts(tree) == [
        "1 import dataclasses", "2 from dataclasses",
        "3 import dataclasses", "6 _replace"]
