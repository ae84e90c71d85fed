"""The library's public surface is what the library itself uses.

Every public function and class defined in `oodfdd` must be named somewhere
in the package's own code, as an AST name or attribute; every public
method must be called there, as an attribute (`obj.method(...)`), and
every public property read there as one.  A string does not count, nor
does a local variable that happens to share a method's name, nor a
method named without being called.  A definition that only tests call is
surface to maintain with no user, so the test fails on it unless it is
on the allow-list below with its reason.

The same holds for parameters with a default: each must be passed at some
call in the package or the benchmark, or be on its own allow-list.  And
the package's modules import one another without a cycle, `data` sitting
below the networks it feeds.

A private module-level function or class must be named in the package's
code besides its own definition, with no allow-list: a helper that only
tests call is a test oracle, which belongs in the tests.
"""

import ast
import pathlib

import oodfdd

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    "data.LabeledDataset.to_csv": "the benchmark workloads write request files with it",
    "data.is_ood_tag": ("the benchmark workloads call it per tag, and the tests check"
                        " `data.ood_mask` against it"),
    "report.separation_statistic": "the acceptance latent-separation check calls it",
}

# qualified parameter name -> why its default stays though no call sets it
ALLOWED_DEFAULTS = {
    "data.write_mnist_surrogate.n_train_per_digit":
        "tests write small MNIST files to stay fast; gen-data writes the full size",
    "data.write_mnist_surrogate.n_test_per_digit":
        "tests write small MNIST files to stay fast; gen-data writes the full size",
}

REPO = pathlib.Path(__file__).resolve().parents[1]


def _trees():
    root = pathlib.Path(oodfdd.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _is_property(item) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)


def _public_definitions(trees):
    """(qualified name, name, kind) of each public module-level function
    and class ("name") and of each public method ("call") and property
    ("read") of a public class."""
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                continue
            defs.append((f"{module}.{node.name}", node.name, "name"))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item.name,
                          "read" if _is_property(item) else "call")
                         for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return defs


def _referenced_names(trees):
    """Names by how the package uses them: "name", referenced as a bare
    name or an attribute; "read", read as an attribute; "call", called as
    an attribute."""
    used = {"name": set(), "read": set(), "call": set()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used["name"].add(node.id)
            elif isinstance(node, ast.Attribute):
                used["name"].add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    used["read"].add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                used["call"].add(node.func.attr)
    return used


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    used = _referenced_names(trees)
    unused = {qualified for qualified, name, kind in _public_definitions(trees)
              if name not in used[kind]}
    assert unused - set(ALLOWED) == set()
    # an entry whose definition gained a caller, or is gone, leaves the list
    assert unused == set(ALLOWED)


def test_every_private_definition_has_a_caller_in_the_package():
    trees = _trees()
    used = _referenced_names(trees)["name"]
    unused = {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and node.name not in used}
    assert unused == set()


def test_every_package_name_the_benchmark_workloads_use_exists():
    """Each `bench/*.py` reaches the program through the package modules it
    imports by name (`from oodfdd import cli`); a name it reads from one of
    them that the package no longer has breaks the benchmark, so it fails
    here first.  That covers names no `def` shows, such as
    `experiments.chiller_config`, a `functools.partial`.  The files are
    parsed, not run."""
    import importlib

    named = set()
    for path in sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "oodfdd"
                    for alias in node.names}
        named |= {(node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported}
    assert {module for module, _ in named} == {"cli", "data", "experiments"}
    assert ("experiments", "chiller_config") in named
    assert sorted(f"{m}.{a}" for m, a in named
                  if not hasattr(importlib.import_module(f"oodfdd.{m}"), a)) == []


def _defaulted_parameters(trees):
    """(qualified name, callee name, position or None, parameter name) of
    each parameter with a default of a public function, or of a public
    method of a public class; the position counts the arguments a call
    passes before it (None for a keyword-only parameter)."""
    out = []

    def add(qualified, fn, bound):
        args = fn.args
        positional = args.posonlyargs + args.args
        if bound and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
            positional = positional[1:]  # self or cls
        first = len(positional) - len(args.defaults)
        out.extend((f"{qualified}.{a.arg}", fn.name, i, a.arg)
                   for i, a in enumerate(positional) if i >= first)
        out.extend((f"{qualified}.{a.arg}", fn.name, None, a.arg)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add(f"{module}.{node.name}", node, bound=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        add(f"{module}.{node.name}.{item.name}", item, bound=True)
    return out


def _passed_arguments(trees):
    """{callee name: (positions passed, keywords passed)} over every call in
    `trees`, by the called name (`f(..)` or `obj.f(..)`).  A call whose
    callee has no name (`table[key](..)`) passes its keywords to every
    callee, under the name None.  A splat (`*xs`, `**kw`) passes nothing
    this can see: no position from it on, and no keyword."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            positions, keywords = passed.setdefault(name, (set(), set()))
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                positions.add(i)
            keywords.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return passed


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A default that no call in the package or the benchmark overrides is
    a setting nobody varies: a module constant says so with less surface."""
    trees = _trees()
    callers = [*trees.values(),
               *(ast.parse(path.read_text()) for path in sorted((REPO / "bench").glob("*.py")))]
    passed = _passed_arguments(callers)
    _, anonymous = passed.get(None, (set(), set()))
    unset = set()
    for qualified, callee, position, name in _defaulted_parameters(trees):
        positions, keywords = passed.get(callee, (set(), set()))
        if not (name in keywords or name in anonymous or position in positions):
            unset.add(qualified)
    assert unset - set(ALLOWED_DEFAULTS) == set()
    # an entry whose parameter gained a caller, or is gone, leaves the list
    assert unset == set(ALLOWED_DEFAULTS)


def _package_imports(trees):
    """{module: the package modules it imports}, at any depth in the file."""
    graph = {}
    for module, tree in trees.items():
        deps = graph.setdefault(module, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module
                            else (alias.name for alias in node.names))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oodfdd"):
                rest = node.module.split(".")[1:]
                deps.update(rest[:1] or (alias.name for alias in node.names))
    return graph


def test_data_sits_below_the_networks_and_the_imports_have_no_cycle():
    graph = _package_imports(_trees())
    assert graph["data"] == {"nncore", "report"}
    done, on_path = set(), []

    def visit(module):
        assert module not in on_path, f"import cycle: {' -> '.join(on_path + [module])}"
        if module in done:
            return
        on_path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        on_path.pop()
        done.add(module)

    for module in graph:
        visit(module)
