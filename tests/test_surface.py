"""The library's public surface is what the library itself uses.

Every public function and class defined in `oodfdd` must be named somewhere
in the package's own code, as an AST name or attribute; every public
method must be called there, as an attribute (`obj.method(...)`), and
every public property read there as one.  A string does not count, nor
does a local variable that happens to share a method's name, nor a
method named without being called.  A definition that only tests call is
surface to maintain with no user, so the test fails on it unless it is
on the allow-list below with its reason.
"""

import ast
import pathlib

import oodfdd

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    "data.LabeledDataset.to_csv": "the benchmark workloads write request files with it",
    "data.is_ood_tag": "the benchmark workloads count flag rates with it; the package "
                       "tests tags in bulk with `ood_mask`",
    "report.separation_statistic": "the acceptance latent-separation check calls it",
}


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


def test_every_package_name_the_benchmark_workloads_use_exists():
    """`bench/workloads.py` drives the program through `cli`, `data` and
    `experiments`; a name it reads that the package no longer has breaks a
    workload, so it fails here first.  The file is parsed, not run."""
    import importlib

    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "oodfdd"
                for alias in node.names}
    assert {"cli", "data", "experiments"} <= imported
    modules = {name: importlib.import_module(f"oodfdd.{name}") for name in imported}
    named = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert {module for module, _ in named} == set(modules)
    assert sorted(f"{m}.{a}" for m, a in named if not hasattr(modules[m], a)) == []
