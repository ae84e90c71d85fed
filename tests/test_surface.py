"""The library's public surface is what the library itself uses.

Every public function and class defined in `oodfdd` must be named somewhere
in the package's own code, as an AST name or attribute, and every public
method as an attribute (a string does not count, nor does a local variable
that happens to share a method's name).  A definition that only tests call is surface to maintain
with no user, so the test fails on it unless it is on the allow-list below
with its reason.
"""

import ast
import pathlib

import oodfdd

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    "data.LabeledDataset.to_csv": "the benchmark workloads write request files with it",
    "report.separation_statistic": "the acceptance latent-separation check calls it",
}


def _trees():
    root = pathlib.Path(oodfdd.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _public_definitions(trees):
    """(qualified name, name, is method) of each public module-level
    function and class and of each public method of a public class."""
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                continue
            defs.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item.name, True)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return defs


def _referenced_names(trees):
    """(names referenced as a bare name or an attribute, names referenced
    as an attribute)."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names | attributes, attributes


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    used, attributes = _referenced_names(trees)
    unused = {qualified for qualified, name, method in _public_definitions(trees)
              if name not in (attributes if method else used)}
    assert unused - set(ALLOWED) == set()
    # an entry whose definition gained a caller, or is gone, leaves the list
    assert unused == set(ALLOWED)
