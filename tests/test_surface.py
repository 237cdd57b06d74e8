"""The package's public surface and the independence of its routes."""

import ast
import inspect
import types

import bell_lab
from bell_lab import reduction, unified


def imported_modules(module) -> set[str]:
    """Absolute names of every module `module`'s source imports from."""
    tree = ast.parse(inspect.getsource(module))
    package = module.__name__.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                target = f"{base}.{node.module}" if node.module else base
                found.add(target)
                if not node.module:
                    found.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_every_exported_name_resolves():
    for name in bell_lab.__all__:
        assert getattr(bell_lab, name) is not None, name


def test_all_is_exactly_the_bound_public_names():
    public = {
        name
        for name, value in vars(bell_lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bell_lab.__all__) == sorted(public)
    assert len(bell_lab.__all__) == len(set(bell_lab.__all__))


def test_product_space_and_reduction_do_not_import_the_dedicated_route():
    for module in (unified, reduction):
        imports = imported_modules(module)
        assert "bell_lab.models" in imports  # the walk sees relative imports
        assert "bell_lab.exact" not in imports, module.__name__
