"""The flat namespace of `taperspec` and its `__all__`."""

import ast
import inspect
import re
from pathlib import Path

import taperspec


def test_all_has_no_duplicates_and_every_name_resolves():
    names = taperspec.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(taperspec, n)] == []


def test_every_public_function_and_class_is_exported():
    # a stale re-export of a deleted name fails the import; a kept one that
    # `__all__` forgets fails here
    bound = {name for name, value in vars(taperspec).items()
             if not name.startswith("_")
             and (inspect.isfunction(value) or inspect.isclass(value))}
    assert sorted(bound - set(taperspec.__all__)) == []


def _names_used_by_the_package() -> set:
    """Names and attributes the code of taperspec loads, outside `__init__.py`
    and outside each name's own top-level definition; strings do not count."""
    used = set()
    for path in Path(taperspec.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            refs |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
            used |= refs
    return used


def _readme_entry_points() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library entry points\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_every_exported_function_and_class_has_a_caller_or_a_readme_entry():
    # an export that only tests call is a second API to keep working
    used = _names_used_by_the_package()
    readme = _readme_entry_points()
    orphans = [name for name in taperspec.__all__
               if (inspect.isfunction(getattr(taperspec, name))
                   or inspect.isclass(getattr(taperspec, name)))
               and name not in used and not re.search(rf"\b{name}\b", readme)]
    assert orphans == []
