"""The flat namespace of `taperspec` and its `__all__`."""

import inspect

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
