"""Unit tests for the line census's stub classification (`line_census`)."""

from __future__ import annotations

from line_census import _code_objects, stub_functions

SOURCE = '''\
from typing import Protocol


class Surface(Protocol):
    def documented(self) -> int:
        """Only a docstring."""

    def ellipsis(self) -> int: ...

    @property
    def passes(self) -> int:
        pass


class Base:
    def abstract(self):
        """Subclasses say."""

        raise NotImplementedError

    def abstract_call(self):
        raise NotImplementedError("subclasses say")

    def real(self):
        """Has a body."""

        return 1

    def other_error(self):
        raise ValueError("not a stub")

    def stub_then_work(self):
        pass
        return 2


def helper():
    def inner():
        ...

    return inner
'''


def test_stub_bodies_are_classified_apart():
    stubs = stub_functions(SOURCE)
    assert {name for _, name in stubs} == {
        "documented",
        "ellipsis",
        "passes",
        "abstract",
        "abstract_call",
        "inner",
    }
    # Keyed as the tracer sees code objects: a decorated function starts at
    # its first decorator.
    assert (10, "passes") in stubs
    code_keys = {
        (code.co_firstlineno, code.co_name)
        for code in _code_objects(compile(SOURCE, "<census>", "exec"))
    }
    assert stubs <= code_keys
