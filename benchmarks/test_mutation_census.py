"""Unit tests for the mutation census's guard finder (`mutation_census`)."""

from __future__ import annotations

import ast

from mutation_census import disable_guard, find_guards

SOURCE = '''\
def check(proof, root):
    if proof is None:
        raise ValueError("no proof")
    if (
        root is not None
        and root.version < 0
    ):
        raise ValueError("bad root")
    elif proof.size > 3: raise ValueError("too big")
    if proof.level:
        proof.level -= 1
        raise ValueError("two statements: not a guard")
    if proof.done:
        return proof
    return None
'''


def test_finder_sees_single_raise_guards_only():
    assert [guard.lineno for guard in find_guards(SOURCE)] == [2, 4, 9]


def test_each_guard_is_disabled_alone():
    first, second, third = find_guards(SOURCE)
    for guard in (first, second, third):
        mutated = disable_guard(SOURCE, guard)
        ast.parse(mutated)
        assert mutated.count("False") == 1
    assert disable_guard(SOURCE, first).splitlines()[1] == "    if False:"
    # A parenthesised condition keeps its parentheses.
    assert "    if (\n        False\n    ):\n" in disable_guard(SOURCE, second)
    assert '    elif False: raise ValueError("too big")\n' in disable_guard(
        SOURCE, third
    )
