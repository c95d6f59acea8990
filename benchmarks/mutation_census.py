"""Mutation census: which ``if …: raise`` guards a test file sees fail.

A guard is an ``if`` (or ``elif``) whose body is a single ``raise``.  For
each guard of a module, the census turns that guard's condition — and only
that one — into ``False`` in a temporary copy of ``src/`` (the checkout is
never written), runs the named test file with ``-x`` against the copy, and
reports the guard *killed* (the run failed) or *survived* (it passed).  A
survivor is a check no test has seen fail.  Stdlib ``ast`` only; no
``mutmut`` needed.  Usage::

    python benchmarks/mutation_census.py
    python benchmarks/mutation_census.py --output mutation_census.md

It covers the read verifier against its proof tests, the chaos invariants
against the chaos scenarios, the storage codec against the strictness
tests, the frame decoder against the strictness and live-harness tests,
the log proofs against the log-layer and batch-certification tests, the
cloud's merge check against the merge-proof and malicious-edge tests, and
the signature schemes against their tests and the batch-certification
tests (``TARGETS``; a module may name several test files).  Each target
first runs unmutated; a target whose test files fail as they stand is
reported and skipped.  The exit status is 0
unless a target could not be run at all: survivors are findings, not
failures.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``(module under src/, test files)`` pairs the census covers: a guard is
#: killed when any of the module's test files fails with it disabled.
TARGETS = (
    ("src/repro/lsmerkle/read_proof.py", ("tests/test_lsmerkle_proofs_merge.py",)),
    ("src/repro/faults/invariants.py", ("tests/test_chaos_scenarios.py",)),
    ("src/repro/storage/codec.py", ("tests/test_codec_strictness.py",)),
    (
        "src/repro/service/framing.py",
        ("tests/test_codec_strictness.py", "tests/test_live_harness.py"),
    ),
    (
        "src/repro/log/proofs.py",
        ("tests/test_log_layer.py", "tests/test_batch_certification.py"),
    ),
    (
        "src/repro/lsmerkle/merge.py",
        ("tests/test_lsmerkle_proofs_merge.py", "tests/test_integration_malicious.py"),
    ),
    (
        "src/repro/crypto/signatures.py",
        ("tests/test_crypto_signatures.py", "tests/test_batch_certification.py"),
    ),
)


def find_guards(source: str) -> list[ast.If]:
    """Every ``if``/``elif`` of *source* whose body is one ``raise``, in
    line order."""

    guards = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
    ]
    return sorted(guards, key=lambda node: (node.lineno, node.col_offset))


def disable_guard(source: str, guard: ast.If) -> str:
    """*source* with *guard*'s condition replaced by ``False`` (an
    enclosing pair of parentheses, if any, stays)."""

    lines = source.splitlines(keepends=True)
    test = guard.test
    first, last = test.lineno - 1, test.end_lineno - 1
    head = lines[first][: test.col_offset]
    tail = lines[last][test.end_col_offset :]
    return "".join(lines[:first] + [head + "False" + tail] + lines[last + 1 :])


def _run_tests(test_files: tuple[str, ...], source_dir: pathlib.Path) -> bool:
    """Whether *test_files* pass with ``repro`` imported from *source_dir*."""

    env = dict(os.environ)
    env["PYTHONPATH"] = str(source_dir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        + list(test_files),
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0


def _imports_from(source_dir: pathlib.Path) -> bool:
    """Whether a process given *source_dir* imports ``repro`` from it (an
    installed copy must not shadow the mutated one)."""

    env = dict(os.environ, PYTHONPATH=str(source_dir))
    where = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    ).stdout.strip()
    return pathlib.Path(where).resolve().is_relative_to(source_dir.resolve())


def census(
    module: str, test_files: tuple[str, ...], source_dir: pathlib.Path
) -> list[tuple[int, bool]]:
    """``(guard line, killed)`` for every guard of *module* (a path under
    ``src/``), each disabled alone in *source_dir*'s copy of it."""

    target = source_dir / pathlib.Path(module).relative_to("src")
    original = target.read_text()
    outcomes = []
    try:
        for guard in find_guards(original):
            target.write_text(disable_guard(original, guard))
            outcomes.append((guard.lineno, not _run_tests(test_files, source_dir)))
    finally:
        target.write_text(original)
    return outcomes


def _report(results) -> str:
    """A Markdown table of ``(module, test files, outcomes or None)`` rows;
    ``None`` marks test files that fail unmutated."""

    lines = [
        "# Mutation census",
        "",
        "| module | test files | guards | killed | survived (lines) |",
        "| --- | --- | ---: | ---: | --- |",
    ]
    for module, test_files, outcomes in results:
        test_file = "`, `".join(test_files)
        if outcomes is None:
            lines.append(f"| `{module}` | `{test_file}` | – | – | fails unmutated |")
            continue
        survivors = [str(line) for line, killed in outcomes if not killed]
        killed = len(outcomes) - len(survivors)
        lines.append(
            f"| `{module}` | `{test_file}` | {len(outcomes)} | {killed} "
            f"| {', '.join(survivors) or 'none'} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="also write the Markdown table here")
    args = parser.parse_args(argv)

    results = []
    with tempfile.TemporaryDirectory(prefix="mutation-census-") as workdir:
        source_dir = pathlib.Path(workdir) / "src"
        shutil.copytree(
            ROOT / "src", source_dir, ignore=shutil.ignore_patterns("__pycache__")
        )
        if not _imports_from(source_dir):
            print("repro does not import from the temporary copy", file=sys.stderr)
            return 2
        for module, test_files in TARGETS:
            if not _run_tests(test_files, source_dir):
                print(f"{' '.join(test_files)} fail unmutated: {module} skipped")
                results.append((module, test_files, None))
                continue
            outcomes = census(module, test_files, source_dir)
            for line, killed in outcomes:
                print(f"{module}:{line} {'killed' if killed else 'SURVIVED'}")
            killed = sum(killed for _line, killed in outcomes)
            print(f"{module}: {killed} of {len(outcomes)} guards killed")
            results.append((module, test_files, outcomes))
    if args.output:
        pathlib.Path(args.output).write_text(_report(results))
    return 2 if any(outcomes is None for *_, outcomes in results) else 0


if __name__ == "__main__":
    sys.exit(main())
