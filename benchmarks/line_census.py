"""Line census: which lines of ``src/repro`` the tier-1 suite executes.

Runs the tier-1 suite under a stdlib ``sys.settrace`` line tracer (no
``coverage`` package needed) and writes a Markdown report: executable and
unreached lines per package and per file, and the functions no test ever
enters.  Usage::

    python benchmarks/line_census.py --output census.md
    python benchmarks/line_census.py --output census.md -- tests/test_lsm.py

Arguments after ``--`` replace the default pytest arguments (``-q``).  The
exit status is the suite's.  The run takes several times as long as the
suite itself, so it is a separate CI job, not part of tier-1.

How it traces:

* **Every process.**  The suite runs as a subprocess whose ``PYTHONPATH``
  starts with a generated ``sitecustomize`` that loads this module and
  installs the tracer at interpreter start.  Child processes that inherit
  the environment (the examples, the perf suite) are traced the same way.
  Each process writes its hits to a shared directory when it exits.
* **Every test phase.**  The tracer is installed again at pytest's setup,
  call and teardown of every test (this module is loaded as a pytest
  plugin).  Without that a process loses its tracer part-way through the
  run: pytest-benchmark's ``PauseInstrumentation`` clears it around each
  timed call, and something else drops it for good.

Blind spots:

* code that runs only inside pytest-benchmark's timed ``benchmark(...)``
  calls is never counted;
* a subprocess started with a scrubbed environment (an ``env=`` without
  this ``PYTHONPATH``) is not traced;
* a process that ends through ``os._exit`` or a signal writes nothing.

A line is *executable* if the compiler maps an instruction to it; a
function is *entered* if a call event named its code object.

PYTEST_DONT_REWRITE: every traced process imports this module before pytest
starts, so pytest must not try to rewrite it as a plugin.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import uuid
from collections import defaultdict

#: Directory the traced processes write their hits to (set by the runner).
OUTPUT_ENV = "LINE_CENSUS_DIR"
#: Absolute path of the source tree whose lines are counted.
SOURCE_ENV = "LINE_CENSUS_SOURCE"
#: Name this module is loaded under in traced processes (and as a plugin).
MODULE_NAME = "repro_line_census"

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

CO_OPTIMIZED = 0x1  # set on function code, not on module or class bodies


# ----------------------------------------------------------------------
# The tracer (runs inside every traced process)
# ----------------------------------------------------------------------
class LineTracer:
    """Records the lines run and the functions entered in files under one
    directory, for the ``sys.settrace`` hook of one process."""

    def __init__(self, source: str) -> None:
        self.prefix = source.rstrip(os.sep) + os.sep
        self.lines: dict[str, set[int]] = defaultdict(set)
        self.entered: dict[str, set] = defaultdict(set)
        self._local_tracers: dict[str, object] = {}

    def _local_tracer_for(self, filename: str):
        """The per-line tracer of one counted file, or ``None`` for any other."""

        if not filename.startswith(self.prefix):
            return None
        add = self.lines[filename].add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def __call__(self, frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        try:
            local = self._local_tracers[filename]
        except KeyError:
            local = self._local_tracers[filename] = self._local_tracer_for(filename)
        if local is None:
            return None
        self.entered[filename].add(code)
        self.lines[filename].add(frame.f_lineno)
        return local

    def install(self) -> None:
        """(Re-)install on this thread and on threads started later."""

        sys.settrace(self)
        threading.settrace(self)

    def write(self, directory: str) -> None:
        sys.settrace(None)
        threading.settrace(None)
        hits = {
            filename: {
                "lines": sorted(self.lines[filename]),
                "entered": sorted(
                    [code.co_firstlineno, code.co_name]
                    for code in self.entered[filename]
                ),
            }
            for filename in self.lines
        }
        path = pathlib.Path(directory) / f"{os.getpid()}-{uuid.uuid4().hex}.json"
        path.write_text(json.dumps(hits))


#: This process's tracer, once :func:`start` has installed one.
_tracer: LineTracer | None = None


def start() -> None:
    """Trace this process if the runner asked for it (called from
    the generated ``sitecustomize``)."""

    global _tracer
    directory = os.environ.get(OUTPUT_ENV)
    source = os.environ.get(SOURCE_ENV)
    if not directory or not source:
        return
    _tracer = LineTracer(source)
    atexit.register(_tracer.write, directory)
    _tracer.install()


def pytest_runtest_setup(item):
    if _tracer is not None:
        _tracer.install()


pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup


# ----------------------------------------------------------------------
# Static side: what could have run
# ----------------------------------------------------------------------
def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable(path: pathlib.Path) -> tuple[set[int], dict[tuple[int, str], str]]:
    """The executable lines of *path*, and its functions by
    ``(first line, name)`` → qualified name (lambdas and comprehensions
    excluded)."""

    module = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    functions: dict[tuple[int, str], str] = {}
    for code in _code_objects(module):
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<"):
            functions[(code.co_firstlineno, code.co_name)] = code.co_qualname
    return lines, functions


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------
def run_suite(hits_dir: str, pytest_args: list[str]) -> int:
    """Run pytest at the repository root with every process traced."""

    bootstrap = pathlib.Path(hits_dir) / "bootstrap"
    bootstrap.mkdir()
    (bootstrap / "sitecustomize.py").write_text(
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location({MODULE_NAME!r}, "
        f"{str(pathlib.Path(__file__).resolve())!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        f"sys.modules[{MODULE_NAME!r}] = module\n"
        "spec.loader.exec_module(module)\n"
        "module.start()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(bootstrap), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env[OUTPUT_ENV] = hits_dir
    env[SOURCE_ENV] = str(SOURCE)
    command = [sys.executable, "-m", "pytest", "-p", MODULE_NAME, *pytest_args]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def merge_hits(hits_dir: str) -> tuple[dict[str, set[int]], dict[str, set[tuple]]]:
    lines: dict[str, set[int]] = defaultdict(set)
    entered: dict[str, set[tuple]] = defaultdict(set)
    for path in pathlib.Path(hits_dir).glob("*.json"):
        for filename, hits in json.loads(path.read_text()).items():
            lines[filename].update(hits["lines"])
            entered[filename].update(tuple(item) for item in hits["entered"])
    return lines, entered


def _ratio(lines: int, unreached: int) -> str:
    return f"{100.0 * (lines - unreached) / lines:.1f}" if lines else "-"


def report(lines_hit, entered) -> str:
    files = []
    never_entered = []
    for path in sorted(SOURCE.rglob("*.py")):
        relative = path.relative_to(SOURCE).as_posix()
        executable_lines, functions = executable(path)
        unreached = executable_lines - lines_hit.get(str(path), set())
        files.append((relative, len(executable_lines), len(unreached)))
        calls = entered.get(str(path), set())
        never_entered.extend(
            (relative, first, qualname)
            for (first, name), qualname in sorted(functions.items())
            if (first, name) not in calls
        )

    packages: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for relative, count, unreached in files:
        package = relative.split("/")[0] + "/" if "/" in relative else "(top level)"
        packages[package][0] += count
        packages[package][1] += unreached
    total = sum(count for _, count, _ in files)
    total_unreached = sum(unreached for _, _, unreached in files)

    out = [
        "# Line census of src/repro",
        "",
        f"{total} executable lines, {total_unreached} unreached: "
        f"**{_ratio(total, total_unreached)} %** hit.  "
        f"{len(never_entered)} functions never entered.",
        "",
        "## Per package",
        "",
        "| package | lines | unreached | hit % |",
        "|---|---:|---:|---:|",
    ]
    for package, (count, unreached) in sorted(packages.items()):
        out.append(f"| {package} | {count} | {unreached} | {_ratio(count, unreached)} |")
    out += [
        "",
        "## Per file (least covered first)",
        "",
        "| file | lines | unreached | hit % |",
        "|---|---:|---:|---:|",
    ]
    for relative, count, unreached in sorted(
        files, key=lambda row: ((row[1] - row[2]) / row[1] if row[1] else 1.0, row[0])
    ):
        out.append(f"| {relative} | {count} | {unreached} | {_ratio(count, unreached)} |")
    out += ["", "## Functions never entered", ""]
    out += [f"- `{path}:{first}` `{qualname}`" for path, first, qualname in never_entered]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pytest_args = ["-q"]
    if "--" in argv:
        split = argv.index("--")
        argv, pytest_args = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="line_census.md", help="Markdown report path")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="line-census-") as hits_dir:
        status = run_suite(hits_dir, pytest_args)
        lines_hit, entered = merge_hits(hits_dir)
    text = report(lines_hit, entered)
    pathlib.Path(args.output).write_text(text)
    print("\n".join(text.splitlines()[:4]))
    print(f"report written to {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
