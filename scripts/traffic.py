"""Print the lines of ``src/cbic`` that tier-1 and the fingerprint corpus never run.

Usage::

    python scripts/traffic.py > traffic.txt

One process runs the tier-1 suite (``pytest.main`` on ``tests/``) and then
every command of the ``scripts/fingerprint.py`` corpus through
``cbic.cli.run``, each in a fresh directory.  A ``sys.settrace`` hook records
the lines executed in frames whose code lives under ``src/cbic``.  The
executable lines of a file are the ones its compiled code objects name
through ``co_lines()``.  One line is printed per executable line that never
ran, ``src/cbic/<file>.py:<line>: <source>``, then the missed and executable
line counts per file.  pytest's own report goes to stderr.  The suite runs
under a derandomized hypothesis profile (a fixed seed per test, no example
database), so a property test that sets no ``derandomize`` of its own tries
the same examples each run, and two runs list the same lines.

Lines that run only in forked worker processes (the block groups of wide
ensembles, stepped one worker per CPU) are not seen by the hook, so they are
reported as missed.  A run takes about 5 to 8 minutes on 2 CPUs.  Nothing is
timed.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "cbic")


def _executable_lines(path):
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _Tracer:
    """Records (file, line) for every line run in a frame of ``src/cbic``."""

    def __init__(self):
        self.hits = defaultdict(set)
        self._ours = {}
        self._prefix = SRC + os.sep

    def __call__(self, frame, event, arg):
        code = frame.f_code
        ours = self._ours.get(code)
        if ours is None:
            ours = self._ours[code] = code.co_filename.startswith(self._prefix)
        if not ours:
            return None
        self.hits[code.co_filename].add(frame.f_lineno)  # the entry line
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local


def _run_corpus():
    """Every fingerprint corpus command, in process and in a fresh directory."""
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    import fingerprint
    from cbic import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, files, label, argv in fingerprint.corpus():
            run_dir = os.path.join(work, f"{name}-{label}")
            os.makedirs(run_dir)
            for file_name, text in files.items():
                with open(os.path.join(run_dir, file_name), "w") as fh:
                    fh.write(text)
            os.chdir(run_dir)
            try:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.run(argv)
            finally:
                os.chdir(cwd)
            print(f"corpus {name} {label}: exit {code}", file=sys.stderr)


class _Derandomized:
    """pytest plugin: loads the derandomized hypothesis profile once pytest is
    configured, so before the test modules and their ``@settings`` are imported."""

    def pytest_configure(self, config):
        from hypothesis import settings

        settings.register_profile("traffic", derandomize=True, database=None)
        settings.load_profile("traffic")


def main() -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = _Tracer()
    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                  os.path.join(ROOT, "tests")], plugins=[_Derandomized()])
        _run_corpus()
    finally:
        sys.settrace(None)

    counts = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        lines = _executable_lines(path)
        missed = sorted(lines - tracer.hits.get(path, set()))
        for line in missed:
            print(f"src/cbic/{name}:{line}: {source[line - 1].strip()}")
        counts.append((name, len(missed), len(lines)))
    for name, missed, total in counts:
        print(f"{name}: {missed} of {total} executable lines never ran")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
