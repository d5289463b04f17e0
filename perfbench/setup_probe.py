"""One set-up sample: what a CLI invocation pays before any timed work.

Run in a fresh interpreter by run.py, which times the whole process:
interpreter start, ``import cbic.cli``, loading the workload's configs and
one warm-up operation.  Usage::

    python3 perfbench/setup_probe.py <checkout> <config>... -- <warm-up argv>
"""

import contextlib
import io
import os
import sys


def main(argv):
    root = argv[0]
    split = argv.index("--")
    configs, warm = argv[1:split], argv[split + 1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import cbic.cli
    from cbic.config import load_config

    for path in configs:
        load_config(path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cbic.cli.run(warm)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
