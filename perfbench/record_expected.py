"""Record the certificate and Lyapunov constants the rate oracles compare against.

Run from the repository root at a commit whose certificates are trusted::

    python3 perfbench/record_expected.py

It rewrites perfbench/expected.json.  A change that moves these constants
must say so: the recorded values are the byte-identity reference.
"""

import contextlib
import io
import json
import os
import re
import sys

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import cbic.cli

    wl = workloads.certify(root, os.path.join(HERE, ".work", "record-expected"), 0)
    expected = {"rate": {}, "lyapunov": {}}
    for op in wl.ops:
        if op.kind not in ("rate", "lyapunov") or op.expect_rc != 0:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cbic.cli.run(op.argv)
        if rc != 0:
            print(f"{op.label}: exit {rc}", file=sys.stderr)
            return 1
        if op.kind == "rate":
            consts = oracles.certificate_constants(os.path.join(op.out, "certificate.txt"))
            expected["rate"][op.model] = consts
        else:
            m = re.search(r"C0 = (\S+), C1 = (\S+) ", out.getvalue())
            expected["lyapunov"][op.model] = {"C0": float(m.group(1)), "C1": float(m.group(2))}
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
