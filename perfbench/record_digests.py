"""Record sha256 digests of every non-golden docs invocation.

Usage, from the repository root:
    PYTHONPATH=src python3 perfbench/record_digests.py

Renders every pool variant of every seed-dependent invocation plus the fixed
invocations and writes docs_digests.json next to this file.  The recorded
digests are the reference the docs workload checks against, so run this only
on a commit whose documents are known to be right.
"""

from __future__ import annotations

import json

from xoverlab import cli

import workloads


def main() -> None:
    argvs = [workloads.docs_variant_argv(slot, build, v)
             for slot, build in workloads.docs_slots()
             for v in range(workloads.POOL)]
    argvs += workloads.docs_fixed()
    digests = {" ".join(a): workloads.sha(cli.render_command(a)) for a in argvs}
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS}")


if __name__ == "__main__":
    main()
