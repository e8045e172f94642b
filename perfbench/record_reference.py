"""Record the reference outputs that the benchmark checks every CLI call against.

    python3 perfbench/record_reference.py

Runs each workload's calls once, at full size and shrunken, at the
reference seed, and writes ``reference.json`` next to this file.  Record
only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import outputs
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from oamlis import cli

    recorded = {}
    directory = run.OUT_ROOT / "reference"
    for mode, smoke in (("full", False), ("smoke", True)):
        recorded[mode] = {}
        for name in run.WORKLOADS:
            calls = run.workload_calls(name, run.REFERENCE_SEED, smoke)
            shutil.rmtree(directory, ignore_errors=True)
            entries = []
            for index, argv in enumerate(calls):
                out = directory / f"call{index}"
                cli.main([*argv, "--out", str(out)])
                entries.append(outputs.observe(out, argv[0]))
            recorded[mode][name] = entries
            print(f"{mode} {name}: {sum(len(e) for e in entries)} files", file=sys.stderr)
    shutil.rmtree(run.OUT_ROOT, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
