#!/usr/bin/env python3
"""Rewrite reference.json from the icp_lab sources of this checkout.

    python3 perfbench/record_reference.py

The benchmark compares its outputs against these values, so record them
only from a commit whose numbers are trusted; the committed file was
recorded from the code before any performance work.
"""
import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.pin_environment()
    workloads = run.import_program()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        reference = {
            "ensemble-audit": workloads.EnsembleAudit.replay(),
            "optimizer-search": workloads.OptimizerSearch.replay(),
            "cli-commands": workloads.CliCommands.replay(Path(tmp)),
        }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
