#!/usr/bin/env python3
"""Record the default-seed reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one pass of each named workload (all four by default) at the
default seed and writes its CSVs, or the oracle moments and spectra,
under ``perfbench/reference/``.  Re-record only when an output is meant
to change, and say why in the change that does it.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import trace, workloads  # noqa: E402


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        if name == "oracle_small":
            workload = workloads.OracleWorkload(smoke=False, reference=None)
        else:
            workload = workloads.GridWorkload(
                name, workloads.grid_inputs(name, workloads.DEFAULT_SEED), reference=None)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp, trace.Patches() as patches:
            recorder = trace.Recorder()
            recorder.install(patches)
            result = workload.run_pass(Path(tmp), recorder)
        if result.problems:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        if name == "oracle_small":
            outputs = {k: v for k, v in result.outputs.items() if v is not None}
            path = workloads.REFERENCE_DIR / "oracle_small.json"
            path.write_text(json.dumps(outputs, indent=1) + "\n")
        else:
            folder = workloads.REFERENCE_DIR / name
            folder.mkdir(parents=True, exist_ok=True)
            for label, text in result.outputs.items():
                (folder / f"{label}.csv").write_text(text)
        print(f"{name}: {result.attempted} operations, {result.failed} failed, "
              f"{result.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
