"""Rewrite ``digests.json`` from the current code at the default seed.

    python3 perfbench/pin.py

A change that moves a digest on purpose re-pins with this script and says
why in CHANGES.md.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.import_program()
    from qdnsim import cli
    from qdnsim.engine import Engine

    import workloads

    pinned = {}
    for workload in run.WORKLOADS:
        pinned[workload] = {}
        for label, cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            result = Engine(cfg).run()
            paths = cli.emit(result, run.OUT / "pin", f"{workload}-{label}",
                             workloads.FORMATS)
            pinned[workload][label] = workloads.file_digests(paths)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
