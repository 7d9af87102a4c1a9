"""Check that the tracer counts what the kernel does: the traced number
of ``solve_slack_lp`` calls must equal counts taken by hand on the
program before the benchmark existed.

    python3 bench/pin_counts.py

It builds ``generate_bounded_instance(116, 16, 6, .)`` in both modes and
runs ``run_fuzz(50, 7, 10, 7, None)``, about 100 s of work on a 2-core
machine, so no benchmark run includes it.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import json
import sys

import run

HAND_COUNTS = {
    "build n=16 translate": 1623,
    "build n=16 homothet": 4020,
    "run_fuzz(50, 7, 10, 7, None)": 15923,
}


def main() -> int:
    run.import_program()
    from delgraphs import cli
    from delgraphs.shape import HOMOTHET, TRANSLATE
    from tracing import Tracer

    inst = cli.generate_bounded_instance(116, 16, 6, TRANSLATE)
    cases = {
        "build n=16 translate": lambda: cli.build_graph(inst.points, inst.shape, TRANSLATE),
        "build n=16 homothet": lambda: cli.build_graph(inst.points, inst.shape, HOMOTHET),
        "run_fuzz(50, 7, 10, 7, None)": lambda: cli.run_fuzz(50, 7, 10, 7, None),
    }
    counted = {}
    for name, call in cases.items():
        tracer = Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        counted[name] = tracer.calls["pure.lp"]
    ok = counted == HAND_COUNTS
    print(json.dumps({"ok": ok, "counted": counted, "hand": HAND_COUNTS}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
