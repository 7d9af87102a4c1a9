"""Write bench/goldens.json from the program at the current commit.

    python3 bench/make_goldens.py

Panel goldens come from the untransformed base instances, so a run on
any seed also checks that the seeded transforms leave the outputs alone.
Fuzz goldens are the summaries of the chunks of the fuzz cycle.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    from workloads import FuzzMixed, Op, TriangulateGeneric, Variant, VerifyDeep

    goldens = {}
    for cls in (VerifyDeep, TriangulateGeneric):
        wl = cls(0, {})
        wl.prepare()
        out = []
        for i, (pts, shape) in enumerate(wl.panel):
            v = Variant(i, pts, shape)
            out.append(wl.golden_of(Op(v, 1, wl.run(v))))
            print(cls.name, i, out[-1], file=sys.stderr)
        goldens[cls.name] = out
    wl = FuzzMixed(0, {})
    wl.offset = 0
    chunks = []
    for u in range(FuzzMixed.PANEL_SIZE):
        chunk = wl.unit_inputs(u)[0]
        chunks.append(wl.golden_of(Op(chunk, chunk.trials, wl.run(chunk))))
        print("fuzz-mixed", u, file=sys.stderr)
    goldens[FuzzMixed.name] = chunks
    body = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(g) for g in items) + "\n]"
        for name, items in goldens.items())
    with open(run.BENCH / "goldens.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
