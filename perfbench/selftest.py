#!/usr/bin/env python3
"""Small-size self-test of the Rover benchmark.

Run from the root of the repository:  python3 perfbench/selftest.py

For every workload it checks that
  1. every metric named in BENCHMARK.json prints, with its unit
     (end_to_end with --trace 0, per_layer with --trace 1);
  2. simulated-time metrics are bit-identical across two same-seed runs;
  3. a different seed changes the generated inputs;
  4. a run with check::SimCheck attached reports no violation.
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fanin", "apps", "roaming"]
SIM_UNITS = {"ms"}  # simulated-time metrics
SIM_METRICS = {"wire_bytes_per_op"}  # also a pure function of the simulation


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--small", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    provenance = next(json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"'))
    return json.loads(lines[-1]), provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        a, prov_a = run(w, 11, 0)
        b, prov_b = run(w, 11, 0)
        c, prov_c = run(w, 12, 0)
        t, _ = run(w, 11, 1)
        s, _ = run(w, 11, 0, "--simcheck")
        for name, result in (("run", a), ("traced run", t), ("simcheck run", s)):
            expect(result["correct"] and result["failed"] == 0,
                   "%s: %s correct, %d of %d failed" % (w, name, result["failed"],
                                                        result["attempted"]))
        for group, result in (("end_to_end", a), ("per_layer", t)):
            for m in spec[group]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s: %s metric %s prints with unit %s" % (w, group, m["name"], m["unit"]))
        sim = [k for k, v in a["metrics"].items() if v["unit"] in SIM_UNITS or k in SIM_METRICS]
        expect(sim and all(a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in sim)
               and prov_a["sim_digest"] == prov_b["sim_digest"],
               "%s: %d simulated-time metrics bit-identical across same-seed runs" % (w, len(sim)))
        expect(prov_a["inputs_digest"] != prov_c["inputs_digest"],
               "%s: another seed changes the generated inputs" % w)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
