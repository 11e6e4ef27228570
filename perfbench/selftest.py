#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (c17, toyseq, s1238).

    python3 perfbench/selftest.py

Builds the driver like run.py, then for every workload:
  - runs it untraced and traced on the tiny inputs and checks that every
    end-to-end / per-layer metric of BENCHMARK.json is printed with its
    unit, that the human report names the workload's metrics with units,
    and that nothing failed;
  - runs it with an injected fault (a wrong attack verdict, a flipped
    oracle output bit, a wrong pinned insertion count) and checks that the
    fault is counted as a failed operation.
Exits 0 when every check holds.
"""
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Human-report metrics per workload (name, unit), printed before the JSON.
REPORTED = {
    "attack": [("attack_s", "s"), ("gk_attack_s", "s"), ("xor_attack_s", "s")],
    "flow": [("flow_table2_s", "s"), ("flow_large_s", "s")],
    "service": [("req_per_s", "1/s"), ("query_us_p50", "us"),
                ("query_us_p99", "us"), ("batch_us_p50", "us"),
                ("write_us_p50", "us")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", None)]
INJECT = {"attack": "verdict", "flow": "pin", "service": "oracle"}

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def tiny(workload, trace, inject=None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace), "--tiny"]
    if inject:
        args += ["--inject", inject]
    lines = run.run_driver(args)
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    for workload in ("attack", "flow", "service"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, res = tiny(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   tag + ": all outputs correct")
            expect(set(res["metrics"]) == {m["name"] for m in bench[key]},
                   tag + ": prints exactly the BENCHMARK.json metrics")
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s: metric %s [%s]" % (tag, m["name"], m["unit"]))
            text = "\n".join(lines[:-1])
            for name, unit in REPORTED[workload] + COMMON:
                pat = r"^\s*%s\s+\S+" % re.escape(name)
                if unit:
                    pat += r"\s+%s\b" % re.escape(unit)
                expect(re.search(pat, text, re.M) is not None,
                       "%s: reports %s" % (tag, name))
        _, res = tiny(workload, 0, INJECT[workload])
        expect(res["failed"] > 0 and not res["correct"],
               "%s: injected %s fault raises failed_ratio (%d of %d)"
               % (workload, INJECT[workload], res["failed"], res["attempted"]))
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
