#!/usr/bin/env python3
"""Turn a span dump into the per-layer table.

    python3 perfbench/spans_table.py .bench_build/perfbench/out/spans-agent-http-seed1.csv

A traced run (--trace 1) writes one CSV per workload and seed with the
columns name,id,parent,rid,start_ns,end_ns. For every span name the table
gives the count, the median duration, the median and total self time (the
span minus its direct children), and each ratio next to its base:

  per request   spans of this name / distinct request ids that have any
                span (only for spans that belong to requests)
  self share    this name's total self time / the time of what it ran inside:
                for spans of a request, the summed durations of those
                requests' outermost spans (the client's view of the request);
                for spans outside any request (set-up, snapshots), the summed
                durations of all root spans outside requests
"""

import csv
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path, newline="") as f:
        return [
            {
                "name": r["name"],
                "id": int(r["id"]),
                "parent": int(r["parent"]),
                "rid": int(r["rid"]),
                "dur": int(r["end_ns"]) - int(r["start_ns"]),
            }
            for r in csv.DictReader(f)
        ]


def table(spans):
    child_time = defaultdict(int)
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] += s["dur"]
    request_time = defaultdict(int)  # rid -> duration of its outermost span
    for s in spans:
        if s["rid"]:
            request_time[s["rid"]] = max(request_time[s["rid"]], s["dur"])
    other_root_time = sum(s["dur"] for s in spans if not s["parent"] and not s["rid"])
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    requests = len(request_time)

    rows = []
    for name, items in sorted(by_name.items()):
        durs = [s["dur"] for s in items]
        selfs = [s["dur"] - child_time[s["id"]] for s in items]
        self_total = sum(selfs)
        rids = {s["rid"] for s in items if s["rid"]}
        base = sum(request_time[r] for r in rids) if rids else other_root_time
        base_name = "requests" if rids else "outside requests"
        rows.append([
            name,
            str(len(items)),
            f"{len(items)} / {requests} = {len(items) / requests:.3f}" if rids else "-",
            f"{statistics.median(durs) / 1e3:.3f}",
            f"{statistics.median(selfs) / 1e3:.3f}",
            f"{self_total / 1e6:.3f}",
            f"{self_total / 1e6:.1f} / {base / 1e6:.1f} ms {base_name} = "
            f"{100 * self_total / base:.2f}%" if base else "-",
        ])
    header = ["span", "count", "per request", "dur p50 us", "self p50 us", "self ms",
              "self share"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spans = load(sys.argv[1])
    if not spans:
        sys.exit(f"{sys.argv[1]}: no spans")
    print(table(spans))


if __name__ == "__main__":
    main()
