#!/usr/bin/env python3
"""Render phase plots from a telemetry stream.

Reads an `espsim-telemetry-stream` JSONL file (espsim run/serve
--telemetry PATH --telemetry-period N) and prints an ASCII time series
of derived per-interval metrics: how IPC, the L1-I MPKI, the L1-D miss
rate and ESP pre-execution occupancy evolve over the run. End-of-run
aggregates (the paper's figures) hide phase behaviour — a warmup
transient, a pointer-chasing stretch, an ESP window that only pays
off mid-run; this is the tool that shows it.

The stream holds absolute counter snapshots (see
src/report/telemetry.hh), never rates. Each interval is the difference
of two consecutive snapshots, the first measured from zero (every
counter is zero when the sampler starts); a final snapshot equal to
the one before it adds no interval. Every metric is computed here from
those counter deltas, so any consumer can derive exactly the ratio it
wants.

Standard library only, so it runs anywhere the repo builds.

Usage:
    plot_intervals.py STREAM.jsonl [--config NAME] [--metric NAME]
                      [--width N]

A stream may hold several run blocks (a serve sweep writes one per
config); --config picks one by name, and the first block is the
default. Exit code 0 on success, 1 on a malformed stream, an unknown
config or an unknown metric name.
"""

import argparse
import json
import sys

BAR_WIDTH = 50
SCHEMA = "espsim-telemetry-stream"


def _ratio(deltas, num, den, scale=1.0):
    d = deltas.get(den, 0.0)
    return scale * deltas.get(num, 0.0) / d if d else 0.0


# name -> (description, fn(deltas) -> value)
METRICS = {
    "ipc": ("instructions per cycle",
            lambda d: _ratio(d, "core.instructions", "core.cycles")),
    "l1i_mpki": ("L1-I misses per kilo-instruction",
                 lambda d: _ratio(d, "mem.l1i.misses",
                                  "core.instructions", 1000.0)),
    "l1d_miss_rate": ("L1-D miss fraction",
                      lambda d: _ratio(d, "mem.l1d.misses",
                                       "mem.l1d.accesses")),
    "esp_occupancy": ("ESP pre-execution cycles per cycle",
                      lambda d: _ratio(d, "core.cycle_bucket.esp_pre_exec",
                                       "core.cycles")),
    "events_per_interval": ("events retired in the interval",
                            lambda d: d.get("core.events", 0.0)),
}


def load_blocks(path):
    """The stream's run blocks: [(header, [snapshot, ...]), ...]."""
    blocks = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            doc = json.loads(line)
            if "schema" in doc:
                if doc["schema"] != SCHEMA:
                    raise ValueError(f"{path}: not an {SCHEMA}")
                blocks.append((doc, []))
            elif not blocks:
                raise ValueError(f"{path}:{number}: snapshot before "
                                 "any block header")
            else:
                blocks[-1][1].append(doc)
    if not blocks:
        raise ValueError(f"{path}: no block header")
    return blocks


def intervals(header, snapshots):
    """[(end_cycle, {name: delta})] of consecutive snapshots."""
    names = header["names"]
    prev = [0.0] * len(names)
    rows = []
    for snap in snapshots:
        values = snap["values"]
        if len(values) != len(names):
            raise ValueError(f"snapshot seq {snap.get('seq')}: "
                             "values width != names width")
        if snap.get("final") and values == prev:
            break
        rows.append((snap["cycle"],
                     {name: now - before for name, now, before
                      in zip(names, values, prev)}))
        prev = values
    return rows


def plot_metric(name, header, rows, width):
    description, fn = METRICS[name]
    points = [(end_cycle, fn(deltas)) for end_cycle, deltas in rows]
    peak = max((value for _, value in points), default=0.0)
    print(f"{name} ({description}) — {header.get('config', '?')} on "
          f"{header.get('workload', '?')}, {len(points)} intervals")
    for end_cycle, value in points:
        frac = value / peak if peak else 0.0
        bar = "#" * round(frac * width)
        print(f"  @{end_cycle:>12} {value:>10.4f}  {bar}")
    print()


def main(argv):
    parser = argparse.ArgumentParser(
        description="phase plots from a telemetry stream")
    parser.add_argument("stream")
    parser.add_argument("--config",
                        help="run block to plot (default: the first)")
    parser.add_argument("--metric", action="append",
                        help="metric to plot (default: all); one of "
                             + ", ".join(sorted(METRICS)))
    parser.add_argument("--width", type=int, default=BAR_WIDTH,
                        help="bar width in characters")
    args = parser.parse_args(argv)

    wanted = args.metric or sorted(METRICS)
    for name in wanted:
        if name not in METRICS:
            print(f"error: unknown metric {name!r} (choose from "
                  f"{', '.join(sorted(METRICS))})", file=sys.stderr)
            return 1

    try:
        blocks = load_blocks(args.stream)
        if args.config is None:
            header, snapshots = blocks[0]
        else:
            picked = [b for b in blocks
                      if b[0].get("config") == args.config]
            if not picked:
                raise ValueError(
                    f"no block for config {args.config!r} (stream has "
                    + ", ".join(b[0].get("config", "?")
                                for b in blocks) + ")")
            header, snapshots = picked[0]
        rows = intervals(header, snapshots)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not rows:
        print("error: the block has no intervals", file=sys.stderr)
        return 1

    for name in wanted:
        plot_metric(name, header, rows, args.width)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
