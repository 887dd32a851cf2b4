#!/usr/bin/env python3
"""Schema check for the stats JSON emitted by obs/report.h (--stats-json).

Asserts the document is one object with the seven registry blocks and that
the sketch-layer blocks (obs/sketch.h, obs/rollup.h) are internally
consistent:

  * top level is an object with counters / gauges / histograms / timers /
    sketches / rollups / alerts (all objects, possibly empty);
  * counters and gauges map names to integers; histogram and timer entries
    carry their integer count fields;
  * every sketch entry has integer count/zero and numeric
    relative_accuracy/min/max/mean/p50/p90/p99/p999 with
    zero + sum(buckets) == count, monotone quantiles
    p50 <= p90 <= p99 <= p999, and min <= p50, p999 <= max;
  * every rollup entry's levels all report the identical total and leaves
    (each level's total IS the flat sum — that is the rollup invariant),
    with per-level quantile count == groups;
  * every rollup level's 'top' array holds integer {key, total} entries
    with unique keys in strict (total desc, key asc) order, at most
    'groups' of them, whose totals sum to at most the level total — and
    to exactly the level total when every group is listed (the tier and
    fabric levels). These are consistency checks only: an inflated top-K
    that still sums to the total would pass them, so the exactness of the
    listed totals is proven by the brute-force oracle in
    tests/test_rollup.cc, not here.

  * the alerts block (obs/monitor.h) holds a 'runs' array whose entries
    carry monotone non-decreasing event times, entity indices inside the
    registered entity count, fired/cleared totals matching the event list,
    recovery arrays sized to the window count — and zero fires whenever the
    run scheduled no faults (no false alarms on fault-free runs).

Usage: validate_stats.py STATS.json [--expect-sketch NAME]
                         [--expect-rollup NAME] [--expect-counter NAME]
                         [--expect-fired] [--alerts]

The --expect-* flags (repeatable) additionally require a named entry with
nonzero data — CI uses them to prove a telemetry-enabled benchmark really
exported sketches and rollups; --expect-fired requires at
least one fired alert across monitor runs. With --alerts the input is a
standalone --alerts-json document (the bare {"runs": [...]} object) and only
the alerts schema is checked.

Exits 0 when valid; prints every violation and exits 1 otherwise.
"""

import argparse
import json
import sys

BLOCKS = (
    "counters",
    "gauges",
    "histograms",
    "timers",
    "sketches",
    "rollups",
    "alerts",
)


def is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_sketch(name, sketch, errors):
    where = f"sketches[{name!r}]"
    if not isinstance(sketch, dict):
        errors.append(f"{where}: not an object")
        return
    for field in ("count", "zero"):
        if not is_int(sketch.get(field)) or sketch.get(field, -1) < 0:
            errors.append(f"{where}: missing non-negative integer {field!r}")
            return
    for field in ("relative_accuracy", "min", "max", "mean",
                  "p50", "p90", "p99", "p999"):
        if not is_num(sketch.get(field)):
            errors.append(f"{where}: missing numeric {field!r}")
            return
    buckets = sketch.get("buckets")
    if not isinstance(buckets, dict):
        errors.append(f"{where}: missing object 'buckets'")
        return
    bucketed = 0
    for index, count in buckets.items():
        try:
            int(index)
        except ValueError:
            errors.append(f"{where}: bucket index {index!r} is not an integer")
        if not is_int(count) or count <= 0:
            errors.append(
                f"{where}: bucket {index!r} count must be a positive integer")
            continue
        bucketed += count
    if sketch["zero"] + bucketed != sketch["count"]:
        errors.append(
            f"{where}: zero ({sketch['zero']}) + bucket counts ({bucketed}) "
            f"!= count ({sketch['count']})")
    q = [sketch["p50"], sketch["p90"], sketch["p99"], sketch["p999"]]
    if any(b < a for a, b in zip(q, q[1:])):
        errors.append(f"{where}: quantiles not monotone: {q}")
    if sketch["count"] > 0:
        if sketch["min"] > q[0] or q[-1] > sketch["max"]:
            errors.append(
                f"{where}: quantiles escape [min, max]: "
                f"min={sketch['min']} {q} max={sketch['max']}")
    if not 0 < sketch["relative_accuracy"] < 1:
        errors.append(f"{where}: relative_accuracy outside (0, 1)")


def validate_top(where, level, errors):
    """Checks one rollup level's exact top-K list against its totals."""
    top = level.get("top")
    if not isinstance(top, list):
        errors.append(f"{where}: missing 'top' array")
        return
    previous = None
    keys = set()
    listed = 0
    for i, entry in enumerate(top):
        if (not isinstance(entry, dict) or set(entry) != {"key", "total"}
                or not all(is_int(entry[f]) for f in ("key", "total"))):
            errors.append(f"{where}: top[{i}] must be integer {{key, total}}")
            return
        if entry["key"] in keys:
            errors.append(f"{where}: top[{i}] repeats key {entry['key']}")
        keys.add(entry["key"])
        order = (-entry["total"], entry["key"])
        if previous is not None and order <= previous:
            errors.append(
                f"{where}: top[{i}] breaks strict (total desc, key asc) order")
        previous = order
        listed += entry["total"]
    if len(top) > level["groups"]:
        errors.append(
            f"{where}: {len(top)} top entries exceed {level['groups']} groups")
    if listed > level["total"]:
        errors.append(
            f"{where}: top totals sum to {listed}, above the level total "
            f"{level['total']}")
    elif len(top) == level["groups"] and listed != level["total"]:
        errors.append(
            f"{where}: every group is listed but the top totals sum to "
            f"{listed}, not the level total {level['total']}")


def validate_rollup(name, rollup, errors):
    where = f"rollups[{name!r}]"
    if not isinstance(rollup, dict) or not isinstance(
            rollup.get("levels"), list):
        errors.append(f"{where}: not an object with a 'levels' array")
        return
    totals = set()
    leaves = set()
    for i, level in enumerate(rollup["levels"]):
        lw = f"{where}.levels[{i}]"
        if not isinstance(level, dict) or not isinstance(
                level.get("name"), str):
            errors.append(f"{lw}: needs a string 'name'")
            continue
        for field in ("groups", "leaves", "total"):
            if not is_int(level.get(field)):
                errors.append(f"{lw}: missing integer {field!r}")
                break
        else:
            totals.add(level["total"])
            leaves.add(level["leaves"])
            validate_top(lw, level, errors)
            quantiles = level.get("quantiles")
            if not isinstance(quantiles, dict) or not is_int(
                    quantiles.get("count")):
                errors.append(f"{lw}: missing quantiles object with 'count'")
            elif quantiles["count"] != level["groups"]:
                errors.append(
                    f"{lw}: quantile count {quantiles['count']} != groups "
                    f"{level['groups']} (Summarize feeds one value per group)")
    if len(totals) > 1:
        errors.append(
            f"{where}: level totals disagree ({sorted(totals)}) — every "
            "level must equal the flat sum of the leaves")
    if len(leaves) > 1:
        errors.append(f"{where}: level leaf counts disagree ({sorted(leaves)})")


def validate_alerts(alerts, errors):
    """Checks one {"runs": [...]} document (stats block or --alerts-json)."""
    where = "alerts"
    if not isinstance(alerts, dict) or not isinstance(
            alerts.get("runs"), list):
        errors.append(f"{where}: needs an object with a 'runs' array")
        return 0
    fired_total = 0
    for i, run in enumerate(alerts["runs"]):
        rw = f"{where}.runs[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{rw}: not an object")
            continue
        for field in ("run", "windows", "entities", "faults_scheduled",
                      "fired", "cleared", "breach_windows"):
            if not is_int(run.get(field)) or run[field] < 0:
                errors.append(f"{rw}: missing non-negative integer {field!r}")
                break
        else:
            if not isinstance(run.get("sim"), str):
                errors.append(f"{rw}: missing string 'sim'")
            events = run.get("events")
            if not isinstance(events, list):
                errors.append(f"{rw}: missing 'events' array")
                continue
            fires = sum(1 for e in events if isinstance(e, dict)
                        and e.get("kind") == "fire")
            clears = sum(1 for e in events if isinstance(e, dict)
                         and e.get("kind") == "clear")
            if fires != run["fired"] or clears != run["cleared"]:
                errors.append(
                    f"{rw}: fired/cleared ({run['fired']}/{run['cleared']}) "
                    f"disagree with the event list ({fires}/{clears})")
            if run["faults_scheduled"] == 0 and run["fired"] > 0:
                errors.append(
                    f"{rw}: {run['fired']} alarms fired on a fault-free run")
            fired_total += fires
            previous = None
            for j, event in enumerate(events):
                ew = f"{rw}.events[{j}]"
                if not isinstance(event, dict):
                    errors.append(f"{ew}: not an object")
                    continue
                if event.get("kind") not in ("fire", "clear"):
                    errors.append(f"{ew}: kind must be 'fire' or 'clear'")
                if not isinstance(event.get("entity"), str) or ":" not in                         event.get("entity", ""):
                    errors.append(f"{ew}: missing 'kind:id' entity string")
                index = event.get("entity_index")
                if not is_int(index) or not 0 <= index < run["entities"]:
                    errors.append(
                        f"{ew}: entity_index outside the registered "
                        f"{run['entities']} entities")
                time = event.get("time")
                window = event.get("window")
                if not is_num(time) or not is_int(window) or window < 0:
                    errors.append(f"{ew}: needs numeric time / integer window")
                    continue
                if previous is not None and (window, time) < previous:
                    errors.append(
                        f"{ew}: alert log not in window order")
                previous = (window, time)
            recovery = run.get("recovery")
            if not isinstance(recovery, dict):
                errors.append(f"{rw}: missing 'recovery' object")
                continue
            for series in ("delivered", "latency_sum", "dropped"):
                values = recovery.get(series)
                if not isinstance(values, list) or len(values) !=                         run["windows"]:
                    errors.append(
                        f"{rw}: recovery[{series!r}] must hold one value "
                        f"per window ({run['windows']})")
                elif not all(is_num(v) and v >= 0 for v in values):
                    errors.append(
                        f"{rw}: recovery[{series!r}] values must be >= 0")
    return fired_total


def validate(stats, args):
    errors = []
    if not isinstance(stats, dict):
        return ["top-level JSON value must be an object"]
    for block in BLOCKS:
        if not isinstance(stats.get(block), dict):
            errors.append(f"missing object block {block!r}")
    if errors:
        return errors

    for name, value in stats["counters"].items():
        if not is_int(value) or value < 0:
            errors.append(f"counters[{name!r}]: not a non-negative integer")
    for name, value in stats["gauges"].items():
        if not is_int(value):
            errors.append(f"gauges[{name!r}]: not an integer")
    for name, hist in stats["histograms"].items():
        if not isinstance(hist, dict) or not is_int(hist.get("count")):
            errors.append(f"histograms[{name!r}]: needs an integer 'count'")
    for name, timer in stats["timers"].items():
        if not isinstance(timer, dict) or not is_int(timer.get("count")):
            errors.append(f"timers[{name!r}]: needs an integer 'count'")

    for name, sketch in stats["sketches"].items():
        validate_sketch(name, sketch, errors)
    for name, rollup in stats["rollups"].items():
        validate_rollup(name, rollup, errors)
    fired = validate_alerts(stats["alerts"], errors)
    if args.expect_fired and fired == 0:
        errors.append("expected at least one fired alert across monitor runs")

    for name in args.expect_sketch:
        sketch = stats["sketches"].get(name)
        if not isinstance(sketch, dict) or not sketch.get("count"):
            errors.append(f"expected sketch {name!r} with nonzero count")
    for name in args.expect_rollup:
        rollup = stats["rollups"].get(name)
        if (not isinstance(rollup, dict)
                or not any(level.get("leaves")
                           for level in rollup.get("levels", [])
                           if isinstance(level, dict))):
            errors.append(f"expected rollup {name!r} with nonzero leaves")
    for name in args.expect_counter:
        if name not in stats["counters"]:
            errors.append(f"expected counter {name!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stats", help="stats JSON file (--stats-json output)")
    parser.add_argument("--expect-sketch", action="append", default=[])
    parser.add_argument("--expect-rollup", action="append", default=[])
    parser.add_argument("--expect-counter", action="append", default=[])
    parser.add_argument("--expect-fired", action="store_true",
                        help="require at least one fired alert")
    parser.add_argument("--alerts", action="store_true",
                        help="input is a standalone --alerts-json document")
    args = parser.parse_args()

    try:
        with open(args.stats, encoding="utf-8") as handle:
            stats = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"{args.stats}: {error}", file=sys.stderr)
        return 1

    if args.alerts:
        errors = []
        fired = validate_alerts(stats, errors)
        if args.expect_fired and fired == 0:
            errors.append(
                "expected at least one fired alert across monitor runs")
        if errors:
            for error in errors:
                print(f"{args.stats}: {error}", file=sys.stderr)
            print(f"{args.stats}: INVALID ({len(errors)} violations)",
                  file=sys.stderr)
            return 1
        print(f"{args.stats}: OK ({len(stats['runs'])} monitor runs, "
              f"{fired} fired)")
        return 0

    errors = validate(stats, args)
    if errors:
        for error in errors:
            print(f"{args.stats}: {error}", file=sys.stderr)
        print(f"{args.stats}: INVALID ({len(errors)} violations)",
              file=sys.stderr)
        return 1
    counts = ", ".join(
        f"{len(stats[block])} {block}" for block in BLOCKS)
    print(f"{args.stats}: OK ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
