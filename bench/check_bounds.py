#!/usr/bin/env python3
"""Checks bench reports against the declarative gates of bounds.json.

Usage: check_bounds.py [--skip-timing] BOUNDS REPORT [REPORT...]

BOUNDS maps a report's file name to its list of gates. A gate names an
fnmatch pattern over the report's metric names and exactly one bound,
"min" (>=), "max" (<=) or "eq" (==):

  {"metric": "*.hit_rate", "min": 0.3}                      every match >= 0.3
  {"metric": "*.hit_rate", "aggregate": "max", "min": 0.6}  the largest >= 0.6
  {"metric": "*.match", "eq": 1, "count": 4}                4 matches, all == 1
  {"metric": "ft.speedup", "min": 2,
   "when": {"metric": "config.hardware_threads", "min": 4}}

"aggregate" is "each" (the default), "max" or "min". "count" pins how many
metrics the pattern matches. "when" is a guard with the same fields: the
gate is skipped unless the guard holds. A pattern, in a gate or a guard,
that matches nothing fails the check, so a renamed metric cannot pass
silently. "why" is free text printed with the gate. "timing": true marks a
gate on wall-clock figures; --skip-timing leaves those out, for a run on a
machine that other work shares.

Exit status: 0 when every gate holds, 1 when any fails, 2 on bad input.
"""
import fnmatch
import json
import os
import sys

OPS = {
    "min": lambda v, b: v >= b,
    "max": lambda v, b: v <= b,
    "eq": lambda v, b: v == b,
}
AGGREGATES = {"each": None, "max": max, "min": min}
FIELDS = {"metric", "aggregate", "count", "when", "why", "timing", *OPS}


def validate(gate):
    ops = [k for k in OPS if k in gate]
    if (set(gate) - FIELDS or "metric" not in gate or len(ops) != 1
            or gate.get("aggregate", "each") not in AGGREGATES):
        raise ValueError(f"malformed gate {gate}")
    if "when" in gate:
        validate(gate["when"])
    return ops[0]


def matches(gate, metrics):
    """The metric names the gate's pattern selects, or None and why not."""
    names = sorted(n for n in metrics if fnmatch.fnmatchcase(n, gate["metric"]))
    if not names:
        return None, f"{gate['metric']} matches no metric"
    if "count" in gate and len(names) != gate["count"]:
        return None, f"{gate['metric']} matches {len(names)} metrics, want {gate['count']}"
    return names, ""


def holds(gate, op, metrics, names):
    bound = gate[op]
    aggregate = gate.get("aggregate", "each")
    if aggregate == "each":
        bad = [f"{n}={metrics[n]:g}" for n in names if not OPS[op](metrics[n], bound)]
        return not bad, ", ".join(bad) or f"{len(names)} metrics"
    value = AGGREGATES[aggregate](metrics[n] for n in names)
    return OPS[op](value, bound), f"{aggregate}={value:g}"


def check(gates, metrics, label, skip_timing):
    """Prints one line per gate; returns the number that failed."""
    failed = 0
    for gate in gates:
        op = validate(gate)
        text = f"{label}: {gate['metric']} {gate.get('aggregate', 'each')} {op} {gate[op]}"
        if skip_timing and gate.get("timing"):
            print(f"skip {text}: timing gate")
            continue
        guard = gate.get("when")
        if guard is not None:
            names, why = matches(guard, metrics)
            guard_op = validate(guard)
            if names is None:
                print(f"FAIL {text}: guard {why}")
                failed += 1
                continue
            if not holds(guard, guard_op, metrics, names)[0]:
                print(f"skip {text}: guard {guard['metric']} {guard_op} {guard[guard_op]} "
                      "does not hold")
                continue
        names, why = matches(gate, metrics)
        ok, detail = (False, why) if names is None else holds(gate, op, metrics, names)
        print(f"{'ok  ' if ok else 'FAIL'} {text}: {detail}")
        if not ok and "why" in gate:
            print(f"     ({gate['why']})")
        failed += not ok
    return failed


def main(argv):
    skip_timing = "--skip-timing" in argv
    argv = [a for a in argv if a != "--skip-timing"]
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            bounds = json.load(f)["reports"]
        failed = 0
        for path in argv[2:]:
            name = os.path.basename(path)
            if name not in bounds:
                raise ValueError(f"{argv[1]} has no gates for {name}")
            with open(path) as f:
                doc = json.load(f)
            metrics = {k: v["value"] for k, v in doc["metrics"].items()}
            failed += check(bounds[name], metrics, name, skip_timing)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"check_bounds: {e}", file=sys.stderr)
        return 2
    print(f"{failed} gate(s) failed" if failed else "all gates hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
