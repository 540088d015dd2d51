#!/usr/bin/env python3
"""Check that --diag files are JSON documents of the diagnostics schema.

Usage:
    check_diag.py DIAG.json [DIAG.json ...]

Each file must parse with the standard JSON reader into an object whose
keys are exactly the six top-level sections obs::DiagnosticsReport writes:
"dropped_events" (a count) and the "stages", "counters", "gauges",
"histograms" and "confusion" lists.

Exit codes: 0 = every file passes, 1 = a file is not JSON or does not have
the schema's keys, 2 = a file is missing or unreadable (CTest maps 2 to
"skipped" via SKIP_RETURN_CODE, so a build whose smoke runs never wrote the
files does not count as a failure).
"""

import json
import sys

SECTIONS = ("stages", "counters", "gauges", "histograms", "confusion")


def check(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"check_diag: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"{path}: not JSON: {exc}"
    if not isinstance(doc, dict):
        return f"{path}: top level is not an object"
    keys = set(doc)
    expected = {"dropped_events", *SECTIONS}
    if keys != expected:
        return (f"{path}: keys {sorted(keys)} differ from {sorted(expected)}")
    if not isinstance(doc["dropped_events"], int):
        return f"{path}: dropped_events is not an integer"
    for section in SECTIONS:
        if not isinstance(doc[section], list):
            return f"{path}: {section} is not a list"
    return None


def main():
    if len(sys.argv) < 2:
        print(__doc__.splitlines()[3].strip(), file=sys.stderr)
        return 2
    failures = [f for f in (check(path) for path in sys.argv[1:]) if f]
    for failure in failures:
        print(f"check_diag: {failure}", file=sys.stderr)
    if not failures:
        print(f"check_diag: {len(sys.argv) - 1} file(s) ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
