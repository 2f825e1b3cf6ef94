#!/usr/bin/env python
"""CI gate: every ``*.trace.json`` under a directory is a valid
Chrome trace-event document with at least one span lane.

Usage::

    PYTHONPATH=src python scripts/assert_trace_schema.py runs [...]

Exits non-zero (listing every problem) if any trace fails
:func:`repro.obs.trace.validate_chrome_trace`, contains no ``"X"``
events, or lacks lane metadata — the properties the ASCII timeline and
``chrome://tracing`` both rely on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def check_trace(path: Path) -> list[str]:
    from repro.obs.trace import validate_chrome_trace

    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    problems = [f"{path}: {p}" for p in validate_chrome_trace(doc)]
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else []
    if not any(e.get("ph") == "X" for e in events if isinstance(e, dict)):
        problems.append(f"{path}: no complete ('X') span events")
    if not any(
        e.get("ph") == "M" and e.get("name") == "thread_name"
        for e in events
        if isinstance(e, dict)
    ):
        problems.append(f"{path}: no thread_name lane metadata")
    return problems


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("runs")]
    traces: list[Path] = []
    for root in roots:
        if root.is_file():
            traces.append(root)
        else:
            traces.extend(sorted(root.rglob("*.trace.json")))
    if not traces:
        print(f"no *.trace.json found under {', '.join(map(str, roots))}",
              file=sys.stderr)
        return 2
    problems: list[str] = []
    for path in traces:
        problems.extend(check_trace(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(traces)} trace(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
