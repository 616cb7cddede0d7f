"""Output checks behind ``failed_frac``.

An invocation passes when it exited 0, every criterion in its JSON output
passed, every index-compare row gives ``w_minus - w_plus`` on all three
routes for the pair the benchmark generated and, at seed 0, the output
matches the reference tables (``rows`` and ``checks``) kept in
``reference/``, taken at the commit that defined this benchmark; other
top-level keys are not compared.  Rows, columns, check names, pass flags,
integers, strings and nulls must be identical; floats must agree within
``REL_TOL`` relative or both lie at or below ``exact_tol / 10``.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-10


def reference(command):
    path = REFERENCE_DIR / f"{command}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(got, ref, floor, path="$"):
    """First difference between two JSON values under the float rule, or None."""
    if isinstance(ref, float) and isinstance(got, float):
        if got == ref or abs(got - ref) <= REL_TOL * max(abs(got), abs(ref)):
            return None
        if abs(got) <= floor and abs(ref) <= floor:
            return None
        if math.isnan(got) and math.isnan(ref):
            return None
        return f"{path}: {got!r} != {ref!r}"
    if type(got) is not type(ref):
        return f"{path}: type {type(got).__name__} != {type(ref).__name__}"
    if isinstance(ref, dict):
        if list(got) != list(ref):
            return f"{path}: keys {list(got)} != {list(ref)}"
        for key in ref:
            diff = compare(got[key], ref[key], floor, f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if len(got) != len(ref):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = compare(g, r, floor, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == ref else f"{path}: {got!r} != {ref!r}"


def problems(command, exit_code, payload, expected_pairs, ref=None,
             exact_tol=1e-12):
    """Reasons the invocation failed (empty when it passed)."""
    out = []
    if exit_code != 0:
        out.append(f"exit code {exit_code}")
    if payload is None:
        return out + ["no JSON output"]
    failed = [c["name"] for c in payload.get("checks", []) if c.get("passed") is not True]
    if failed or not payload.get("checks"):
        out.append(f"criteria not passed: {failed or 'none reported'}")
    if command == "index-compare":
        rows = payload.get("rows", [])
        if len(rows) != len(expected_pairs):
            out.append(f"{len(rows)} index rows for {len(expected_pairs)} cases")
        for row, (wp, wm) in zip(rows, expected_pairs):
            want = wm - wp
            got = [row.get(k) for k in ("analytic_index", "fredholm_index",
                                        "higson_rounded")]
            if any(type(v) is not int or v != want for v in got):
                out.append(f"{row.get('label')}: indices {got} != w_minus - w_plus = {want}")
    if ref is not None:
        tables = ("rows", "checks")
        diff = compare({k: payload.get(k) for k in tables}, {k: ref[k] for k in tables},
                       exact_tol / 10.0)
        if diff:
            out.append(f"differs from reference: {diff}")
    return out


def _first_float(obj, floor, path=()):
    if isinstance(obj, float) and abs(obj) > 10.0 * floor and math.isfinite(obj):
        return path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, val in items:
        found = _first_float(val, floor, path + (key,))
        if found is not None:
            return found
    return None


def self_test(exact_tol=1e-12):
    """The checker must pass every reference table and fail a table with one
    float moved by 1e-8 relative or one flipped verdict.  Returns the
    failures of the checker itself (empty when it works)."""
    bad = []
    for path in sorted(REFERENCE_DIR.glob("*.json")):
        command = path.stem
        ref = reference(command)
        pairs = ([(r["winding_plus"], r["winding_minus"]) for r in ref["rows"]]
                 if command == "index-compare" else [])
        if problems(command, 0, ref, pairs, ref, exact_tol):
            bad.append(f"{command}: reference fails its own check")
        moved = copy.deepcopy(ref)
        where = _first_float(moved["rows"], exact_tol / 10.0)
        if where is None:
            bad.append(f"{command}: no float to perturb")
        else:
            holder = moved["rows"]
            for key in where[:-1]:
                holder = holder[key]
            holder[where[-1]] *= 1.0 + 1e-8
            if (not problems(command, 0, moved, pairs, ref, exact_tol)
                    or compare(moved, ref, exact_tol / 10.0) is None):
                bad.append(f"{command}: float moved by 1e-8 relative not caught")
        flipped = copy.deepcopy(ref)
        flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
        if (not problems(command, 0, flipped, pairs, ref, exact_tol)
                or compare(flipped, ref, exact_tol / 10.0) is None):
            bad.append(f"{command}: flipped verdict not caught")
    return bad
