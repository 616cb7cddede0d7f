"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py      (from the root of a checkout)

1. The output checker passes every reference table and fails a copy with
   one float moved by 1e-8 relative or one flipped verdict.
2. On a small config, the traced call count of every wrapped function
   equals the call count cProfile records for it, for all four
   subcommands.
3. Targets that do not exist are skipped by the tracer and report 0.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import inspect
import json
import os
import pstats
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
SMALL = {
    "grid": {"N": 32, "J": 132},
    "defect_sweep": {"t_exponents": [-2, -1, 0, 1, 2, 3]},
    "ch_compare": {"t_exponents": [1, 2, 3, 4]},
    "homotopy_verify": {"bands": [10, 20], "L": 6, "L_list": [3, 4],
                        "s_values": [0.5, 0.25, 0.125]},
    "index_compare": {"higson_t_exponents": [2, 3]},
}
COMMANDS = ("defect-sweep", "ch-compare", "homotopy-verify", "index-compare")


def _child(tmp, env, mode, command, config):
    report = tmp / f"{command}.{mode}"
    subprocess.run([sys.executable, str(HERE / "child.py"), str(report), mode, command,
                    "--config", str(config), "--format", "json",
                    "--out", str(tmp / f"{command}.{mode}.json")],
                   cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=False, timeout=600)
    return report


def profiled_counts(path, originals):
    stats = pstats.Stats(str(path)).stats
    out = {}
    for name, fn in originals.items():
        code = inspect.unwrap(fn).__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[name] = entry[1] if entry else 0
    return out


def main():
    root = Path.cwd().resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    ok = True

    bad = check.self_test()
    print("checker self-test:", "PASS" if not bad else "FAIL " + "; ".join(bad))
    ok &= not bad

    originals = tracer.install(lambda name, fn: fn)
    missing = sorted(set(tracer.NAMES) - set(originals))
    if missing:
        print("targets absent at this commit (reported as 0):", ", ".join(missing))
    with tempfile.TemporaryDirectory(dir=root) as tmpname:
        tmp = Path(tmpname)
        config = tmp / "small.json"
        config.write_text(json.dumps(SMALL), encoding="utf-8")
        for command in COMMANDS:
            spans = json.loads(_child(tmp, env, "trace", command, config)
                               .read_text(encoding="utf-8"))["spans"]
            traced = tracer.summarize(spans, {})
            profiled = profiled_counts(_child(tmp, env, "profile", command, config),
                                       originals)
            diff = {n: (traced[n + ".calls"], c) for n, c in profiled.items()
                    if traced[n + ".calls"] != c}
            total = sum(profiled.values())
            good = not diff and total > 0
            print(f"trace vs cProfile, {command}: "
                  + (f"PASS ({total} calls)" if good else f"FAIL {diff}"))
            ok &= good

    fake = [("quantize", "no_such_function"), ("index_theory", "BottPair.no_such_method"),
            ("no_such_module", "f"), ("symbols", "NoSuchClass.f")]
    wrapped = tracer.install(lambda name, fn: fn, fake)
    zeros = tracer.summarize([], {})
    good = not wrapped and all(v == 0 for v in zeros.values())
    print("absent targets report 0:", "PASS" if good else f"FAIL {wrapped}")
    ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
