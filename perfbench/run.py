"""psilab sweep benchmark: one workload, one seed, fresh processes.

    python3 perfbench/run.py --workload norms-n256 --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program under test is
``src/psilab`` of that checkout, put on ``PYTHONPATH``.  Closed loop, one
client: every subcommand of a pass runs in its own fresh
``python -m psilab.cli <cmd> --format json`` process (through ``child.py``)
and the next starts only after it exits.  BLAS keeps its default thread
count and ``--threads`` is never passed.

``--trace 0`` runs whole passes while the next one still fits in
``--seconds``, then fills the rest of the time with set-up probes (processes
that stop where the sweep would start), and reports the median over passes
of ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` and the median over all set-up
samples of ``setup_s``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (median over traced passes) and
``trace_overhead_frac``.  Every invocation's output is checked
(``check.py``); a failed check counts in ``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Above it a table gives each
metric's median, quartiles and sample count with the machine facts; the
full record, and in traced runs every span, go to
``.perfbench/<workload>-seed<seed>-trace<trace>-<pid>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import tracer
from workloads import EXACT_TOL, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: fewest set-up probe passes per untraced run
PROBE_PASSES = 3
#: a child still running this long after the benchmark started is killed
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_facts():
    import numpy

    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "cpu_model": None,
             "python": platform.python_version(),
             "numpy": numpy.__version__,
             "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
             "blas": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version",
                                                  "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    return facts


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


class Bench:
    """One run: the generated config, the spawned invocations and their checks."""

    def __init__(self, root, workload, seed, work):
        self.root, self.work = root, work
        self.commands = WORKLOADS[workload]
        self.born = self.start = time.monotonic()
        configs, self.expected_pairs = make_config(workload, seed)
        self.config_paths = {}
        for name, config in configs.items():
            path = self.config_paths[name] = work / f"config-{name}.json"
            path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        self.refs = ({c: check.reference(c) for c, _ in self.commands}
                     if seed == 0 else {})
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = self.failed = 0
        self.failures = []
        self.spans = []
        self._seq = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, mode, command, config):
        """Run one child to completion; return its measurements."""
        self._seq += 1
        tag = f"{self._seq:04d}-{mode}-{command}"
        out, report = self.work / f"{tag}.json", self.work / f"{tag}.report"
        argv = [sys.executable, str(CHILD), str(report), mode, command,
                "--config", str(self.config_paths[config]), "--format", "json",
                "--out", str(out)]
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.born))
        timed_out = threading.Event()
        with open(self.work / f"{tag}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"tag": tag, "command": command, "mode": mode, "exit": proc.returncode,
               "wall": t1 - t0, "cpu": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024.0, "setup": None, "problems": []}
        try:
            rep = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            rep = {}
        if "setup_mark" in rep:
            res["setup"] = rep["setup_mark"] - t0
        src = str(self.root / "src")
        if not str(rep.get("psilab_file", "")).startswith(src):
            res["problems"].append(f"psilab not imported from {src}")
        if timed_out.is_set():
            res["problems"].append("timeout")
        if mode == "setup":
            if res["exit"] != 0 or res["setup"] is None:
                res["problems"].append(f"set-up probe failed (exit {res['exit']})")
        else:
            try:
                payload = json.loads(out.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = None
            res["problems"] += check.problems(command, res["exit"], payload,
                                              self.expected_pairs, self.refs.get(command),
                                              EXACT_TOL)
            if res["setup"] is None:
                res["problems"].append("no set-up mark")
        if mode == "trace":
            res["layers"] = tracer.summarize(rep.get("spans", []), rep.get("counters", {}))
            self.spans.append({"invocation": tag, "spans": rep.get("spans", [])})
        self.attempted += 1
        if res["problems"]:
            self.failed += 1
            self.failures.append({"invocation": tag, "problems": res["problems"]})
        return res

    def run_pass(self, mode):
        runs = [self.spawn(mode, c, config) for c, config in self.commands]
        setups = [r["setup"] for r in runs]
        p = {"mode": mode, "wall": sum(r["wall"] for r in runs),
             "cpu": sum(r["cpu"] for r in runs),
             "peak_rss_mb": max(r["rss_mb"] for r in runs),
             "setup": None if None in setups else sum(setups),
             "invocations": [{k: v for k, v in r.items() if k != "layers"} for r in runs]}
        if mode == "trace":
            layers = {}
            for r in runs:
                for k, v in r["layers"].items():
                    layers[k] = layers.get(k, 0) + v
            p["layers"] = layers
        return p

    def fits(self, seconds, est):
        return self.elapsed() + est <= seconds


def measure(bench, seconds, trace):
    """Run the timed passes; return (metrics, quartile table, passes)."""
    table = {}
    if not trace:
        passes = [bench.run_pass("run")]
        while bench.fits(seconds, statistics.median(p["wall"] for p in passes)):
            passes.append(bench.run_pass("run"))
        probes = []
        while len(probes) < PROBE_PASSES or bench.fits(
                seconds, statistics.median(p["wall"] for p in probes)):
            probes.append(bench.run_pass("setup"))
        series = {"wall_s": [p["wall"] for p in passes],
                  "cpu_s": [p["cpu"] for p in passes],
                  "setup_s": [p["setup"] for p in probes + passes if p["setup"] is not None],
                  "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = series[name] or [0.0]
            q1, med, q3 = _quartiles(vals)
            metrics[name] = {"value": med, "unit": unit}
            table[name] = (med, q1, q3, len(series[name]), unit)
        return metrics, table, passes + probes

    passes = []
    while not passes or bench.fits(seconds, statistics.median(
            a["wall"] + b["wall"] for a, b in zip(passes[::2], passes[1::2]))):
        passes.append(bench.run_pass("run"))
        passes.append(bench.run_pass("trace"))
    plain = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]
    metrics = {}
    for name in traced[0]["layers"]:
        vals = [p["layers"][name] for p in traced]
        q1, med, q3 = _quartiles(vals)
        if all(v == vals[0] for v in vals):
            med = vals[0]
        unit = tracer.unit(name)
        table[name] = (med, q1, q3, len(vals), unit)
        if not name.startswith("index_theory.pairing_"):
            metrics[name] = {"value": med, "unit": unit}
    att = table["index_theory.pairing_attempts"][0]
    con = table["index_theory.pairing_conclusive"][0]
    metrics["index_theory.pairing_conclusive_ratio"] = {
        "value": con / att if att else 0.0, "unit": "ratio"}
    overhead = (statistics.median(p["wall"] for p in traced)
                / statistics.median(p["wall"] for p in plain) - 1.0)
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics, table, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd().resolve()
    if not (root / "src" / "psilab" / "cli.py").is_file():
        print(f"no psilab source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    load_start = loadavg()
    checker_bad = check.self_test(EXACT_TOL)
    bench = Bench(root, args.workload, args.seed, work)
    for command, config in bench.commands:  # untimed: compiles bytecode, warms the page cache
        bench.spawn("setup", command, config)
    bench.start = time.monotonic()
    ticks_start = cpu_ticks()
    metrics, table, passes = measure(bench, args.seconds, args.trace)
    elapsed = bench.elapsed()
    ticks_end = cpu_ticks()
    # share of the machine's CPU time the hypervisor gave to other guests
    steal = (None if not (ticks_start and ticks_end and ticks_end[1] > ticks_start[1])
             else (ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1]))
    facts = dict(machine_facts(), loadavg_start=load_start, loadavg_end=loadavg(),
                 steal_frac=steal)
    correct = bench.failed == 0 and not checker_bad
    failed_frac = bench.failed / bench.attempted

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "measured_s": elapsed, "machine": facts,
              "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "failed_frac": failed_frac, "failures": bench.failures,
              "checker_self_test": checker_bad,
              "metrics": {k: {"median": v[0], "q1": v[1], "q3": v[2], "n": v[3],
                              "unit": v[4]} for k, v in table.items()},
              "passes": passes}
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (work / "trace.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "raised"],
             "invocations": bench.spans}), encoding="utf-8")

    kind = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} ({kind}): {len(passes)} passes "
          f"in {elapsed:.1f} s, budget {args.seconds} s; record in {work}")
    blas = facts["blas"] or {}
    print(f"machine: nproc {facts['nproc']}, {facts['cpu_model']}, python "
          f"{facts['python']}, numpy {facts['numpy']}, BLAS {blas.get('name')} "
          f"{blas.get('version')} [{blas.get('openblas configuration')}], "
          f"OPENBLAS_NUM_THREADS={facts['OPENBLAS_NUM_THREADS']}, loadavg "
          f"{' '.join(load_start or [])} -> {' '.join(facts['loadavg_end'] or [])}, "
          f"steal {'n/a' if steal is None else f'{100 * steal:.1f}%'} while measuring")
    print(f"{'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for name, (med, q1, q3, n, unit) in table.items():
        print(f"{name:<44} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>3}  {unit}")
    for name in ("index_theory.pairing_conclusive_ratio", "trace_overhead_frac"):
        if name in metrics:
            print(f"{name:<44} {metrics[name]['value']:>14.6g}")
    if args.trace:
        print(f"pairings conclusive/attempted: {table['index_theory.pairing_conclusive'][0]:g}"
              f"/{table['index_theory.pairing_attempts'][0]:g}")
    print(f"{'failed_frac':<44} {failed_frac:>14.6g} ({bench.failed}/{bench.attempted} "
          "invocations)  ratio")
    for f in bench.failures[:10]:
        print(f"FAILED {f['invocation']}: {'; '.join(f['problems'])}")
    for line in checker_bad:
        print(f"CHECKER SELF-TEST FAILED: {line}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
