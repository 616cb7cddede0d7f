"""One psilab CLI invocation, run as ``python -m psilab.cli`` would run it.

Usage: python child.py REPORT MODE SUBCOMMAND [CLI ARGS...]

MODE is one of
  run      run the subcommand;
  trace    run it with the outside tracer installed;
  setup    stop as soon as the sweep runner would start;
  profile  run it under cProfile (used by the self-test).

REPORT receives a JSON object when the process ends: ``setup_mark``, the
``time.monotonic()`` (system-wide on Linux, so comparable with the parent's
clock) at which the last of ``config.load_config`` / ``config.build_grid``
returned, the path of the imported ``psilab`` package and, when traced, the
spans and shape-computed counters.  In profile mode REPORT receives the
pstats dump instead.
"""

from __future__ import annotations

import cProfile
import json
import runpy
import sys
import time

import tracer


class _SetupDone(BaseException):
    """Raised in setup mode where the sweep runner would start; a
    BaseException so that no ``except Exception`` in the CLI stops it."""


def main():
    report, mode, *cli_args = sys.argv[1:]
    marks = {}

    def mark_on_return(name, fn):
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks["setup_mark"] = time.monotonic()
            return result
        return marked

    def stop_at_runner(name, fn):
        def stopped(*args, **kwargs):
            marks.setdefault("setup_mark", time.monotonic())
            raise _SetupDone
        return stopped

    trace = tracer.Tracer() if mode == "trace" else None
    if trace is not None:
        trace.install()
    tracer.install(mark_on_return, [("config", "load_config"), ("config", "build_grid")])
    if mode == "setup":
        import psilab.experiments as experiments
        runners = [("experiments", n) for n in vars(experiments) if n.startswith("run_")]
        tracer.install(stop_at_runner, runners)

    import psilab
    sys.argv = ["psilab", *cli_args]
    code = 0
    profiler = cProfile.Profile() if mode == "profile" else None
    try:
        if profiler is not None:
            profiler.runcall(runpy.run_module, "psilab.cli", run_name="__main__",
                             alter_sys=True)
        else:
            runpy.run_module("psilab.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except _SetupDone:
        code = 0
    finally:
        if profiler is not None:
            profiler.dump_stats(report)
        else:
            out = dict(marks, psilab_file=psilab.__file__)
            if trace is not None:
                out["spans"] = trace.spans
                out["counters"] = trace.counters
            with open(report, "w", encoding="utf-8") as fh:
                json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
