"""The public surface: every exported name resolves, the package re-exports
only names that their defining modules export and every function it exports
is one the four sweeps run; the command line loads no package outside the
standard library but numpy; the README's configuration table lists every
config key once."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import psilab
from psilab import config, experiments
from psilab.config import DEFAULTS

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["psilab"] + sorted(f"psilab.{info.name}"
                              for info in pkgutil.iter_modules(psilab.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate names"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_are_module_exports():
    homes = {name: importlib.import_module(getattr(psilab, name).__module__)
             for name in psilab.__all__}
    assert [f"{name} ({home.__name__})" for name, home in homes.items()
            if name not in home.__all__] == []


def test_package_exports_only_what_the_sweeps_run(tmp_path):
    # the four runners at a small grid, with every entered code object recorded
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "grid": {"N": 32, "J": 132},
        "defect_sweep": {"t_exponents": [-2, -1, 0, 2]},
        "ch_compare": {"t_exponents": [1, 2]},
        "homotopy_verify": {"bands": [8, 16], "L": 6, "L_list": [3, 4],
                            "s_values": [0.5, 0.25]},
        "index_compare": {"higson_t_exponents": [3]}}))
    data = config.load_config(str(path))
    grid = config.build_grid(data)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        experiments.run_defect_sweep(grid, config.defect_sweep_cfg(data))
        experiments.run_ch_compare(grid, config.ch_compare_cfg(data))
        experiments.run_homotopy_verify(grid, config.homotopy_cfg(data))
        experiments.run_index_compare(grid, config.index_cfg(data))
    finally:
        sys.setprofile(None)
    functions = {name: getattr(psilab, name) for name in psilab.__all__
                 if inspect.isfunction(getattr(psilab, name))}
    assert len(functions) > 10
    assert [name for name, fn in functions.items() if fn.__code__ not in entered] == []


def fresh_stdout(code):
    """Stdout of ``code`` run in a fresh interpreter on this checkout's
    psilab, so that no module a test has imported is counted."""
    src = Path(psilab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_imports_numpy_alone():
    code = ("import sys; before = set(sys.modules); import psilab.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    loaded = fresh_stdout(code).split()
    outside = set(loaded) - set(sys.stdlib_module_names) - {"numpy", "psilab"}
    assert sorted(outside) == []


def test_sweeps_load_no_random_number_generator(tmp_path):
    # the Lanczos start vector and the kernel frame come from
    # numerics.hashed_normals, so the norm and index sweeps import neither
    # numpy.random nor, through its seeding, hashlib and OpenSSL
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid": {"N": 16, "J": 68}}))
    code = ("import sys; from psilab.cli import main\n"
            "for cmd in ('defect-sweep', 'ch-compare', 'index-compare'):\n"
            f"    main([cmd, '--config', {str(config)!r}, '--out', {str(tmp_path)!r} + '/' + cmd])\n"
            "print(sorted(m for m in ('numpy.random', 'hashlib') if m in sys.modules))")
    assert fresh_stdout(code).splitlines()[-1] == "[]"


WORKER_PROBE = """
import json, os, time

def worker_ticks():
    # utime + stime of every thread but the main one, in clock ticks
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total

from psilab import config, experiments
time.sleep(0.5)
threads, before = len(os.listdir("/proc/self/task")), worker_ticks()
cfg = config.load_config(None)
experiments.run_index_compare(config.build_grid(cfg), config.index_cfg(cfg))
time.sleep(0.5)
print(json.dumps({"threads": threads, "ticks": worker_ticks() - before}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_index_compare_leaves_the_blas_worker_idle():
    # every loop sample is formed in products too small for OpenBLAS to
    # hand to its worker thread, which would then spin for ~0.12 CPU-s
    probe = json.loads(fresh_stdout(WORKER_PROBE).splitlines()[-1])
    if probe["threads"] < 2:
        pytest.skip("BLAS runs no second thread here")
    assert probe["ticks"] <= 1


def leaf_keys(table, prefix=""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_config_table_lists_the_default_keys():
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert sorted(rows) == sorted(leaf_keys(DEFAULTS))
