"""Benchmark of the oamlis command line: four workloads, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each invocation runs one workload in a fresh process.  It drives the public
entry point ``oamlis.cli.main(argv)`` in-process, with BLAS's default thread
count, from the sources under ``src/`` next to this directory.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_SAMPLES`` cold starts, each a fresh
  interpreter that imports ``oamlis.cli`` and parses the workload's argv,
  timed from spawn to exit.  The starts are spread over the run, between
  passes, so that one burst of load on the host cannot slow them all.
* ``wall_s``: wall time of the fastest pass over the workload's CLI calls.
* ``cpu_s``: user+sys CPU time of the pass that used least, from
  ``getrusage``; it includes BLAS threads, so a change in parallelism shows
  as a shift between ``wall_s`` and ``cpu_s``.
* ``peak_rss_mb``: peak resident set size of this process, in MiB.

An untimed warm-up pass over the shrunken inputs comes first.  Timed passes
repeat until the next one would end after ``--seconds`` seconds, and at
least ``MIN_PASSES`` run.  On a shared host, other tenants' load slows
every instruction of a pass, ``cpu_s`` as much as ``wall_s``, in bursts
that last from seconds to a whole run; the fastest of many short passes is
the least disturbed reading of the program's own cost, and it moves far
less from run to run than the median pass does.  So the workloads are sized
for short passes (about 1 to 4 s, 9 s for ``mode-count``).

``--trace 1`` reports per-layer metrics instead: one untraced pass, then one
pass under :class:`spans.Tracer`, which gives the self time of each layer
and counts of its work; ``trace.overhead_s`` is the difference between the
two passes' wall times.  It adds the import time of ``numerics`` and
``detect`` from ``python -X importtime`` and, for ``spectrum`` calls, the
same SVD timed in a subprocess with ``OPENBLAS_NUM_THREADS=1``.

Every pass writes into a new, empty directory under ``.bench_out/``, which
is removed after the pass outside the timed region: overwriting CSVs that
already reached disk costs far more than writing new ones.  Each CLI call's
outputs are checked against ``reference.json`` (see ``outputs.py``);
``attempted`` counts CLI calls and ``failed`` those that raised or whose
outputs left the reference.  The last line of standard output is the JSON
result; the lines before it give the environment and each metric with its
unit.  ``--smoke`` runs shrunken inputs, for the harness's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import outputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Seed at which the reference BER rows were recorded.
REFERENCE_SEED = 0
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MIN_PASSES = 3
SUBPROCESS_TIMEOUT = 150

PRESETS = ("equal", "downlink", "uplink")
RECEIVER_CALLS = (
    ["ber", "--modes", "0,4", "--strategies", "mf,id_smart,ed_smart"],
    ["tnr", "--modes", "0,4"],
)
RECEIVER_TRIALS = "20000"

# Each workload makes one layer dominate and bypasses another (see
# BENCHMARK.json for the one-line reasons).  "calls" are the measured CLI
# argv lists, "smoke" the same calls on shrunken inputs.
WORKLOADS = {
    # Lattice SVD of a 2828 x 2828 coupling matrix plus 62 OAM energies:
    # numerics.svd_spectrum dominates, then numerics.bessel_j.
    "mode-count": {
        "calls": [["spectrum", "--T", "15", "--R", "15", "--D", "50"]],
        "smoke": [["spectrum", "--T", "5", "--R", "5", "--D", "50"]],
    },
    # Path gains of the three presets at 500 m: numerics.bessel_j dominates;
    # neither the SVD nor the Monte Carlo runs.  The shrunken inputs are the
    # same, so the warm-up pass is a full one.
    "link-budget": {
        "calls": [["pathgain", "--preset", p, "--distances", "500"] for p in PRESETS],
        "smoke": [["pathgain", "--preset", p, "--distances", "500"] for p in PRESETS],
    },
    # Monte Carlo BER (13 SNR points x 2e4 trials, 6 curves) and a TNR sweep
    # that reuses one draw across 33 thresholds: the detect layer dominates.
    "receiver": {
        "calls": [[*c, "--trials", RECEIVER_TRIALS] for c in RECEIVER_CALLS],
        "smoke": [[*c, "--trials", "10000"] for c in RECEIVER_CALLS],
        "seeded": True,
    },
    # Aperture maps written as about 16 MB of CSV: the experiments layer's
    # CSV formatting and writing dominate.
    "maps": {
        "calls": [["profiles", "--resolution", "151"]],
        "smoke": [["profiles", "--resolution", "32"]],
    },
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in spans.LAYERS},
    "numerics.svd_spectrum_1t_s": "s",
    "numerics.import_s": "s",
    "detect.import_s": "s",
    "modes.matrix_entries": "count",
    "numerics.bessel_j_calls": "count",
    "numerics.bessel_j_evals": "count",
    "oam.rx_field_radial_calls": "count",
    "oam.rx_field_radial_useful_ratio": "ratio",
    "detect.mc_trials": "count",
    "detect.optimize_threshold_calls": "count",
    "experiments.csv_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

_SETUP_CODE = """
import json, sys
from oamlis import cli
parser = cli.build_parser()
for argv in json.loads(sys.argv[1]):
    parser.parse_args(argv)
"""

_SVD_CODE = """
import json, sys, time
from oamlis import cli, experiments, modes, numerics
args = vars(cli.build_parser().parse_args(json.loads(sys.argv[1])))
overrides = {k: v for k, v in args.items() if k not in ("verb", "config") and v is not None}
config = experiments.apply_overrides(experiments.default_config("spectrum"), **overrides)
scenario = config.scenario()
spacing = config.spacing * config.wavelength
matrix = modes.coupling_matrix(
    modes.disk_grid(scenario.radius_tx, spacing),
    modes.disk_grid(scenario.radius_rx, spacing),
    scenario.kappa,
    scenario.distance,
)
start = time.perf_counter()
numerics.svd_spectrum(matrix)
print(time.perf_counter() - start)
"""


def workload_calls(name: str, seed: int, smoke: bool) -> list:
    spec = WORKLOADS[name]
    calls = [list(argv) for argv in spec["smoke" if smoke else "calls"]]
    if spec.get("seeded"):
        calls = [[*argv, "--seed", str(seed)] for argv in calls]
    return calls


def _python(args: list, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` with ``src/`` on the import path."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    full_env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **(env or {})}
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=full_env,
        capture_output=True,
        text=True,
        check=True,
        timeout=SUBPROCESS_TIMEOUT,
    )


def cold_start(calls: list) -> float:
    """Seconds for a fresh interpreter to import ``oamlis.cli`` and parse ``calls``."""
    start = time.perf_counter()
    _python(["-c", _SETUP_CODE, json.dumps(calls)])
    return time.perf_counter() - start


def import_times(stderr: str) -> dict:
    """Import time of each oamlis module without its nested oamlis modules.

    ``-X importtime`` prints a module after the modules it imported, indented
    one level deeper, with its cumulative time in microseconds.
    """
    pending: list = []
    exclusive = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        name = raw.strip()
        if not name.startswith("oamlis"):
            continue
        depth = len(raw) - len(raw.lstrip())
        nested = sum(cumulative for d, cumulative in pending if d > depth)
        pending = [entry for entry in pending if entry[0] <= depth]
        pending.append((depth, int(parts[1])))
        exclusive[name] = (int(parts[1]) - nested) / 1e6
    return exclusive


def measure_imports() -> dict:
    samples = [
        import_times(_python(["-X", "importtime", "-c", "import oamlis.cli"]).stderr)
        for _ in range(IMPORT_SAMPLES)
    ]
    return {
        f"{module}.import_s": statistics.median(s[f"oamlis.{module}"] for s in samples)
        for module in ("numerics", "detect")
    }


def measure_svd_single_thread(calls: list) -> float:
    """SVD time of every ``spectrum`` call's matrix with one BLAS thread."""
    total = 0.0
    for argv in calls:
        if argv[0] == "spectrum":
            done = _python(["-c", _SVD_CODE, json.dumps(argv)], env={"OPENBLAS_NUM_THREADS": "1"})
            total += float(done.stdout.split()[-1])
    return total


class Tally:
    """CLI calls attempted and failed, over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_pass(cli, calls: list, directory: Path, reference: list, exact_ber: bool, tally: Tally):
    """One timed pass over ``calls``; returns (wall, cpu) seconds.

    Checking the outputs and removing ``directory`` happen after the timed
    region.
    """
    directory.mkdir(parents=True)
    sink = io.StringIO()
    errors = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for index, argv in enumerate(calls):
        try:
            with contextlib.redirect_stdout(sink):
                cli.main([*argv, "--out", str(directory / f"call{index}")])
        except (Exception, SystemExit):
            errors.append(traceback.format_exc())
        else:
            errors.append(None)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    for index, (argv, error) in enumerate(zip(calls, errors)):
        if error is not None:
            problems = [error]
        elif index >= len(reference):
            problems = ["no reference recorded for this call"]
        else:
            found = outputs.observe(directory / f"call{index}", argv[0])
            problems = outputs.compare(found, reference[index], exact_ber)
        tally.attempted += 1
        if problems:
            tally.failed += 1
            print(f"FAILED {' '.join(argv)}:", *problems, sep="\n  ", file=sys.stderr)
    shutil.rmtree(directory)
    return wall, cpu


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    pattern = str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def measure(args, cli, calls, warmup, reference, run_dir: Path, tally: Tally) -> dict:
    """Per-layer metrics if ``args.trace``, else end-to-end ones.

    ``reference`` holds the reference outputs of ``calls`` and of the
    shrunken ``warmup`` calls, under "full" and "smoke".
    """
    exact_ber = args.seed == REFERENCE_SEED
    passes = itertools.count()

    def one_pass(which="full"):
        return run_pass(
            cli,
            warmup if which == "smoke" else calls,
            run_dir / f"pass{next(passes)}",
            reference[which],
            exact_ber,
            tally,
        )

    if args.trace:
        metrics = measure_imports()
        metrics["numerics.svd_spectrum_1t_s"] = measure_svd_single_thread(calls)
        untraced, _ = one_pass()
        with spans.Tracer() as tracer:
            traced, _ = one_pass()
        metrics.update(tracer.metrics())
        attributed = sum(tracer.self_times().values())
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.unattributed_s"] = traced - attributed
        return metrics

    cold_start(calls)  # uncounted: fills the bytecode cache
    one_pass("smoke")
    setups, walls, cpus = [], [], []
    start = time.perf_counter()
    while True:
        # One cold start before a pass whenever the run is further along
        # than the share of SETUP_SAMPLES taken so far.
        taken = len(setups)
        if taken < SETUP_SAMPLES and taken * args.seconds <= SETUP_SAMPLES * (time.perf_counter() - start):
            setups.append(cold_start(calls))
        wall, cpu = one_pass()
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(cold_start(calls))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"passes: {len(walls)}; wall_s per pass: {', '.join(f'{w:.4f}' for w in walls)}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": min(walls),
        "cpu_s": min(cpus),
        "peak_rss_mb": peak,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs")
    args = parser.parse_args(argv)

    if not (SRC / "oamlis" / "cli.py").is_file():
        print(f"perfbench: no oamlis sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oamlis import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported oamlis from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    calls = workload_calls(args.workload, args.seed, args.smoke)
    warmup = workload_calls(args.workload, args.seed, smoke=True)
    recorded = json.loads(REFERENCE.read_text())
    reference = {
        "full": recorded["smoke" if args.smoke else "full"][args.workload],
        "smoke": recorded["smoke"][args.workload],
    }
    run_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    print("environment:", json.dumps(environment(), sort_keys=True))
    try:
        metrics = measure(args, cli, calls, warmup, reference, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    print(f"ops: {tally.attempted} attempted, {tally.failed} failed")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
