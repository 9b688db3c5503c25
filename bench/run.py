"""Benchmark of the ``monotri`` command line, one workload per run.

    python3 bench/run.py --workload alpha_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``monotri`` is imported from
``src/``.  One process, one thread, a closed loop with one client: each
operation is one ``monotri`` invocation made in-process through
``monotri.cli.main(argv)`` with stdout captured, started after the previous
one returned.  A run repeats whole rounds of the workload's operations (see
``workloads.py``) until ``--seconds`` have passed, so every run attempts the
same operations in the same proportions.

Times are taken in reference seconds.  A fixed pure-Python computation that
uses nothing from ``monotri`` (``reference_work``) is timed between every two
operations, and each operation's time is divided by the mean of the
reference times just before and just after it, then multiplied by
``REFERENCE_S``, the reference computation's time on the machine the
benchmark was built on.  On a shared machine the speed available to the
process changes in phases of seconds to minutes; the ratio follows the
program's own work and not those phases.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same run is traced (see
``tracing.py``), the spans go to ``bench/out/`` and the metrics are the
per-layer figures.  Every output is checked after the timed phase against the
computations in ``checks.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import CACHE_TOKEN, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The time of ``reference_work`` in the quiet phases of 2 shared vCPUs of an
# Intel Xeon at 2.1 GHz with Python 3.11.7, where times in reference seconds
# come out close to wall seconds.
REFERENCE_S = 0.006


def import_cli():
    """Import ``monotri.cli`` from the checkout's sources, never from
    anywhere else on the path."""
    if not (SRC / "monotri" / "__init__.py").is_file():
        raise SystemExit(f"error: no monotri sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import monotri.cli

    if Path(monotri.cli.__file__).resolve().parent != SRC / "monotri":
        raise SystemExit(f"error: imported monotri from {monotri.cli.__file__}, not from {SRC}")
    return monotri.cli


def reference_work() -> int:
    """A fixed computation of the kind the program does: about 20,000 dict
    entries under tuple keys, look-ups and sums of growing integers
    (binomial coefficients up to about 10**82)."""
    memo = {}
    for a in range(140):
        for b in range(140):
            memo[(a, b)] = memo.get((a - 1, b), 1) + memo.get((a, b - 1), 1)
    return memo[(139, 139)]


def time_reference() -> tuple[float, float]:
    """(wall, CPU) seconds of one ``reference_work``."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports monotri and builds the
    workload's inputs, then exits.  No timeout is passed: with one,
    ``subprocess`` polls for the child's exit in sleeps of up to 50 ms, which
    would be timed along with it."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def invoke(cli, argv, tracer):
    """One operation: (exit code, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    span = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is not None:
                span = tracer.begin("cli.main")
            try:
                code = cli.main(list(argv))
            finally:
                if span is not None:
                    tracer.end(span)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash of the program is a failed operation
        code = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        print(f"operation failed with code {code}: monotri {' '.join(argv)}\n{err.getvalue()[-2000:]}",
              file=sys.stderr)
    return code, out.getvalue(), wall, cpu


def run(args) -> dict:
    cli = import_cli()
    ops = WORKLOADS[args.workload](args.seed)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    cache_file = scratch / "memo.tsv"
    argvs = [tuple(str(cache_file) if a == CACHE_TOKEN else a for a in op.argv) for op in ops]

    # setup_s: the median of one fresh set-up before the first round and one
    # after every round, so that its samples spread over the whole run; each
    # is bracketed by reference timings like an operation.
    setups: list[tuple[float, float, float]] = []

    def sample_setup(before: float) -> None:
        wall = time_setup(args.workload, args.seed)
        setups.append((wall, before, time_reference()[0]))

    tracer = saved = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
    codes = [None] * len(ops)
    first = [b""] * len(ops)
    digests = [None] * len(ops)
    unstable = set()
    failed = 0
    # Per round: each operation's wall and CPU seconds, and the reference
    # timings before every operation and after the last one.
    walls: list[list[float]] = []
    cpus: list[list[float]] = []
    ref_walls: list[list[float]] = []
    ref_cpus: list[list[float]] = []
    stdout_bytes: list[int] = []
    try:
        if not args.trace:
            sample_setup(time_reference()[0])
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < args.seconds:
            r = len(walls)
            cache_file.unlink(missing_ok=True)  # every round starts from an empty cache file
            for per_round in (walls, cpus, ref_walls, ref_cpus):
                per_round.append([])
            stdout_bytes.append(0)
            for i, argv in enumerate(argvs):
                gc.collect()
                ref_wall, ref_cpu = time_reference()
                ref_walls[r].append(ref_wall)
                ref_cpus[r].append(ref_cpu)
                if tracer is not None:
                    tracer.op = (r, i)
                code, out, wall, cpu = invoke(cli, argv, tracer)
                failed += code != 0
                walls[r].append(wall)
                cpus[r].append(cpu)
                data = out.encode()
                stdout_bytes[r] += len(data)
                digest = hashlib.sha256(data).digest()
                if r == 0:
                    codes[i], digests[i] = code, digest
                    first[i] = zlib.compress(data, 1)
                elif (code, digest) != (codes[i], digests[i]):
                    unstable.add(i)
            gc.collect()
            ref_wall, ref_cpu = time_reference()
            ref_walls[r].append(ref_wall)
            ref_cpus[r].append(ref_cpu)
            if not args.trace:
                sample_setup(ref_wall)
    finally:
        if saved is not None:
            tracing.uninstall(saved)
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = len(walls)
    problems = [f"op {i}: output differs between rounds" for i in sorted(unstable)]
    problems += check_outputs(ops, codes, first)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    report_ops(ops, walls)

    # Each operation's time in reference seconds, median over the rounds.
    op_walls = per_op_median([to_reference(w, rw) for w, rw in zip(walls, ref_walls)])
    op_cpus = per_op_median([to_reference(c, rc) for c, rc in zip(cpus, ref_cpus)])
    result = {"correct": not problems, "attempted": len(ops) * rounds, "failed": failed}
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(to_reference([w], [b, a])[0] for w, b, a in setups),
                        "unit": "s"},
            "wall_s": {"value": sum(op_walls), "unit": "s"},
            "cpu_s": {"value": sum(op_cpus), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_walls), "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        write_json(OUT / f"result-{args.workload}-seed{args.seed}.json", {
            **result, "ops": [" ".join(op.argv) for op in ops], "wall_s_per_op": walls, "cpu_s_per_op": cpus,
            "reference_wall_s": ref_walls, "reference_cpu_s": ref_cpus, "setup_wall_before_after_s": setups,
        })
    else:
        per_round = [tracing.layer_figures([s for s in tracer.spans if s.op[0] == r], stdout_bytes[r])
                     for r in range(rounds)]
        result["metrics"] = {name: {"value": median_figure([f[name] for f in per_round], unit), "unit": unit}
                             for name, unit in tracing.PER_LAYER}
        varying = [name for name, unit in tracing.PER_LAYER
                   if unit in ("count", "bytes") and len({f[name] for f in per_round}) > 1]
        if varying:
            print(f"counts differ between rounds: {varying}", file=sys.stderr)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "round_wall_s": [sum(w) for w in walls], "wall_s": sum(op_walls), "per_round": per_round,
        })
    return result


def to_reference(times, refs) -> list[float]:
    """Seconds in reference seconds: each time divided by the mean of the
    reference timings just before and just after it (``refs`` has one entry
    more than ``times``), times ``REFERENCE_S``."""
    return [t / ((before + after) / 2) * REFERENCE_S for t, before, after in zip(times, refs, refs[1:])]


def median_figure(values, unit: str):
    """Median over rounds; a count that agrees in every round stays an integer."""
    value = statistics.median(values)
    return int(value) if unit in ("count", "bytes") and value == int(value) else value


def write_json(path: Path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def check_outputs(ops, codes, first) -> list[str]:
    import monotri.evaluate
    from checks import Checker

    checker = Checker(lambda row: monotri.evaluate.alpha(row, "operator_alt"))
    problems = []
    for i, op in enumerate(ops):
        if codes[i] != 0:
            continue
        stdout = zlib.decompress(first[i]).decode()
        problems += [f"op {i} (monotri {' '.join(op.argv)}): {p}" for p in checker.check(op, stdout)]
    return problems


def per_op_median(rounds: list[list[float]]) -> list[float]:
    return [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]


def report_ops(ops, walls) -> None:
    """Median time of each operation, slowest first, on stderr."""
    medians = [statistics.median(ws[i] for ws in walls) for i in range(len(ops))]
    print(f"{len(walls)} round(s) of {len(ops)} operations, "
          f"{' '.join(f'{sum(ws):.3f}' for ws in walls)} s; median ms per operation:", file=sys.stderr)
    for i in sorted(range(len(ops)), key=lambda i: -medians[i]):
        print(f"  {1000 * medians[i]:9.1f}  monotri {' '.join(ops[i].argv)[:100]}", file=sys.stderr)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        import_cli()
        WORKLOADS[args.workload](args.seed)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
