"""Run one sqzmzi benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

The workload runs in this process, in a closed loop with one client: each
operation starts when the previous one has been checked.  sqzmzi is imported
from src/ of the checkout this file sits in.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
the first third of the run is untraced, the rest records spans around every
call into a layer, and the JSON object holds the per-layer metrics.  Each run
also writes a record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is timed in fresh interpreters started between rounds, spread evenly
# over the untraced run: probes made back to back all fall in one of the
# host's CPU speed states, and their median then spread 0.25 between runs
SETUP_PROBES = 11
SPANS_WRITTEN = 200_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
# the end-to-end metrics of the result line, the ones BENCHMARK.json bounds.
# latency_p50_ms stays in the run record only: on a shared host whose CPU speed
# switches between states up to 2x apart, the median of one run falls between
# the fast and the slow mode and jumps with the share of the run spent in each;
# over ten 60 s runs it spread up to 0.26 of its median, past the largest bound
# allowed, where the mean (ops_per_s) and the p90 spread less
RESULT_METRICS = ("setup_s", "ops_per_s", "latency_p90_ms", "peak_rss_mib")


def import_package() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "sqzmzi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sqzmzi package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"sqzmzi.{name}") for name in tracing.LAYERS}
    return SimpleNamespace(**mods)


def setup(name: str, seed: int, workdir: Path):
    """Everything before the first operation: imports and the workload's inputs."""
    sqz = import_package()
    tracer = tracing.Tracer()
    workdir.mkdir(parents=True, exist_ok=True)
    return tracer, WORKLOADS[name](sqz, tracer, seed, workdir)


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Phase:
    """Operations of one stretch of the run, traced or not."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.round_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.busy = 0.0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.layer_sums: dict[str, float] = defaultdict(float)
        self.first_spans: list[list] | None = None


def run_phase(wl, tracer, budget: float, traced: bool, probe=None) -> Phase:
    """Whole rounds until one more round would overrun the budget (at least one).

    `probe`, if given, is called SETUP_PROBES times between rounds, spread
    evenly over the budget; the calls left when the rounds end follow them."""
    ph = Phase()
    start = time.perf_counter()
    round_times = []
    probes = 0 if probe else SETUP_PROBES
    while True:
        r0 = time.perf_counter()
        ok_before, busy_before = len(ph.latencies), ph.busy
        for op in wl.round_ops():
            if traced:
                tracer.begin_op()
            error = None
            t = time.perf_counter()
            try:
                out = wl.execute(op)
            except Exception as exc:  # a failed operation is counted; the run goes on
                error = exc
            dt = time.perf_counter() - t
            if traced:
                spans = tracer.end_op()
                if ph.first_spans is None:
                    ph.first_spans = spans[:SPANS_WRITTEN]
                for key, value in tracing.op_metrics(spans).items():
                    if key == "oracle.peak_alloc_mib":
                        ph.layer_sums[key] = max(ph.layer_sums[key], value)
                    else:
                        ph.layer_sums[key] += value
            ph.attempted += 1
            ph.busy += dt
            if error is not None:
                ph.failed += 1
                ph.failures[f"{type(error).__name__}: {str(error)[:120]}"] += 1
                continue
            ph.latencies.append(dt)
            try:
                problems = wl.check(op, out)
            except Exception as exc:  # malformed output
                problems = [f"check raised {exc!r}"]
            if problems:
                ph.incorrect += 1
                ph.problems += problems[: max(0, 5 - len(ph.problems))]
        round_busy = ph.busy - busy_before
        ph.round_rates.append((len(ph.latencies) - ok_before) / round_busy if round_busy > 0 else 0.0)
        round_times.append(time.perf_counter() - r0)
        if probes < SETUP_PROBES and time.perf_counter() - start >= probes * budget / SETUP_PROBES:
            probe()
            probes += 1
        if time.perf_counter() - start + statistics.fmean(round_times) > budget:
            for _ in range(probes, SETUP_PROBES):
                probe()
            return ph


def end_to_end(ph: Phase, setup_times: list[float], rss_mib: float) -> dict[str, dict]:
    lat_ms = [1e3 * x for x in ph.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= 2 else (lat_ms or [float("nan")])[0]
    values = {
        "setup_s": (statistics.median(setup_times), quartiles(setup_times)),
        "ops_per_s": (len(ph.latencies) / ph.busy if ph.busy else 0.0, quartiles(ph.round_rates)),
        "latency_p50_ms": (statistics.median(lat_ms) if lat_ms else float("nan"), quartiles(lat_ms)),
        "latency_p90_ms": (p90, {"n": len(lat_ms), "beyond": sum(x > p90 for x in lat_ms)}),
        "peak_rss_mib": (rss_mib, {}),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], **extra} for k, (v, extra) in values.items()}


def per_layer(ph: Phase, absent: list[str]) -> dict[str, dict]:
    ops = max(ph.attempted, 1)
    sums = ph.layer_sums
    out = {}
    for name, (unit, needs) in tracing.METRICS.items():
        missing = [n for n in needs if n in absent]
        if missing:
            out[name] = {"value": None, "unit": unit, "absent": missing}
        elif name == "oracle.peak_alloc_mib":
            out[name] = {"value": sums[name], "unit": unit}
        elif name == "oracle.draws_per_unique":
            unique = sums["_unique_normals"]
            out[name] = {"value": sums["oracle.normals_drawn"] / unique if unique else 0.0, "unit": unit}
        else:
            out[name] = {"value": sums[name] / ops, "unit": unit}
    return out


def probe_setup(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it has done `setup`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed: exit {code}, {line!r}")
    return dt


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        loose = ROOT / ".git" / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        return None
    return None


def versions() -> dict[str, str | int | None]:
    from importlib import metadata

    import numpy

    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": click_version,
        "nproc": os.cpu_count(),
        "commit": commit(),
    }


def write_spans(path: Path, spans: list[list]) -> None:
    t0 = spans[0][1] if spans else 0.0
    with path.open("w") as f:
        for i, (name, start, end, parent, raised, _) in enumerate(spans):
            f.write(json.dumps({"id": i, "name": name, "start_us": round(1e6 * (start - t0), 3),
                                "end_us": round(1e6 * (end - t0), 3), "parent": parent,
                                "raised": raised}) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # one client and no extra threads: numpy's BLAS would start a worker per
    # core; set before numpy is imported, and inherited by the set-up probes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        tracer, wl = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace}
        setup_times: list[float] = []

        def probe() -> None:
            setup_times.append(probe_setup(args.workload, args.seed))

        if args.trace:
            plain = run_phase(wl, tracer, args.seconds / 3.0, traced=False, probe=probe)
            tracer.install()
            try:
                traced = run_phase(wl, tracer, 2.0 * args.seconds / 3.0, traced=True)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [run_phase(wl, tracer, args.seconds, traced=False, probe=probe)]
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final_problems = wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [x for p in phases for x in p.problems] + final_problems
    correct = not problems
    e2e = end_to_end(phases[0], setup_times, rss_mib)
    record.update(correct=correct, attempted=attempted, failed=failed,
                  incorrect=sum(p.incorrect for p in phases), problems=problems[:20],
                  failures=dict(sum((p.failures for p in phases), Counter())),
                  end_to_end=e2e, versions=versions())

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for name, m in e2e.items():
        print(f"{name:16s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    for text, n in record["failures"].items():
        print(f"  failed x{n}: {text}")
    for text in problems[:10]:
        print(f"  incorrect: {text}")
    if args.trace:
        layers = per_layer(phases[1], tracer.absent)
        plain_p50, traced_p50 = (statistics.median(p.latencies) if p.latencies else float("nan") for p in phases)
        overhead = {"untraced_p50_ms": 1e3 * plain_p50, "traced_p50_ms": 1e3 * traced_p50,
                    "overhead_pct": 100.0 * (traced_p50 / plain_p50 - 1.0)}
        record.update(per_layer=layers, tracing_overhead=overhead, absent=tracer.absent)
        for name, m in layers.items():
            shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:26s} {shown} {m['unit']}")
        print(f"tracing overhead: {overhead['overhead_pct']:+.1f}% on the median latency "
              f"({overhead['traced_p50_ms']:.3f} ms traced, {overhead['untraced_p50_ms']:.3f} ms untraced)")
        write_spans(results / f"{stem}-spans.jsonl", phases[1].first_spans or [])
        metrics = layers
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in RESULT_METRICS}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
