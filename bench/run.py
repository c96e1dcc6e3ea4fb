"""Benchmark of cechkit's four user-facing pipelines.

    python3 bench/run.py --workload tower2d --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

BENCHMARK.json names the workloads whose runs are gated (tower2d and
completion_hd) and every metric; wssd_scale and compare run the same way
on request.

One process, one thread, closed loop: a single caller runs ops back to
back, BLAS pinned to one thread.  Op i uses the workload's slot
i % len(slots) and inputs drawn from (seed, i).  A run makes whole
cycles of slots for --seconds, so every run weighs every size alike and
a seed fixes the inputs.  The previous op's garbage is collected before
each op, outside the timed region, so every op starts from a settled
heap as a fresh CLI process does.  A host-speed kernel (hostspeed.py)
is timed before each op, and the gated times are scaled by it to the
reference host's speed.  Each output is checked outside the timed
region, and the checkers themselves must reject a planted bad output.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json;
--trace 1 runs ops for half of --seconds untraced, then the same ops
again with the library's public functions wrapped (see tracing.py), and
reports the per-layer metrics and `trace.overhead`.
The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

import os

# Pinned before numpy is imported, here and in the set-up subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_EVERY_S = 4.0  # a fresh import is timed this often during a run
TRACE_CYCLES = 4  # cycles of slots a traced run times with spans
# A fixed percentile, so that the tail does not move with the op count (a
# fast host runs more ops); at 55 s even a slow host's tower2d run, about
# 50 ops, has 10 or more ops above it.
TAIL_PCT = 75
WALL_CAP_S = 120.0  # a run stops starting ops after this much wall time


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _import_library():
    """Import cechkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "cechkit" / "__init__.py").is_file():
        _fail(f"no cechkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cechkit

    if Path(cechkit.__file__).resolve().parent != SRC / "cechkit":
        _fail(f"imported cechkit from {cechkit.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing cechkit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cechkit"], env=env, check=True)
    return time.perf_counter() - t0


@dataclass
class OpRecord:
    index: int
    seconds: float
    ok: bool
    approx_ratio: float | None = None
    size_ratio: float | None = None
    ref_s: float | None = None


@dataclass
class Measurement:
    records: list[OpRecord]  # every op, in order
    kernel: list[float]  # host-speed samples: one before each op, one after the last
    setup: list[tuple[int, float]]  # (ops run before it, fresh-import wall time)

    def scaled(self) -> list[float]:
        """Op times at the reference host speed (hostspeed.REF_S)."""
        return [r.seconds * f for r, f in zip(self.records, hostspeed.scales(self.kernel))]

    def scaled_setup(self) -> list[float]:
        f = hostspeed.scales(self.kernel)
        return [t * f[min(i, len(f) - 1)] for i, t in self.setup]


def time_op(wl, seed: int, index: int, check: bool, tracer=None) -> OpRecord:
    """Op `index`, timed; its output is checked afterwards, outside the
    timing.  The caller has collected the previous op's garbage."""
    args, expect = wl.inputs(seed, index)
    if tracer is not None:
        tracer.begin_op(index)
    t0 = time.perf_counter()
    try:
        out = wl.op(**args)
    except Exception:
        out = None
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    rec = OpRecord(index, elapsed, not check and out is not None)
    if out is not None and check:
        try:
            res = wl.check_output(seed, index, args, expect, out)
            rec.ok, rec.approx_ratio, rec.size_ratio, rec.ref_s = (
                res.ok, res.approx_ratio, res.size_ratio, res.ref_s
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
    return rec


def measure(wl, seed: int, seconds: float, deadline: float, setup: bool) -> Measurement:
    """Ops 0, 1, 2, ... in whole cycles of slots, each on fresh inputs,
    until `seconds` are spent: no cycle started that would end more than
    half a cycle after `seconds`, or after `deadline`.  A host-speed
    sample precedes every op; with `setup`, a fresh import is timed
    every SETUP_EVERY_S.  Every output is checked."""
    start = time.monotonic()
    next_setup = start
    m = Measurement([], [], [])
    while True:
        cycle_start = time.monotonic()
        for _ in wl.slots:
            if setup and time.monotonic() >= next_setup:
                m.setup.append((len(m.records), measure_setup()))
                next_setup += SETUP_EVERY_S
            gc.collect()
            m.kernel.append(hostspeed.sample())
            m.records.append(time_op(wl, seed, len(m.records), check=True))
        now = time.monotonic()
        last = now - cycle_start
        if now + last / 2 > start + seconds or now + last > deadline:
            m.kernel.append(hostspeed.sample())
            return m


def _crossover_key(slot: dict) -> str:
    return f"n{slot['n']}-e{slot['eps']}-{slot['kind']}"


def tail(times: list[float]) -> tuple[float, int]:
    """(value, ops above it) of the TAIL_PCT percentile, by nearest rank."""
    ordered = sorted(times)
    k = math.ceil(len(ordered) * TAIL_PCT / 100)
    return ordered[k - 1], len(ordered) - k


def quality(records: list[OpRecord]) -> dict:
    ratios = [r.approx_ratio for r in records if r.approx_ratio is not None]
    sizes = [r.size_ratio for r in records if r.size_ratio is not None]
    return {
        "quality.fail_frac": sum(not r.ok for r in records) / len(records),
        "quality.approx_ratio_max": max(ratios, default=0.0),
        "quality.size_vs_cech": statistics.median(sizes) if sizes else 0.0,
    }


def crossover(wl, records: list[OpRecord]) -> dict:
    """Slot key -> ([tower op s], [exact Cech s], [size ratio]), tower2d only."""
    rows: dict = {}
    for r in records:
        if r.ref_s is not None:
            row = rows.setdefault(_crossover_key(wl.slots[r.index % len(wl.slots)]), ([], [], []))
            row[0].append(r.seconds)
            row[1].append(r.ref_s)
            row[2].append(r.size_ratio)
    return rows


def per_layer(tracer, ops: list[int], overhead: float, rows: dict) -> dict:
    import tracing
    import workloads as W

    per_op = tracer.per_op()
    mean = lambda f: sum(f(op) for op in ops) / len(ops)
    values = {}
    for layer, *_ in tracing.TARGETS:
        values[f"{layer}.calls"] = mean(lambda op: per_op[op][layer][0] if layer in per_op[op] else 0)
        values[f"{layer}.self_s"] = mean(lambda op: per_op[op][layer][1] if layer in per_op[op] else 0.0)
    for name in tracing.COUNTER_NAMES:
        values[name] = mean(lambda op: sum(tracer.counts[op].get(name, ())))
    simplices = lambda op: tracer.counts[op].get("approx.simplices", ())
    values["approx.simplices_total"] = mean(lambda op: sum(simplices(op)))
    values["approx.simplices_max"] = mean(lambda op: max(simplices(op), default=0))
    values["trace.overhead"] = overhead
    for key in map(_crossover_key, W.WORKLOADS["tower2d"].slots):
        row = rows.get(key)
        for idx, what in enumerate(("tower_s", "cech_s", "size_ratio")):
            values[f"crossover.{what}.{key}"] = statistics.median(row[idx]) if row else 0.0
    return values


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import numpy
    import selfcheck
    import workloads as W

    wl = W.WORKLOADS[name]
    deadline = time.monotonic() + WALL_CAP_S
    checker_ok, checker_msg = selfcheck.self_check(name)
    metrics: dict = {}

    if trace:
        import tracing

        # The untraced ops run first, while no spans sit in memory for the
        # garbage collector to scan; then the first TRACE_CYCLES cycles of
        # them again, traced, so that a seed fixes the traced ops.
        records = measure(wl, seed, seconds / 2.0, deadline, setup=False).records
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = []
            for r in records[: TRACE_CYCLES * len(wl.slots)]:
                gc.collect()
                traced.append(time_op(wl, seed, r.index, False, tracer))
        finally:
            tracer.uninstall()
        overhead = statistics.median(t.seconds / r.seconds for t, r in zip(traced, records))
        metrics.update(quality(records))
        metrics.update(per_layer(tracer, [r.index for r in traced], overhead, crossover(wl, records)))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-s{seed}.json")
        records = records + traced
    else:
        measure_setup()  # byte-compiles the library, untimed
        m = measure(wl, seed, seconds, deadline, setup=True)
        records = m.records
        scaled = m.scaled()
        wall = [r.seconds for r in records]
        tail_s, tail_beyond = tail(scaled)
        metrics.update(
            setup_s=statistics.median(m.scaled_setup()),
            op_s_p50=statistics.median(scaled),
            op_s_tail=tail_s,
            ops_per_s=len(scaled) / sum(scaled),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        extras = quality(records)
        extras.update(
            ops=len(records),
            op_s_tail_ops_above=tail_beyond,
            host_speed=hostspeed.REF_S / statistics.median(m.kernel),
            setup_samples=len(m.setup),
            wall_setup_s=statistics.median(t for _, t in m.setup),
            wall_op_s_p50=statistics.median(wall),
            wall_op_s_tail=tail(wall)[0],
            wall_ops_per_s=len(wall) / sum(wall),
        )

    failed = sum(not r.ok for r in records)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in rows if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not produced: {missing}")

    print(f"# {checker_msg}")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}, BLAS threads 1")
    print(f"# workload {name}: seed {seed}, {len(records)} ops, {failed} failed")
    for m in rows:
        print(f"#   {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not trace:
        print("info " + json.dumps(extras, sort_keys=True))
    result = {
        "correct": failed == 0 and checker_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in rows},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, one table


def run_all(seed: int, seconds: float, trace: bool, names) -> int:
    """Each workload in a fresh process; prints one table of every metric."""
    status = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        info = next((json.loads(x[5:]) for x in lines if x.startswith("info ")), {})
        print(f"\n== {name}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for line in lines[:-1]:
            if line.startswith("# ") and not line.startswith("#   "):
                print(line)
        for key, m in result["metrics"].items():
            print(f"  {key:<46} {m['value']:>14.6g} {m['unit']}")
        for key, value in sorted(info.items()):
            print(f"  {key:<46} {value:>14.6g}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")

    spec = _load_spec()
    _import_library()
    import workloads as W

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace), W.WORKLOADS)
    if args.workload not in W.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
