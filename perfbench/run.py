"""Sender/receiver benchmark for stegrle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fill-512 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

One client drives a closed loop: it sends the next op only when the last
one has returned and been checked. With ``--trace 0`` the run prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it records a span
around every public call into the program and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of the
run (metadata, raw samples, spans) goes to ``.perfbench-out/``.

Exit status: 0 when every round trip checked out, 1 when one failed, 2 when
the benchmark could not run at all (no result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import (
    Tracer, direct, embed_self, no_span, per_op_totals, percentile, self_times, tail_min_samples,
)
from workloads import WORKLOADS, CliProcesses, InProcess, pgm_p5, run_process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench-out"

TAIL_PCT = 75  # the named tail: send_s.p75, receive_s.p75
MIN_OPS = tail_min_samples(TAIL_PCT)  # a run measures at least this many ops
HARD_STOP_S = 140.0  # stop measuring here even if MIN_OPS is not reached
SETUP_RUNS = 7  # fresh set-up processes per untraced run; setup_s is their median
TRACE_MIN_OPS = 5  # traced and untraced ops each, at the least, in a traced run
PROBES = 3  # repeats of each standalone call in a traced run
ALT_SECONDS = 2.0  # traced ops of the other kind run this long, and at least PROBES times


class CannotRun(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


@dataclass
class Tally:
    """Outcome of a series of ops: per-op seconds, container sizes, failures."""

    send: list[float] = field(default_factory=list)
    receive: list[float] = field(default_factory=list)
    containers: set[int] = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    last: object = None  # what the last successful send returned


def round_trip(work, tally: Tally, tracer: Tracer | None = None, group: str = "main") -> None:
    """One send and one receive, timed, then checked outside the timed window."""
    call, span = (direct, no_span) if tracer is None else (tracer.call, tracer.span)
    if tracer is not None:
        tracer.start_op(group)
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        with span("send"):
            sent = work.send(call)
        t1 = time.perf_counter()
        with span("receive"):
            got = work.receive(sent, call)
        t2 = time.perf_counter()
        size = work.verify(sent, got)
    except Exception as exc:  # a raised error fails this op; the run carries on
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{type(exc).__name__}: {exc}")
        return
    tally.send.append(t1 - t0)
    tally.receive.append(t2 - t1)
    tally.containers.add(size)
    tally.last = sent


def run_for(seconds: float, min_ops: int, step, tally: Tally) -> None:
    """Repeat step for the given seconds and at least min_ops ops of tally."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and tally.attempted >= min_ops):
            return
        step()


def load_program():
    sys.path.insert(0, str(SRC))
    import stegrle

    if Path(stegrle.__file__).resolve().parent != (SRC / "stegrle").resolve():
        raise CannotRun(f"stegrle imported from {stegrle.__file__}, not from {SRC}")
    return stegrle


def child_env(tmp: Path) -> dict:
    """Environment for child processes: this checkout's sources, a private bytecode cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp / "pycache"), PYTHONIOENCODING="utf-8")
    return env


def time_setups(name: str, seed: int, env: dict) -> list[float]:
    """Seconds from spawning a fresh process until its inputs are ready, SETUP_RUNS times."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        with subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            err = proc.stderr.read()
        if proc.returncode != 0 or ready != "ready\n":
            raise CannotRun(f"set-up process exited {proc.returncode}: {err[-500:]}")
    return times[1:]  # the first one fills the bytecode cache


def import_times(env: dict, cwd: Path) -> tuple[float, float]:
    """Cumulative import seconds of numpy and stegrle from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stegrle"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative["numpy"], cumulative["stegrle"]


def untraced_run(sr, wl, args, tmp: Path, env: dict):
    setups = time_setups(wl.name, args.seed, env)
    inputs = wl.build(sr, args.seed)
    work = wl.kind(sr, inputs, tmp / "work", env)
    warm, tally = Tally(), Tally()
    for _ in range(wl.warmup):
        round_trip(work, warm)
    run_for(args.seconds, MIN_OPS, lambda: round_trip(work, tally), tally)

    def values():
        (container,) = tally.containers
        return {
            "send_s.p50": statistics.median(tally.send),
            f"send_s.p{TAIL_PCT}": percentile(tally.send, TAIL_PCT),
            "receive_s.p50": statistics.median(tally.receive),
            f"receive_s.p{TAIL_PCT}": percentile(tally.receive, TAIL_PCT),
            "roundtrips_per_s": 1 / statistics.median(map(sum, zip(tally.send, tally.receive))),
            "container_bytes": container,
            "peak_rss_mib": work.peak_rss_mib(),
            "setup_s": statistics.median(setups),
        }

    record = {"samples": {"send_s": tally.send, "receive_s": tally.receive, "setup_s": setups}}
    return inputs, [warm, tally], values, record


def traced_run(sr, wl, args, tmp: Path, env: dict):
    inputs = wl.build(sr, args.seed)
    other = InProcess if wl.kind is CliProcesses else CliProcesses
    work, alt = (kind(sr, inputs, tmp / kind.__name__, env) for kind in (wl.kind, other))
    warm, plain, traced, alt_tally = Tally(), Tally(), Tally(), Tally()
    for _ in range(wl.warmup):
        round_trip(work, warm)
    round_trip(alt, warm)

    tracer = Tracer()
    roi = sr.Rect(*inputs.roi)
    height, width = inputs.carrier.shape
    found = {}

    def traced_trip(target, tally, group):
        round_trip(target, tally, tracer, group)
        if isinstance(target, InProcess):
            # Standalone calls on the same input, in the same op, so that
            # embed_self subtracts times taken moments apart.
            found["ambiguous"] = tracer.call("stego.validate_carrier", sr.validate_carrier, inputs.carrier)
            found["candidates"] = tracer.call("stego.scan_candidates", sr.scan_candidates, inputs.carrier, roi)
            tracer.call("stego.embedding_sites", sr.embedding_sites, inputs.carrier, roi)
            tracer.call("carrier.synthetic_carrier", sr.synthetic_carrier, width, height)

    def alternate():
        round_trip(work, plain)
        traced_trip(work, traced, "main")

    run_for(args.seconds, TRACE_MIN_OPS, alternate, traced)
    run_for(ALT_SECONDS, PROBES, lambda: traced_trip(alt, alt_tally, "alt"), alt_tally)

    def startup():
        code, _ = run_process([sys.executable, "-c", "pass"], env, tmp, tmp / "pass.out", tmp / "pass.err")
        if code != 0:
            raise CannotRun(f"bare interpreter exited {code}")

    for _ in range(PROBES):
        tracer.start_op("probe")
        tracer.call("cli.python_startup", startup)
    imports = [import_times(env, tmp) for _ in range(PROBES)]
    phases = [sr.run_pipeline(inputs.carrier, roi, inputs.message).timing.phases for _ in range(PROBES)]
    sent = (traced if wl.kind is InProcess else alt_tally).last

    def values():
        med = statistics.median
        totals = per_op_totals(tracer.spans)
        out = {f"{name}_s": med(by_op.values()) for name, by_op in totals.items()}
        del out["send_s"], out["receive_s"]
        own = per_op_totals(tracer.spans, self_times(tracer.spans))
        out["harness.self_s"] = med(own["send"][op] + own["receive"][op] for op in tracer.ops("main"))
        embed, validate, sites = (totals[f"stego.{n}"] for n in ("embed", "validate_carrier", "embedding_sites"))
        out["stego.embed_self_s"] = med(embed_self(embed[op], validate[op], sites[op]) for op in embed)
        out["trace.overhead_s"] = (med(traced.send) + med(traced.receive)) - (
            med(plain.send) + med(plain.receive)
        )
        for phase in sr.PHASES:
            out[f"pipeline.{phase}_s"] = med(p[phase] for p in phases)
        out["cli.import_numpy_s"] = med(i[0] for i in imports)
        out["cli.import_stegrle_s"] = med(i[1] for i in imports)
        out["stego.candidates"] = len(found["candidates"])
        out["stego.capacity"] = sent.report.capacity
        out["stego.bytes_hidden"] = sent.report.bytes_hidden
        out["stego.ambiguous_sites"] = len(found["ambiguous"])
        out["stego.site_yield"] = sent.report.capacity / len(found["candidates"])
        out["rle.runs"] = len(sent.stream.values)
        out["rle.bytes_per_pixel"] = len(sent.container) / inputs.carrier.size
        return out

    record = {
        "samples": {
            "untraced_send_s": plain.send, "untraced_receive_s": plain.receive,
            "traced_send_s": traced.send, "traced_receive_s": traced.receive,
        },
        "spans": tracer.dump(),
    }
    return inputs, [warm, plain, traced, alt_tally], values, record


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the program's sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "stegrle").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def named(values: dict, spec: list[dict]) -> dict:
    """Attach each metric's unit from BENCHMARK.json; the names must match exactly."""
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise CannotRun(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_one(args) -> int:
    sr = load_program()
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.build(sr, args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as tmp:
        run = traced_run if args.trace else untraced_run
        inputs, tallies, values, record = run(sr, wl, args, Path(tmp), child_env(Path(tmp)))

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    correct = failed == 0 and all(len(t.containers) <= 1 for t in tallies)
    metrics = named(values(), spec) if correct else {}
    meta = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "git_sha": git_sha(), "src_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "clients": 1,
        "ops": attempted - tallies[0].attempted, "warmup_ops": tallies[0].attempted,
        "inputs_sha256": inputs.sha256(), "raw_bytes": len(pgm_p5(inputs.carrier)),
        "input_bytes": len(inputs.carrier_bytes), "message_bytes": len(inputs.message),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "result": result, "errors": errors, **record}))

    for error in errors:
        print(f"perfbench: {wl.name}: failed op: {error}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        value = m["value"]
        print(f"{wl.name:<14}{name:<30}{value:>16{'' if isinstance(value, int) else '.6g'}} {m['unit']}")
    print(f"{wl.name:<14}{'fail_ratio':<30}{failed / attempted:>16.6g} ({failed}/{attempted} ops)")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are drawn from")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and print per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stegrle" / "__init__.py").is_file():
        print(f"perfbench: no stegrle sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
