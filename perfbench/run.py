#!/usr/bin/env python3
"""Sweep benchmark for radio-lab: three closed-batch workloads, end to end
and layer by layer.

    python3 perfbench/run.py --workload e1-mis --seed 3 --seconds 15 --trace 0

Run from the root of a checkout. The benchmark builds `radio-lab` and its
own `perfbench-trace` helper from source (into `$CARGO_TARGET_DIR`, default
`.bench_build`), writes the workload's spec files for `--seed`, and then:

* `--trace 0` times set-up (`perfbench-trace setup`) and runs the
  workload's `radio-lab` command, untraced and single-threaded, again and
  again until `--seconds` have passed (at least three times). It prints
  the median of each end-to-end metric.
* `--trace 1` runs the command once untraced, then the traced mirror of
  the same sweep twice (`perfbench-trace trace`), and prints the per-layer
  metrics of the first mirror pass.

Every run checks the outputs (see README.md, "Correctness gate") and
prints, as its last stdout line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Everything a run writes lives in a
fresh directory under `.bench_tmp/`, removed at exit.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

WORKLOADS = ("e1-mis", "e3-ccds", "serve-durable")
# Seed 0 reproduces the registry's own seeds (and the paper's tables);
# the recorded output digests apply to it.
DEFAULT_SEED = 0
# serve-durable's fleet shape: shards, and units per chunk (and so per
# checkpoint).
SHARDS = 8
CHUNK = 4
MIN_REPS = 3
MAX_REPS = 50
# e1-mis and e3-ccds draw new run seeds for every rep: rep k of a run with
# seed s simulates input seed s * REP_SEEDS + k. One e1 sweep's work moves
# by ±10 % with its run seeds (its five n = 4096 MIS runs end after about
# 925 or about 1 800 rounds), so a run's median over several draws spreads
# less between seeds than one draw would.
REP_SEEDS = 100
# A run must end within 180 s, leaving a margin for clean-up; the first
# run in a checkout may also spend up to 700 s building.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 700.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "node_rounds_per_s": "1/s",
    "units_per_s": "1/s",
}

PER_LAYER = {
    "sim.topology.build_s": "s",
    "sim.topology.nets": "count",
    "sim.topology.edge_slots": "count",
    "sim.engine.spawn_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.node_rounds": "count",
    "sim.engine.ns_per_node_round": "ns",
    "sim.engine.bitset_share": "ratio",
    "sim.engine.batched_share": "ratio",
    "sim.engine.broadcasts": "count",
    "sim.engine.deliveries": "count",
    "sim.engine.collisions": "count",
    "sim.adversary.propose_s": "s",
    "sim.adversary.share": "ratio",
    "sim.adversary.edges_proposed": "count",
    "sim.adversary.useful_ratio": "ratio",
    "core.checker.check_s": "s",
    "core.runner.run_algo_s": "s",
    "core.runner.unit_ms.p50": "ms",
    "core.runner.unit_ms.tail": "ms",
    "core.runner.unit_ms.tail_pct": "pct",
    "core.runner.unit_ms.samples": "count",
    "bench.aggregate.push_s": "s",
    "bench.aggregate.snapshot_s": "s",
    "bench.sink.push_s": "s",
    "bench.sink.flush_s": "s",
    "bench.sink.bytes": "bytes",
    "bench.checkpoint.save_s": "s",
    "bench.checkpoint.saves": "count",
    "bench.checkpoint.bytes": "bytes",
    "bench.checkpoint.merge_s": "s",
    "bench.serve.overhead_s": "s",
    "bench.serve.attempts": "count",
    "bench.serve.takeovers": "count",
    "bench.scenario.plan_s": "s",
    "bench.render.render_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Counts that follow from the simulation alone: two traced passes of one
# seed must agree on them exactly. (Checkpoint bytes do not: a checkpoint
# records its wall-clock seconds.)
REPEATABLE = (
    "nets",
    "edge_slots",
    "node_rounds",
    "bitset_node_rounds",
    "batched_node_rounds",
    "broadcasts",
    "deliveries",
    "collisions",
    "edges_proposed",
    "edges_useful",
    "checkpoint_saves",
    "sink_bytes",
)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0)


class BenchError(Exception):
    """A failure that leaves no result to report."""


class Deadline:
    """The time left of the run's budget."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("the run's time budget is spent")
        return left


def helper_output(cmd, cwd, deadline, env=None):
    """Runs a `perfbench-trace` (or `cargo`) command and returns its stdout.
    It runs in a session of its own, so a timeout kills whatever it
    launched too."""
    name = f"{Path(str(cmd[0])).name} {cmd[1]}"
    timeout = deadline.left()
    proc = subprocess.Popen(
        [str(c) for c in cmd],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name} ran out of time") from e
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-20:]
        raise BenchError(f"{name} failed:\n" + "\n".join(tail))
    return out.decode()


def run_process(helper, cmd, cwd, deadline, stdout=None, stderr=None):
    """Runs `cmd` through `perfbench-trace launch` and returns (wall_s,
    cpu_s, peak_rss_mb, exit_code); CPU time and peak RSS cover the
    command and every child it waited for."""
    launch = [helper, "launch"]
    if stdout:
        launch += ["--stdout", stdout]
    if stderr:
        launch += ["--stderr", stderr]
    usage = json.loads(helper_output(launch + ["--", *cmd], cwd, deadline))
    return usage["wall_s"], usage["cpu_s"], usage["peak_rss_mb"], usage["code"]


def build(deadline):
    """Builds radio-lab and perfbench-trace; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no radio-repro sources to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["-p", "radio-bench", "--bin", "radio-lab"],
        ["--manifest-path", HERE / "Cargo.toml"],
    ):
        helper_output(["cargo", "build", "--offline", "--release", *args], ROOT, deadline, env)
    return target / "release" / "radio-lab", target / "release" / "perfbench-trace"


# ---------------------------------------------------------------- parsers


def topology_n(entry):
    """The node count of a spec's topology entry ({"kind": {"Arm": {"n": …}}})."""
    (params,) = entry["kind"].values()
    return params["n"]


def unit_sizes(spec):
    """Each unit's network size, in grid (unit) order."""
    per_topology = len(spec["adversaries"]) * len(spec["workloads"]) * spec["trials"]
    if spec["nest"] == "TopologyMajor":
        return [topology_n(t) for t in spec["topologies"] for _ in range(per_topology)]
    cells = len(spec["workloads"]) * len(spec["adversaries"])
    return [
        topology_n(t)
        for _ in range(cells)
        for t in spec["topologies"]
        for _ in range(spec["trials"])
    ]


def lab_records(results_path):
    """The per-unit record lists of a radio-lab results file, in unit order
    across its scenarios."""
    with open(results_path) as f:
        report = json.load(f)
    units = []
    for scenario in report["scenarios"]:
        run = scenario.get("run")
        if run is None:
            raise BenchError(f"{results_path}: no records embedded")
        units.extend(run["records"])
    return units


def jsonl_records(path):
    """The records of a JSONL log, one per line; a torn or malformed line
    reads as None."""
    records = []
    with open(path, "rb") as f:
        for line in f:
            try:
                records.append(json.loads(line) if line.endswith(b"\n") else None)
            except ValueError:
                records.append(None)
    return records


LEASE_LINE = re.compile(r"\] leased shard \d+ of \S+ \(attempt \d+\)")
TAKEOVER_LINE = re.compile(r"\] taking over shard \d+ of ")
LEDGER_FILE = re.compile(r"^s\d+\.(partial|jsonl|ckpt|claim\d+|fail\d+\.json)$")


def parse_serve_log(text):
    """Shard attempts and takeovers from the serve fleet's stderr."""
    return {
        "attempts": len(LEASE_LINE.findall(text)),
        "takeovers": len(TAKEOVER_LINE.findall(text)),
    }


def parse_ledger(spool):
    """The terminal state of a spool's shard ledgers: published partials,
    failure notes, and claims or checkpoints left behind."""
    counts = {"specs": 0, "partial": 0, "fail": 0, "claim": 0, "ckpt": 0, "other": 0}
    for spec_dir in sorted(Path(spool).glob("q*")):
        counts["specs"] += 1
        for entry in (spec_dir / "shards").iterdir():
            m = LEDGER_FILE.match(entry.name)
            if not m:
                counts["other"] += 1
                continue
            kind = re.sub(r"\d+(\.json)?$", "", m.group(1))
            if kind != "jsonl":
                counts[kind] += 1
    return counts


def node_rounds(records, sizes):
    return sum(n * r["rounds_executed"] for n, r in zip(sizes, records) if r)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def canonical(records):
    return "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()


def tail_percentile(samples):
    """(p50, tail value, tail percentile): the tail is the highest rung of
    TAIL_LADDER with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (1 - q / 100) >= 10 or q == 0.0:
            rank = max(1, math.ceil(q / 100 * n))
            return statistics.median(ordered), ordered[rank - 1], q
    raise AssertionError("the ladder ends at 0")


# -------------------------------------------------------------- workloads


class Workload:
    """One workload's commands and output checks."""

    def __init__(self, name, lab, helper, work, seed, tiny, deadline):
        self.name, self.lab, self.helper = name, lab, helper
        self.work, self.seed, self.tiny, self.deadline = work, seed, tiny, deadline
        self.spec_paths = self.write_specs(self.input_seed(0), work)
        specs = [json.loads(p.read_text()) for p in self.spec_paths]
        self.sizes = [n for spec in specs for n in unit_sizes(spec)]
        self.units = len(self.sizes)
        self.record_digests = False
        self.reps = 0
        self.cli_runs = 0
        self.notes = []

    def flag(self, reason, units):
        """Counts `units` as failed for `reason` (reported on stderr)."""
        if units:
            self.notes.append(f"{units} unit(s): {reason}")
        return units

    def input_seed(self, rep):
        """The input seed of rep `rep` (0-based) of this run."""
        return self.seed

    def write_specs(self, input_seed, d):
        """Writes the workload's spec files for `input_seed` under `d`."""
        spec_dir = d / "specs"
        spec_dir.mkdir()
        cmd = [self.helper, "spec", "--workload", self.name, "--seed", input_seed, "--dir", spec_dir]
        out = helper_output(cmd + (["--tiny"] if self.tiny else []), d, self.deadline)
        return [Path(p) for p in out.split()]

    def rep_dir(self):
        self.reps += 1
        d = self.work / f"rep{self.reps}"
        d.mkdir()
        return d

    def digests_ok(self, outputs, input_seed):
        """Whether the outputs match the digests recorded for the default
        seed; with `record_digests`, records them instead."""
        if input_seed != DEFAULT_SEED or self.tiny:
            return True
        digests = {k: digest(v) for k, v in outputs.items()}
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if self.record_digests:
            recorded[self.name] = digests
            DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
            return True
        return recorded.get(self.name) == digests

    def prepare(self):
        """Builds whatever the runs are checked against (see Served)."""

    def setup_s(self):
        out = helper_output([self.helper, "setup", *self.spec_paths], self.work, self.deadline)
        return json.loads(out)["setup_s"]

    def record_check(self, records, reference):
        """Failed units: missing, malformed, or different from the
        reference records (when there is one)."""
        failed = 0
        for i, n in enumerate(self.sizes):
            rec = records[i] if i < len(records) else None
            if not isinstance(rec, dict):
                failed += 1
                continue
            # A unit may end in a refusal the table reports (E3b's b = 48
            # is below the schedule minimum); otherwise it ran on all n.
            ran = len(rec.get("outputs", [])) == n and rec.get("rounds_executed", 0) > 0
            ok = (
                rec.get("n") == n
                and (isinstance(rec.get("error"), str) or ran)
                and (reference is None or rec == reference[i])
            )
            failed += not ok
        failed += max(0, len(records) - self.units)
        return self.flag("records missing, malformed or unlike the reference", failed)


class Materialized(Workload):
    """`e1-mis` / `e3-ccds`: one materialized `radio-lab` sweep per rep, on
    the rep's own input seed."""

    def input_seed(self, rep):
        return self.seed * REP_SEEDS + rep

    def run_cli(self):
        """One untraced run: (process stats, records, failed units, outputs)."""
        rep = self.cli_runs
        self.cli_runs += 1
        d = self.rep_dir()
        seed = self.input_seed(rep)
        paths = self.spec_paths if rep == 0 else self.write_specs(seed, d)
        cmd = [self.lab, *paths, "--threads", "1", "--out", d / "out.json"]
        cmd += ["--csv", d / "out.csv"]
        stats = run_process(self.helper, cmd, d, self.deadline, d / "stdout.txt", d / "stderr.txt")
        if stats[3] != 0:
            return stats, [], self.flag(f"radio-lab exited {stats[3]}", self.units), None
        units = lab_records(d / "out.json")
        records = [recs[0] if len(recs) == 1 else None for recs in units]
        csv = b"".join(p.read_bytes() for p in sorted(d.glob("out*.csv")))
        outputs = {
            "stdout": (d / "stdout.txt").read_bytes(),
            "csv": csv,
            "records": canonical(records),
        }
        if not self.digests_ok(outputs, seed):
            failed = self.flag("outputs differ from the recorded digests", self.units)
            return stats, records, failed, outputs
        return stats, records, self.record_check(records, None), outputs

    def trace(self):
        """The traced passes; returns (passes, failed, untraced wall)."""
        stats, cli_records, failed, outputs = self.run_cli()
        passes = []
        for _ in range(2):
            d = self.rep_dir()
            cmd = [self.helper, "trace", "materialized", "--records", d / "mirror.jsonl"]
            cmd += ["--tables", d / "tables.txt", *self.spec_paths]
            trace = json.loads(helper_output(cmd, d, self.deadline))
            mirror = jsonl_records(d / "mirror.jsonl")
            failed += self.record_check(mirror, cli_records)
            if outputs is None or (d / "tables.txt").read_bytes() != outputs["stdout"]:
                failed += self.flag("mirror tables differ from radio-lab's", self.units)
            passes.append(trace)
        return passes, failed, stats[0]


class Served(Workload):
    """`serve-durable`: the spec through `radio-lab serve`, checked against
    single-process references built once per run."""

    def lab_stream(self, d, *extra):
        cmd = [self.lab, self.spec_paths[0], "--stream", "--threads", "1", "--chunk", CHUNK]
        cmd += extra
        return run_process(self.helper, cmd, d, self.deadline, d / "stdout.txt", d / "stderr.txt")

    def prepare(self):
        """The references: the `--stream` record log, and the table and CSV
        of the same eight shards merged by `radio-lab merge`; and whether
        the two single-process paths agree on the records."""
        d = self.rep_dir()
        ok = self.lab_stream(d, "--records", d / "stream.jsonl", "--out", d / "stream.json")[3] == 0
        partials = []
        for i in range(SHARDS):
            part = d / f"s{i}.partial"
            args = ["--shard", f"{i}/{SHARDS}", "--records", d / f"s{i}.jsonl", "--out", part]
            ok &= self.lab_stream(d, *args)[3] == 0
            partials.append(part)
        cmd = [self.lab, "merge", *partials, "--out", d / "merge.json", "--csv", d / "merge.csv"]
        cmd += ["--records", d / "merge.jsonl"]
        ok &= run_process(self.helper, cmd, d, self.deadline, d / "merge_stdout.txt")[3] == 0
        if not ok:
            raise BenchError("the single-process reference runs failed")
        self.ref_jsonl = (d / "stream.jsonl").read_bytes()
        self.ref_records = jsonl_records(d / "stream.jsonl")
        self.ref_table = (d / "merge_stdout.txt").read_bytes()
        self.ref_csv = (d / "merge.csv").read_bytes()
        self.refs_agree = (d / "merge.jsonl").read_bytes() == self.ref_jsonl

    def run_cli(self):
        """One untraced serve run: (process stats, records, failed units,
        fleet log, spool)."""
        d = self.rep_dir()
        spool = d / "spool"
        cmd = [self.lab, "serve", self.spec_paths[0], "--spool", spool, "--workers", 1]
        cmd += ["--worker-threads", 1, "--shards", SHARDS, "--chunk", CHUNK]
        cmd += ["--out", d / "serve.json", "--csv", d / "serve.csv", "--records", d / "serve.jsonl"]
        stats = run_process(self.helper, cmd, d, self.deadline, d / "stdout.txt", d / "stderr.txt")
        log = parse_serve_log((d / "stderr.txt").read_text(errors="replace"))
        if stats[3] != 0:
            return stats, [], self.flag(f"serve exited {stats[3]}", self.units), log, spool
        records = jsonl_records(d / "serve.jsonl")
        outputs = {
            "stdout": (d / "stdout.txt").read_bytes(),
            "csv": (d / "serve.csv").read_bytes(),
            "jsonl": (d / "serve.jsonl").read_bytes(),
        }
        ledger = parse_ledger(spool)
        clean = {"specs": 1, "partial": SHARDS, "fail": 0, "claim": 0, "ckpt": 0, "other": 0}
        for ok, reason in (
            (self.refs_agree, "--stream and merged --shard record logs differ"),
            (self.digests_ok(outputs, self.seed), "outputs differ from the recorded digests"),
            (outputs["stdout"] == self.ref_table, "table differs from radio-lab merge's"),
            (outputs["csv"] == self.ref_csv, "CSV differs from radio-lab merge's"),
            (ledger == clean, f"spool ledger not clean: {ledger}"),
            (log == {"attempts": SHARDS, "takeovers": 0}, f"fleet log: {log}"),
        ):
            if not ok:
                return stats, records, self.flag(reason, self.units), log, spool
        return stats, records, self.record_check(records, self.ref_records), log, spool

    def trace(self):
        """The traced passes; returns (passes, failed, untraced wall)."""
        stats, cli_records, failed, log, spool = self.run_cli()
        again = self.run_cli()
        failed += again[2]
        if again[3] != log:
            failed += self.flag("shard attempts differ between two serve runs", self.units)
        d = self.rep_dir()
        cp = self.lab_stream(d, "--checkpoint", d / "cp.json", "--records", d / "cp.jsonl",
                             "--out", d / "out.json")
        if cp[3] != 0 or (d / "cp.jsonl").read_bytes() != self.ref_jsonl:
            failed += self.flag("the checkpointed --stream run's records differ", self.units)
        passes = []
        for _ in range(2):
            d = self.rep_dir()
            cmd = [self.helper, "trace", "sliced", "--chunk", CHUNK, "--shards", SHARDS]
            cmd += ["--work-dir", d, "--records", d / "mirror.jsonl", "--spool", spool]
            trace = json.loads(helper_output(cmd + self.spec_paths, d, self.deadline))
            failed += self.record_check(jsonl_records(d / "mirror.jsonl"), cli_records)
            trace.update(log, serve_overhead_s=stats[0] - cp[0])
            passes.append(trace)
        return passes, failed, cp[0]


def measure(workload, seconds):
    """Untraced reps until `seconds` pass; the medians of the end-to-end
    metrics."""
    setup_s = workload.setup_s()
    reps, failed = [], 0
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (time.perf_counter() - start < seconds and len(reps) < MAX_REPS):
        (wall, cpu, rss, _), records, fails = workload.run_cli()[:3]
        failed += fails
        print(f"perfbench: {workload.name}: rep {len(reps) + 1}: wall {wall:.3f} s, "
              f"cpu {cpu:.3f} s, peak rss {rss:.1f} MB", file=sys.stderr)
        reps.append((wall, cpu, rss, node_rounds(records, workload.sizes)))
    med = statistics.median
    walls = [r[0] for r in reps]
    metrics = {
        "wall_s": med(walls),
        "cpu_s": med([r[1] for r in reps]),
        "setup_s": setup_s,
        "peak_rss_mb": med([r[2] for r in reps]),
        "node_rounds_per_s": med([r[3] / r[0] for r in reps]),
        "units_per_s": med([workload.units / w for w in walls]),
    }
    return metrics, workload.units * len(reps), failed, END_TO_END


def trace(workload):
    """The per-layer metrics of the first traced pass, after checking that
    the second pass repeats every simulated count."""
    passes, failed, untraced = workload.trace()
    first, second = passes
    moved = [k for k in REPEATABLE if first[k] != second[k]]
    if moved:
        failed += workload.flag(f"counts moved between traced passes: {moved}", workload.units)
    t = first
    p50, tail, tail_pct = tail_percentile(t["unit_ms"])

    def ratio(a, b):
        return a / b if b else 0.0

    # Engine::run net of the adversary wrapper's own counting pass.
    engine_s = t["run_s"] - t["adversary_wrap_s"] + t["propose_s"]
    metrics = {
        "sim.topology.build_s": t["build_s"],
        "sim.topology.nets": t["nets"],
        "sim.topology.edge_slots": t["edge_slots"],
        "sim.engine.spawn_s": t["spawn_s"],
        "sim.engine.self_s": t["run_s"] - t["adversary_wrap_s"],
        "sim.engine.node_rounds": t["node_rounds"],
        "sim.engine.ns_per_node_round": ratio(engine_s * 1e9, t["node_rounds"]),
        "sim.engine.bitset_share": ratio(t["bitset_node_rounds"], t["node_rounds"]),
        "sim.engine.batched_share": ratio(t["batched_node_rounds"], t["node_rounds"]),
        "sim.engine.broadcasts": t["broadcasts"],
        "sim.engine.deliveries": t["deliveries"],
        "sim.engine.collisions": t["collisions"],
        "sim.adversary.propose_s": t["propose_s"],
        "sim.adversary.share": ratio(t["propose_s"], engine_s),
        "sim.adversary.edges_proposed": t["edges_proposed"],
        "sim.adversary.useful_ratio": ratio(t["edges_useful"], t["edges_proposed"]),
        "core.checker.check_s": t["check_s"],
        "core.runner.run_algo_s": t["run_algo_s"],
        "core.runner.unit_ms.p50": p50,
        "core.runner.unit_ms.tail": tail,
        "core.runner.unit_ms.tail_pct": tail_pct,
        "core.runner.unit_ms.samples": len(t["unit_ms"]),
        "bench.aggregate.push_s": t["aggregate_push_s"],
        "bench.aggregate.snapshot_s": t["aggregate_snapshot_s"],
        "bench.sink.push_s": t["sink_push_s"],
        "bench.sink.flush_s": t["sink_flush_s"],
        "bench.sink.bytes": t["sink_bytes"],
        "bench.checkpoint.save_s": t["checkpoint_save_s"],
        "bench.checkpoint.saves": t["checkpoint_saves"],
        "bench.checkpoint.bytes": t["checkpoint_bytes"],
        "bench.checkpoint.merge_s": t["merge_s"],
        "bench.serve.overhead_s": t.get("serve_overhead_s", 0.0),
        "bench.serve.attempts": t.get("attempts", 0),
        "bench.serve.takeovers": t.get("takeovers", 0),
        "bench.scenario.plan_s": t["plan_s"],
        "bench.render.render_s": t["render_s"],
        "trace.traced_wall_s": t["wall_s"],
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": t["wall_s"] - untraced,
    }
    # One untraced CLI run plus two mirror passes (two more serve runs and
    # a stream run for serve-durable) executed the grid.
    attempted = workload.units * (3 if isinstance(workload, Materialized) else 5)
    return metrics, attempted, failed, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (registry quick grids, 40 serve units)")
    parser.add_argument("--record-digests", action="store_true",
                        help="write the default seed's output digests to digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.record_digests and (args.seed != DEFAULT_SEED or args.tiny or args.trace):
        parser.error("--record-digests needs the default seed, full scale and --trace 0")
    try:
        lab, helper = build(Deadline(BUILD_BUDGET_S))
        deadline = Deadline(RUN_BUDGET_S)
        tmp_root = ROOT / ".bench_tmp"
        work = tmp_root / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            kind = Served if args.workload == "serve-durable" else Materialized
            w = kind(args.workload, lab, helper, work, args.seed, args.tiny, deadline)
            w.record_digests = args.record_digests
            w.prepare()
            if args.trace:
                metrics, attempted, failed, units = trace(w)
            else:
                metrics, attempted, failed, units = measure(w, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                tmp_root.rmdir()
            except OSError:
                pass
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    for note in w.notes:
        print(f"perfbench: {args.workload}: failed {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / attempted} ratio ({failed} of {attempted} units)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
