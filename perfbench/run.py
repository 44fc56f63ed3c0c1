"""nbrach benchmark: closed-loop runs of the `nbrach` CLI on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  One
client starts one fresh `nbrach` process at a time and waits for it to
exit (the CLI is a batch tool, not a server).  A round is one pass over
the workload's invocations.  The measuring window of --seconds opens after
a warm-up launch; the first round's wall time sets how many whole rounds
fit in what is left of it (at least one round is run).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
wall_s and cpu_s sum, over the workload's invocations, the median over
rounds of that invocation's wall and user+sys CPU time; setup_s is the
median over every launch of the time from process start to `nbrach.cli`
imported, and peak_rss_mb the largest resident set of any invocation.

--trace 1 runs one untraced and one traced round, checks that their CSVs
are byte-identical, and reports the per-layer metrics from the traced
round (see tracer.py) plus the tracing overhead.

Every output is checked (checks.py).  The last stdout line is the JSON
result; the line before it is the run record (machine, versions, seed,
worker count, why the workload exists), also written under
.perfbench_out/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
LAUNCH = BENCH_DIR / "launch.py"
OUT_DIR = ROOT / ".perfbench_out"

ALL_PRESETS = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")
RACH_PRESETS = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")
IDENTITY_PAIRS = 200
# setup_s is a median of at least this many launches; import-only
# launches make up what the workload's own invocations do not provide
SETUP_SAMPLES = 15
# a run must end within 180 s; leave room for checks and reporting
RUN_DEADLINE_S = 165.0


@dataclass
class Job:
    """One invocation: launcher arguments plus the check of its output."""

    label: str
    argv: list[str]
    preset: str | None = None
    intra: bool = False
    identity: bool = False

    def csv(self, out: Path) -> Path:
        return out / f"{self.label}.csv"


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    meta: dict


@dataclass
class Round:
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)


def rate_pairs(seed: int) -> list[list]:
    """Identity-check inputs: each capacity 1..50 four times in seeded order
    (so every seed does the same amount of exact arithmetic), rate ratio
    log-uniform over 1e-3..1e3 and depletion rate over 0.1..10."""
    rng = random.Random(seed)
    caps = [cap for cap in range(1, 51) for _ in range(IDENTITY_PAIRS // 50)]
    rng.shuffle(caps)
    pairs = []
    for cap in caps:
        ratio = 10.0 ** rng.uniform(-3.0, 3.0)
        nu0 = 10.0 ** rng.uniform(-1.0, 1.0)
        pairs.append([ratio * nu0, nu0, cap])
    return pairs


def workload_jobs(name: str, seed: int, work: Path) -> list[Job]:
    if name == "analytic-sweeps":
        intra_cfg = work / "intra.cfg"
        intra_cfg.write_text("mode = intra\n", encoding="utf-8")
        jobs = [Job(p, ["sweep", "--preset", p], p) for p in ALL_PRESETS]
        jobs += [Job(f"{p}-intra", ["sweep", "--preset", p, "--config", str(intra_cfg)], p, True)
                 for p in RACH_PRESETS]
        random.Random(seed).shuffle(jobs)
        return jobs
    if name == "monte-carlo":
        pairs = work / "pairs.json"
        pairs.write_text(json.dumps(rate_pairs(seed)), encoding="utf-8")
        return [Job("fig10-both", ["sweep", "--preset", "fig10", "--engine", "both",
                                   "--seed", str(seed)], "fig10"),
                Job("fig5-both", ["sweep", "--preset", "fig5", "--engine", "both",
                                  "--seed", str(seed)], "fig5"),
                Job("identity", [str(pairs)], identity=True)]
    raise SystemExit(f"unknown workload {name!r}")


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("NBRACH_WORKERS", None)  # the program's own default pool width
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.launches = 0

    def launch(self, args: list[str], trace: bool = False) -> Invocation:
        """Start one launcher process and wait for it to exit."""
        self.launches += 1
        meta_path = self.work / f"meta-{self.launches}.json"
        err_path = self.work / f"stderr-{self.launches}.txt"
        cmd = [sys.executable, str(LAUNCH), str(meta_path)] + (["--trace"] if trace else []) + args
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            meta = {}
        setup = meta["imported_at"] - start if "imported_at" in meta else None
        if rc != 0:
            sys.stderr.write(f"{' '.join(args)}: exit {rc}\n{err_path.read_text(errors='replace')[-2000:]}\n")
        return Invocation(rc, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss * 1024 / 1e6, setup, meta)

    def run_round(self, jobs: list[Job], out: Path, tally: checks.Tally, trace: bool) -> Round:
        out.mkdir()
        rnd = Round()
        for job in jobs:
            kind = ["identity"] if job.identity else ["cli"]
            tail = [] if job.identity else ["--out", str(job.csv(out))]
            inv = self.launch(kind + job.argv + tail, trace)
            rnd.invocations.append(inv)
            tally.check(inv.rc == 0, f"{job.label}: exit code {inv.rc}")
            if job.identity:
                checks.check_identity(tally, inv.meta, IDENTITY_PAIRS)
            else:
                checks.check_table(tally, job.csv(out), job.preset, job.intra)
        return rnd


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "nbrach" / "cli.py").is_file():
        sys.stderr.write(f"no program at {SRC / 'nbrach'}: run from the repository root\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("seed must be non-negative\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(why)}\n")
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        runner = Runner(work, started + RUN_DEADLINE_S)
        jobs = workload_jobs(args.workload, args.seed, work)
        tally = checks.Tally()
        runner.launch(["setup"])  # warm-up: byte-compile, fill the page cache
        record = {"workload": args.workload, "why": why[args.workload], "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                  "loop": "closed, one client, one process at a time"}

        if args.trace == 0:
            window_start = time.monotonic()
            extra = max(0, SETUP_SAMPLES - len(jobs))
            setups = [runner.launch(["setup"]).setup_s for _ in range(extra)]
            rounds = [runner.run_round(jobs, work / "round-0", tally, False)]
            # as many whole rounds as the first says fit in the rest of the
            # window; the count is not re-decided after each round, so a slow
            # stretch of the host does not change how much work a run measures
            left = args.seconds - (time.monotonic() - window_start)
            planned = 1 + max(0, int(left // rounds[0].wall_s))
            while len(rounds) < planned and time.monotonic() + rounds[0].wall_s < runner.deadline:
                rounds.append(runner.run_round(jobs, work / f"round-{len(rounds)}", tally, False))
            invocations = [i for r in rounds for i in r.invocations]
            setups += [i.setup_s for i in invocations]
            # each invocation's median over rounds, so a slow stretch of the
            # host that hits one round is outvoted by the others
            per_job = list(zip(*(r.invocations for r in rounds)))
            values = {
                "wall_s": sum(statistics.median(i.wall_s for i in runs) for runs in per_job),
                "setup_s": statistics.median(s for s in setups if s is not None),
                "cpu_s": sum(statistics.median(i.cpu_s for i in runs) for runs in per_job),
                "peak_rss_mb": max(i.rss_mb for i in invocations),
            }
            declared = spec["end_to_end"]
            record["round_wall_s"] = [r.wall_s for r in rounds]
            record["setup_samples"] = len(setups)
        else:
            plain = runner.run_round(jobs, work / "untraced", tally, False)
            traced = runner.run_round(jobs, work / "traced", tally, True)
            invocations = plain.invocations + traced.invocations
            csv_bytes = 0
            for job in jobs:
                if job.identity:
                    continue
                a, b = job.csv(work / "untraced"), job.csv(work / "traced")
                same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
                tally.check(same, f"{job.label}: traced CSV differs from untraced")
                csv_bytes += b.stat().st_size if b.exists() else 0
            traces = [i.meta.get("trace") for i in traced.invocations]
            tally.check(all(traces), "a traced invocation wrote no trace")
            values = tracer.layer_metrics(
                [t for t in traces if t], max(i.meta.get("workers", 0) for i in invocations),
                csv_bytes, plain.wall_s, traced.wall_s, tally.failed / tally.attempted)
            declared = spec["per_layer"]
            record["bindings"] = sorted({b for i in traced.invocations
                                         for b in i.meta.get("trace", {}).get("bindings", [])})
            record["round_wall_s"] = {"untraced": plain.wall_s, "traced": traced.wall_s}

        first = next((i.meta for i in invocations if i.meta), {})
        record.update({key: first.get(key) for key in ("python", "numpy", "scipy", "workers")})
        record.update({"invocations": len(invocations),
                       "checks_attempted": tally.attempted, "checks_failed": tally.failed,
                       "failed_frac": tally.failed / tally.attempted,
                       "failures": tally.failures})
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        record["metrics"] = metrics
        (OUT_DIR / "records").mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (OUT_DIR / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
         ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("record " + json.dumps(record))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
