"""The boolprod benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (cold-expand, session-sweep or arrangement) as a closed
loop, one case at a time, from the root of a checkout: the program is
imported from the checkout's src.  Passes over the seed's case order repeat
while another one still fits in the time given.  Each case is reported at
its mean over the passes, and the end-to-end times are given at the
reference speed of bench/pace.py, whose work runs between the cases.  Every
output is checked by bench/oracle.py, which shares no code with boolprod.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0; with
--trace 1 the per-layer ones, from traced passes alternating with untraced
ones that give the tracing overhead.  The lines before it give the
reference samples and each case's measured samples.  See bench/METRICS.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
import oracle
import pace
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-up rounds taken before the first pass, and after any pass that ends
# this many seconds after the last round.
SETUP_ROUNDS_FIRST = 3
SETUP_INTERVAL_S = 3
SETUP_TRIES = 3
# Every process is killed once this many seconds of the run have passed,
# so that a hung case cannot keep the run from ending.
RUN_LIMIT_S = 170
SETUP_CODE = "import boolprod.cli as cli; cli.build_parser()"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("BOOLPROD_THREADS", None)
        items = cases.cases_for(workload)
        self.order = cases.shuffled(list(range(len(items))), seed)
        self.labels = [label for label, _ in items]
        self.argvs = [argv for _, argv in items]
        self.bare: list = []
        self.setup: list = []
        self.pace = pace.Pace()

    def spawn(self, argv: list) -> tuple:
        """Run a child to completion: (wall s, cpu s, completed process)."""
        limit = RUN_LIMIT_S - (time.perf_counter() - self.started)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, timeout=max(limit, 1))
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return wall, cpu, done

    def probe(self) -> None:
        """Fail unless boolprod imports from this checkout's src."""
        _, _, done = self.spawn(["-c", "import boolprod.cli; print(boolprod.cli.__file__)"])
        where = Path(done.stdout.decode().strip() or ".").resolve()
        if done.returncode or (ROOT / "src") not in where.parents:
            sys.exit(f"boolprod does not import from {ROOT / 'src'}:\n{done.stderr.decode()}")

    def sample_setup(self, rounds: int) -> None:
        """Time SETUP_TRIES pairs of starts a round: a bare interpreter
        start, and a start that imports boolprod.cli and builds its parser.
        Rounds are spread over the run, and the median of all the starts is
        reported."""
        for _ in range(rounds):
            for _ in range(SETUP_TRIES):
                bare = self.spawn(["-c", "pass"])[0]
                setup, _, done = self.spawn(["-c", SETUP_CODE])
                if done.returncode:
                    sys.exit(f"set-up failed:\n{done.stderr.decode()}")
                self.pace.sample(bare + setup)
                self.bare.append(bare)
                self.setup.append(setup)

    def check_cli(self, case: int, stdout: bytes) -> str:
        """'' if the output passes the oracle, else why not."""
        try:
            oracle.check_cli(self.argvs[case], json.loads(stdout))
            return ""
        except Exception as exc:  # malformed output fails the case
            return f"{type(exc).__name__}: {exc}"

    def child_argv(self, case: int, traced: bool) -> list:
        """The interpreter arguments of a CLI or point-count case."""
        argv = self.argvs[case]
        worker = str(BENCH_DIR / "worker.py")
        if argv[0] == cases.COUNT:  # [COUNT, "--n", N, "--p", P]
            return [worker, "count", argv[2], argv[4], str(int(traced))]
        if traced:
            return [worker, "cli", *argv, "--format", "json"]
        return ["-m", "boolprod", *argv, "--format", "json"]

    def cli_pass(self, traced: bool) -> dict:
        samples, failures, trace_spans, kostka = {}, [], [], []
        for case in self.order:
            child = self.child_argv(case, traced)
            wall, cpu, done = self.spawn(child)
            self.pace.sample(wall)
            samples[case] = (wall, cpu)
            stdout = done.stdout
            why = f"exit {done.returncode}: {done.stderr.decode()[-500:]}" if done.returncode else ""
            if child[0] != "-m" and not why:
                report = json.loads(stdout)
                stdout = report["stdout"].encode()
                why = f"exit {report['rc']}" if report["rc"] else ""
                offset = len(trace_spans)
                for span in report["spans"]:
                    span[spans.PARENT] += offset if span[spans.PARENT] >= 0 else 0
                    span[spans.CASE] = case
                    trace_spans.append(span)
                kostka += report["kostka"]
            why = why or self.check_cli(case, stdout)
            if why:
                failures.append(f"{self.labels[case]}: {why}")
        return {"samples": samples, "attempted": len(self.order), "failures": failures,
                "spans": trace_spans, "kostka": kostka, "processes": len(self.order)}

    def session_pass(self, traced: bool) -> dict:
        order = ",".join(map(str, self.order))
        _, _, done = self.spawn([str(BENCH_DIR / "worker.py"), "session", order, str(int(traced))])
        if done.returncode:
            sys.exit(f"session worker failed:\n{done.stderr.decode()}")
        report = json.loads(done.stdout)
        samples = {c["case"]: (c["wall"], c["cpu"]) for c in report["cases"]}
        self.pace.samples += report["pace"]
        failures = [f"{c['label']}: {why}" for c in report["cases"] for why in c["failures"]]
        return {"samples": samples, "attempted": sum(c["calls"] for c in report["cases"]),
                "failures": failures, "spans": report["spans"], "kostka": report["kostka"],
                "processes": 0, "maxrss_kb": report["maxrss_kb"]}

    def run_pass(self, traced: bool) -> dict:
        result = (self.session_pass if self.workload == "session-sweep" else self.cli_pass)(traced)
        result["traced"] = traced
        return result


def per_case(passes: list) -> dict:
    """case -> (mean wall, mean cpu, wall samples) over the given passes,
    as measured.  The mean, like the mean of the reference samples that
    scales it, weighs the host's fast and slow spells by their time."""
    out = {}
    for case in passes[0]["samples"]:
        walls = [p["samples"][case][0] for p in passes]
        cpus = [p["samples"][case][1] for p in passes]
        out[case] = (statistics.fmean(walls), statistics.fmean(cpus), walls)
    return out


def workload_wall(passes: list) -> float:
    """The case list's time, each case at its mean."""
    return sum(wall for wall, _, _ in per_case(passes).values())


def end_to_end(runner: Runner, passes: list, setup_s: float) -> dict:
    """The end-to-end figures, times at the reference speed."""
    means = per_case(passes)
    wall_factor, cpu_factor = runner.pace.wall_factor(), runner.pace.cpu_factor()
    if runner.workload == "session-sweep":
        peak_kb = max(p["maxrss_kb"] for p in passes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s * wall_factor,
        "wall_s": sum(wall for wall, _, _ in means.values()) * wall_factor,
        "cpu_s": sum(cpu for _, cpu, _ in means.values()) * cpu_factor,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(traced: list, untraced: list, start_s: float, setup_s: float) -> dict:
    """Each layer figure at its (low) median over the traced passes, plus
    the tracing overhead and the share of traced wall time the layers
    explain."""
    rows = []
    for p in traced:
        figures = spans.layer_metrics(p["spans"], p["kostka"])
        wall = sum(wall for wall, _ in p["samples"].values())
        accounted = figures.pop("trace.self_total_s") + p["processes"] * setup_s
        figures["trace.accounted_ratio"] = accounted / wall
        rows.append(figures)
    out = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    out["cli.import_s"] = setup_s - start_s
    out["python.start_s"] = start_s
    out["trace.overhead_s"] = workload_wall(traced) - workload_wall(untraced)
    return out


UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def write_spans(workload: str, seed: int, passes: list) -> Path:
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    records = [
        {"pass": i, **dict(zip(spans.FIELDS, span))}
        for i, p in enumerate(passes) for span in p["spans"]
    ]
    path.write_text(json.dumps(records))
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "boolprod" / "__init__.py").is_file():
        sys.exit(f"no boolprod sources under {ROOT / 'src'}")
    runner = Runner(args.workload, args.seed)
    runner.probe()
    runner.sample_setup(SETUP_ROUNDS_FIRST)

    trace = bool(args.trace)
    loop_start = last_setup = time.perf_counter()
    passes: list = []
    while True:
        # a traced run alternates traced and untraced passes, traced first
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 0))
        if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            runner.sample_setup(1)
            last_setup = time.perf_counter()
        elapsed = time.perf_counter() - loop_start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds and (not trace or len(passes) >= 2):
            break

    start_s, setup_s = statistics.median(runner.bare), statistics.median(runner.setup)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    refs = [wall for wall, _ in runner.pace.samples]
    print(f"{'reference':<48} n={len(refs):<4} mean {statistics.fmean(refs):.5f} s  "
          f"min {min(refs):.5f} s  max {max(refs):.5f} s  (REF_S {pace.REF_S} s)")
    rows = [("set-up", runner.setup)]
    rows += [(runner.labels[case], walls) for case, (_, _, walls) in sorted(per_case(untraced).items())]
    for label, walls in rows:
        print(f"{label:<48} n={len(walls):<4} min {min(walls):.4f} s  "
              f"median {statistics.median(walls):.4f} s  max {max(walls):.4f} s")
    if trace:
        metrics = per_layer(traced, untraced, start_s, setup_s)
        print(f"spans written to {write_spans(args.workload, args.seed, traced)}")
    else:
        metrics = end_to_end(runner, untraced, setup_s)
    failures = [why for p in passes for why in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    for why in failures:
        print(f"FAILED {why}")
    for name, value in metrics.items():
        print(f"{name:<28} {value} {unit_of(name)}")
    print(f"failed_ratio                 {len(failures) / attempted} ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
