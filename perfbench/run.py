"""End-to-end and per-layer benchmark of the `antiprelie` command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record

A workload is a fixed list of CLI jobs over documents generated from the seed
(see workloads.py).  With --trace 0 the jobs run one after another, each as a
fresh subprocess (a closed loop with one client), in passes until --seconds
have been measured; each job is timed from outside and its output checked.
A fresh-interpreter set-up probe (setup_probe.py) runs before every pass.
With --trace 1 the same jobs run in this process, alternating an untraced
pass and a pass traced by spans.py, and the per-layer metrics are reported.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json.  --record stores the default seed's exit codes and stdout
hashes in expected.json, against which every later run is compared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 0
# Every run must end well inside three minutes, even when a job hangs.
RUN_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 5


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Runner:
    def __init__(self, root: Path, work: Path, fixtures, expected: dict, record: bool):
        self.work = work
        self.fx = fixtures
        self.expected = expected
        self.record = record
        self.start = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.fingerprints = {job.name: self._fingerprint(job) for job in fixtures.jobs}
        manifest = [[kind, str(work / name), alg and str(work / alg)]
                    for kind, name, alg in fixtures.verify]
        self.manifest = work / "setup-manifest.json"
        self.manifest.write_text(json.dumps(manifest), encoding="utf-8")
        signal.signal(signal.SIGALRM, _on_alarm)

    def _fingerprint(self, job) -> str:
        h = hashlib.sha256(json.dumps(job.argv).encode())
        for name in job.inputs:
            h.update((self.work / name).read_bytes())
        return h.hexdigest()

    def argv(self, job) -> list:
        return [str(self.work / a) if a in job.inputs else a for a in job.argv]

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def spawn(self, argv: list, tag: str):
        """Run the interpreter on argv; returns (wall s, exit code, stdout, rusage)."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(self.remaining(), 0.01))
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # reaped just before the alarm
                _, status, usage = os.wait4(pid, 0)
            self.errors.append(f"{tag}: killed after the {RUN_LIMIT_S:.0f} s run limit")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0
        return wall, os.waitstatus_to_exitcode(status), out.read_bytes(), usage

    def judge(self, job, code: int, stdout: bytes) -> None:
        """Count the job and record why its output is wrong, if it is."""
        self.attempted += 1
        problem = job.check(code, stdout)
        digest = hashlib.sha256(stdout).hexdigest()
        known = self.expected.get(job.name)
        if self.record:
            self.expected[job.name] = {"fingerprint": self.fingerprints[job.name],
                                       "exit": code, "stdout_sha256": digest}
        elif known is not None and known["fingerprint"] == self.fingerprints[job.name]:
            if (code, digest) != (known["exit"], known["stdout_sha256"]):
                problem = problem or "output differs from the recorded default-seed output"
        elif self.fx.seed == DEFAULT_SEED:
            problem = problem or "default-seed inputs differ from the recorded ones"
        if problem:
            self.failed += 1
            self.errors.append(f"{job.name}: {problem}")

    def setup_probe(self) -> float:
        wall, code, _, _ = self.spawn([str(BENCH / "setup_probe.py"), str(self.manifest)], "setup")
        if code != 0:
            self.errors.append(f"set-up probe exited {code}")
        return wall

    def subprocess_passes(self, seconds: float) -> dict:
        """Closed loop of fresh CLI processes; per-job samples plus set-up samples."""
        self.setup_probe()  # warm-up: the first interpreter writes the bytecode cache
        samples = {job.name: [] for job in self.fx.jobs}
        rss, cpu, setup = [], [], []
        t0 = perf_counter()
        while True:
            pass_start = perf_counter()
            peak = used = 0.0
            setup.append(self.setup_probe())
            for job in self.fx.jobs:
                wall, code, stdout, usage = self.spawn(["-m", "antiprelie.cli", *self.argv(job)],
                                                       "job")
                self.judge(job, code, stdout)
                samples[job.name].append(wall)
                peak = max(peak, usage.ru_maxrss / 1024)
                used += usage.ru_utime + usage.ru_stime
            rss.append(peak)
            cpu.append(used)
            now = perf_counter()
            if self.errors or now + (now - pass_start) > t0 + seconds or self.remaining() < 2 * (now - pass_start):
                break
        while len(setup) < MIN_SETUP_SAMPLES and not self.errors:
            setup.append(self.setup_probe())
        return {"jobs": samples, "setup": setup, "rss": rss, "cpu": cpu}

    def inprocess_pass(self, cli, tracer=None) -> float:
        t0 = perf_counter()
        for job in self.fx.jobs:
            if tracer is not None:
                tracer.job = job.name
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv(job))
            self.judge(job, code, out.getvalue().encode("utf-8"))
        return perf_counter() - t0


def cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def traced_passes(runner: Runner, seconds: float) -> dict:
    """Pairs of untraced and traced in-process passes; medians of the layer metrics."""
    import spans
    from antiprelie import cli

    runs = []
    t0 = perf_counter()
    while True:
        pair_start = perf_counter()
        cpu0 = cpu_now()
        untraced = runner.inprocess_pass(cli)
        cpu_s = cpu_now() - cpu0
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = runner.inprocess_pass(cli, tracer)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer)
        metrics["cli.cpu_s"] = cpu_s
        metrics["trace.overhead_s"] = traced - untraced
        runs.append(metrics)
        now = perf_counter()
        if runner.errors or now + (now - pair_start) > t0 + seconds or runner.remaining() < 2 * (now - pair_start):
            break
    tracer.write(runner.work / "spans.jsonl")
    return spans.median_metrics(runs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the default seed's outputs in expected.json")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "antiprelie" / "cli.py").is_file():
        die(f"no antiprelie sources under {src}; run from the repository root")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found in the working directory")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(src), str(BENCH)]
    import antiprelie
    if Path(antiprelie.__file__).resolve().parent != (src / "antiprelie").resolve():
        die(f"antiprelie imported from {antiprelie.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.record and args.seed != DEFAULT_SEED:
        die(f"--record stores the default seed ({DEFAULT_SEED}) only")

    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_gen = perf_counter()
    fx = workloads.generate(args.workload, args.seed, work)
    print(f"workload {args.workload}, seed {args.seed}: {len(fx.jobs)} jobs, "
          f"fixtures generated and verified in {perf_counter() - t_gen:.2f} s")
    for job, d2 in fx.d2.items():
        print(f"  {job}: d2 {d2['shape'][0]}x{d2['shape'][1]}, {d2['nnz']} nonzeros "
              f"({100 * d2['density']:.2f} %)")
    all_expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = all_expected.setdefault(args.workload, {})
    runner = Runner(root, work, fx, expected, args.record)

    if args.trace:
        layers = traced_passes(runner, args.seconds)
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        top = sorted((v, k) for k, v in layers.items() if k.endswith(".self_s"))[::-1][:4]
        print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        print(f"trace overhead {layers['trace.overhead_s']:.3f} s per pass; "
              f"spans in {work / 'spans.jsonl'}")
    else:
        res = runner.subprocess_passes(args.seconds)
        for name, walls in res["jobs"].items():
            print(f"  {name}: median {statistics.median(walls):.3f} s over {len(walls)} runs")
        values = {
            "wall_s": sum(statistics.median(w) for w in res["jobs"].values()),
            "setup_s": statistics.median(res["setup"]),
            "peak_rss_mb": statistics.median(res["rss"]),
        }
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        (work / "samples.json").write_text(json.dumps(res), encoding="utf-8")
        print(f"passes {len(res['rss'])}, set-up samples {len(res['setup'])}, "
              f"cpu {statistics.median(res['cpu']):.3f} s per pass")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} jobs)")
    for line in runner.errors:
        print(f"ERROR {line}")
    if args.record:
        EXPECTED.write_text(json.dumps(all_expected, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
