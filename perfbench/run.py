"""
Benchmark of shearlab: run one workload through the user's command line,
``shearlab.cli.main(["run", CONFIG, "--output", DIR, ...])``, for a fixed
time, check the outputs, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports shearlab from ``src/`` there.
The run repeats whole rounds (every scenario of the workload, then every
output check) until the next round would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics: medians over rounds of the
rounds' command-line wall and CPU time, the cold set-up time of this process
and its peak resident memory.  ``--trace 1`` runs one warm-up round, then
alternates plain and traced rounds for the rest of the time, then runs one
more traced round under cProfile to check the traced call counts, and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CONFIG_DIR, WORKLOADS, CheckFailed, seed_overrides

_T_SCRIPT = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_SCRIPT


def _cap_threads() -> None:
    """Hold the BLAS and OpenMP pools to at most the CPUs this process may
    use; must run before numpy is imported.  A pool size already set in the
    environment is kept when it is smaller."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = min(int(os.environ[var]), ncpu)
        except (KeyError, ValueError):
            n = ncpu
        os.environ[var] = str(max(n, 1))


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
EXIT_NO_PROGRAM = 2
EXIT_INCORRECT = 1


class _ReadTracker(dict):
    """Scenario parameters that remember which keys the scenario read."""

    def __init__(self, data):
        super().__init__(data)
        self.read: set = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _guard_settings(shearlab, reads: dict) -> None:
    """Route the CLI's scenario call through a parameter read tracker, so a
    config key that the scenario ignores is caught (the CLI accepts unknown
    keys silently)."""
    scenarios = shearlab.scenarios

    def run_scenario(name, params):
        tracked = _ReadTracker(params)
        try:
            return scenarios.run_scenario(name, tracked)
        finally:
            reads[name] = tracked.read
    shearlab.cli.run_scenario = run_scenario


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    scenario_wall_s: dict
    spans: list = field(default_factory=list)
    report_bytes: int = 0
    n_steps: int = 0
    profile: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def record(self, what: str, ok: bool, incorrect: bool, note: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not incorrect
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {note}")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Bench:
    def __init__(self, shearlab, workload, seed: int):
        self.sl = shearlab
        self.workload = workload
        self.keys = {}
        self.argv = {}
        overrides = seed_overrides(workload, seed)
        for name in workload.scenarios:
            path = CONFIG_DIR / f"{name}.ini"
            cfg = shearlab.config.load_config(path)
            if cfg.scenario != name:
                raise SystemExit(f"{path} runs {cfg.scenario!r}, not {name!r}")
            # a seed override reaches the scenario as params["seed"]
            self.keys[name] = set(cfg.params) | {
                o.split("=", 1)[0] for o in overrides[name]}
            argv = ["run", str(path), "--output", str(self.out(name))]
            for item in overrides[name]:
                argv += ["--override", item]
            self.argv[name] = argv
        self.reads: dict = {}
        _guard_settings(shearlab, self.reads)
        self.tally = Tally()

    def out(self, name: str) -> Path:
        return OUT / self.workload.name / name

    def run_round(self, tracer=None, profile=None) -> Round:
        for name in self.workload.scenarios:
            shutil.rmtree(self.out(name), ignore_errors=True)
        codes, walls = {}, {}
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        profiled = profile() if profile else contextlib.nullcontext()
        self.reads.clear()
        cpu0, t0 = _cpu(), time.perf_counter()
        with traced, profiled as prof, \
                contextlib.redirect_stdout(io.StringIO()):
            for name in self.workload.scenarios:
                ts = time.perf_counter()
                try:
                    codes[name] = self.sl.cli.main(self.argv[name])
                except Exception:          # counted as a failed run
                    codes[name] = traceback.format_exc(limit=3)
                walls[name] = time.perf_counter() - ts
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        rnd = Round(wall, cpu, walls)
        if tracer:
            rnd.spans = tracer.take()
        if prof is not None:
            rnd.profile = prof["stats"]
        self._check(codes, rnd)
        return rnd

    def _check(self, codes: dict, rnd: Round) -> None:
        tally = self.tally
        outs = {name: self.out(name) for name in self.workload.scenarios}
        for name in self.workload.scenarios:
            code = codes[name]
            tally.record(f"run {name}", code == 0, False, f"exit {code}")
            # a run that stopped early leaves keys unread: failed, not wrong
            unread = self.keys[name] - self.reads.get(name, set())
            tally.record(f"{name} settings", code == 0 and not unread,
                         code == 0,
                         f"keys not read by the scenario: {sorted(unread)}"
                         if code == 0 else "run did not finish")
            try:
                summary = json.loads((outs[name] / "summary.json").read_text())
                bad = [k for k, v in summary["checks"].items() if not v]
                tally.record(f"{name} checks", not bad, True,
                             f"failed: {bad}")
                rnd.n_steps = int(summary.get("n_steps", rnd.n_steps))
            except (OSError, ValueError, KeyError) as exc:
                tally.record(f"{name} checks", False, False, repr(exc))
            if outs[name].is_dir():
                rnd.report_bytes += sum(p.stat().st_size
                                        for p in outs[name].iterdir())
        for check in self.workload.checks:
            try:
                check.fn(outs, self.sl)
                tally.record(check.name, True, False)
            except CheckFailed as exc:
                tally.record(check.name, False, True, str(exc))
            except Exception as exc:       # output missing or unreadable
                tally.record(check.name, False, False, repr(exc))


def _rounds(bench: Bench, seconds: float, *kinds: dict) -> list[tuple]:
    """Whole steps until the next one would end after ``seconds``.  A step
    runs one round for each keyword set in ``kinds`` (by default one plain
    round) and is returned as a tuple of those rounds."""
    kinds = kinds or ({},)
    start = time.perf_counter()
    done, lengths = [], []
    while True:
        t0 = time.perf_counter()
        done.append(tuple(bench.run_round(**kw) for kw in kinds))
        lengths.append(time.perf_counter() - t0)
        for r in done[-1]:
            print(f"round: wall {r.wall_s:.4f} s, cpu {r.cpu_s:.4f} s"
                  f"{' (traced)' if r.spans else ''}", file=sys.stderr)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return done


def _end_to_end(bench: Bench, seconds: float, setup_s: float) -> dict:
    rounds = [r for (r,) in _rounds(bench, seconds)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def _per_layer(bench: Bench, seconds: float) -> dict:
    import scipy.fft
    import spans

    start = time.perf_counter()
    bench.run_round()               # warm-up: pays the one-time lazy imports
    tracer = spans.Tracer()
    tracer.discover(bench.sl, scipy.fft)
    # plain and traced rounds alternate, so a drift in the host's speed
    # reaches both halves of each pair alike
    pairs = _rounds(bench, seconds - (time.perf_counter() - start),
                    {}, {"tracer": tracer})
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    xcheck = bench.run_round(tracer=tracer, profile=spans.profiled)
    mismatch = spans.cross_check(xcheck.spans, xcheck.profile,
                                 tracer.targets)
    bench.tally.record("traced calls equal cProfile ncalls", not mismatch,
                       True, "; ".join(mismatch[:10]))
    path = OUT / bench.workload.name / "trace.csv.gz"
    n_spans = spans.write_spans(path, [r.spans for r in traced])
    print(f"wrote {n_spans} spans to {path}", file=sys.stderr)

    layer = spans.median_metrics(
        [spans.round_metrics(spans.layer_totals(r.spans)) for r in traced])
    layer["consistency.n_steps"] = traced[-1].n_steps
    layer["report.bytes"] = traced[-1].report_bytes
    # every per-layer metric is printed on every workload, so a scenario
    # that this workload does not run reads 0, as an unentered layer does
    for name in sorted({s for w in WORKLOADS.values() for s in w.scenarios}):
        layer[f"scenario.{name}.wall_s"] = (
            statistics.median(r.scenario_wall_s[name] for r in plain)
            if name in bench.workload.scenarios else 0.0)
    layer["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in pairs)
    units = {"calls": "count", "elements": "count", "systems": "count",
             "n_steps": "count", "bytes": "B"}
    return {k: (v, units.get(k.rsplit(".", 1)[1], "s"))
            for k, v in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    _cap_threads()
    sys.path.insert(0, str(SRC))
    try:
        import shearlab
        import shearlab.cli
        import shearlab.config
        if not Path(shearlab.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"shearlab imported from {shearlab.__file__}, "
                              f"not from {SRC}")
    except ImportError as exc:
        per_round = len(workload.scenarios) * 3 + len(workload.checks)
        print(f"cannot import shearlab from {SRC}: {exc}\n"
              f"every operation failed ({per_round} of {per_round} in a "
              f"round); no result", file=sys.stderr)
        return EXIT_NO_PROGRAM
    bench = Bench(shearlab, workload, args.seed)
    setup_s = _process_age()

    if args.trace:
        metrics = _per_layer(bench, args.seconds)
    else:
        metrics = _end_to_end(bench, args.seconds, setup_s)
    tally = bench.tally
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
