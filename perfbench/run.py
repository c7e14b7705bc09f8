"""flagstab benchmark: seeded CLI documents timed end to end.

    python3 perfbench/run.py --workload flag-check --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; flagstab is imported from its
`src/` directory. Each workload feeds generated input files to
`flagstab.cli.main` in one process, as a closed loop with one client:
each document starts after the previous one returned. Documents come in
groups (a pass of `flag-check` or `hilbert-chow`, one ideal of
`gb-limits`) and the run times whole groups. No input text repeats
within a run. Every output is checked against an independent answer
after the timed region, and the first group's cheapest documents are
run again there to check that their output is the same.

Document times are reported at the speed of a reference host: a fixed
computation (`hostspeed.kernel`) is timed before and after each
document, and the document's latency is scaled by how much slower than
on the reference host that computation ran around it. A shared host's
speed swings by tens of percent over seconds to minutes; the scaling
takes that out of the comparison between runs. The unscaled rate is in
the report.

With `--trace 0` the last stdout line reports the end-to-end metrics.
With `--trace 1` the run spends half its time untraced and half with
every listed library function wrapped in a span, and reports per-layer
metrics from the traced half. See perfbench/NOTES.md.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MEASURING_SEED = 1
HELD_OUT_SEED = 2
TAIL_EXCESS = 10  # the tail percentile keeps this many samples beyond it
RERUN_BUDGET_S = 2.0  # first-run time of the documents run again
SETUP_SAMPLES = 11  # an untraced run's own set-up and ten in fresh processes
# flagstab's refusal on the `*-redundant` chow-weight documents (ROADMAP 1(b))
KNOWN_DEFECT_REFUSAL = "not fixed by the weight vector"

# workload: (group stream, groups in the latency sample). An untraced
# run times at least that many groups, and the latency percentiles are
# taken over exactly those groups, so their sample count and the
# document each percentile lands on do not depend on the program's speed.
WORKLOADS = {
    "flag-check": (workloads.flag_check_passes, 4),
    "hilbert-chow": (workloads.hilbert_chow_passes, 4),
    "gb-limits": (workloads.gb_limits_groups, 60),
}


class SetupError(RuntimeError):
    """The checkout does not hold a flagstab source tree."""


class DocSource:
    """The documents of one run, written as input files under `folder`,
    as many groups at a time as the latency sample has. `starts[g]` is
    the index of group g's first document; the last entry ends the
    written groups."""

    def __init__(self, workload: str, seed: int, folder: Path) -> None:
        self.folder = folder
        folder.mkdir(parents=True)
        stream, self.chunk = WORKLOADS[workload]
        self._groups = stream(seed)
        self.docs: list[workloads.Document] = []
        self.paths: list[str] = []
        self.starts = [0]
        self.more()

    def more(self) -> None:
        for group in itertools.islice(self._groups, self.chunk):
            for doc in group:
                path = self.folder / f"{len(self.docs):05d}.txt"
                path.write_text(doc.text, encoding="utf-8")
                self.docs.append(doc)
                self.paths.append(str(path))
            self.starts.append(len(self.docs))


def import_flagstab():
    """Import flagstab from the checkout; returns flagstab.cli."""
    if not (SRC / "flagstab" / "__init__.py").is_file():
        raise SetupError(f"no flagstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("flagstab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"flagstab imported from {cli.__file__}, not {SRC}")
    return cli


def fresh_setup_times(args, count: int) -> list[float]:
    """Set-up time of `count` runs of this script with `--setup-only`,
    one after another, each in a fresh interpreter that imports flagstab
    from nothing."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(count):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


@dataclass
class Record:
    index: int
    latency_ns: int
    kernel_ms: float  # mean of the host-speed samples before and after

    @property
    def scaled_s(self) -> float:
        """The latency at the reference host's speed, in seconds."""
        return self.latency_ns / 1e9 * hostspeed.REFERENCE_MS / self.kernel_ms


def docs_per_s(records: list[Record]) -> float:
    """Documents per second of document time at the reference host's speed."""
    return len(records) / sum(r.scaled_s for r in records)


class Runner:
    """Closed-loop runner over the groups of a DocSource."""

    def __init__(self, cli, source: DocSource) -> None:
        self.cli = cli
        self.source = source
        self.outcomes: dict[int, tuple[int | None, str, str]] = {}
        self.records: list[Record] = []
        self.next_group = 0

    def call(self, main, k: int) -> tuple[tuple[int | None, str, str], int]:
        """Run document k; returns (exit code, stdout, stderr) and the
        latency in ns."""
        doc = self.source.docs[k]
        argv = [doc.command, *doc.options, self.source.paths[k]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = main(argv)
            except Exception as exc:  # a raising document is a failure, not the end of the run
                code = None
                err.write(f"raised {type(exc).__name__}: {exc}")
            end = time.perf_counter_ns()
        return (code, out.getvalue(), err.getvalue()), end - start

    def phase(self, seconds: float, min_groups: int = 1, tracer=None) -> tuple[list[Record], float]:
        """Run whole groups until `seconds` have passed and at least
        `min_groups` groups ran, sampling the host's speed before each
        document and after the last. Writing further groups' input files
        is not timed. Returns the phase's records and its timed wall
        seconds."""
        main = self.cli.main if tracer is None else tracer.wrap(tracing.ROOT_SPAN, self.cli.main)
        starts = self.source.starts
        first_record, groups, paused = len(self.records), 0, 0.0
        t0 = time.perf_counter()
        before = hostspeed.sample_ms()
        while groups < min_groups or time.perf_counter() - t0 - paused < seconds:
            g = self.next_group
            if g + 1 == len(starts):
                p0 = time.perf_counter()
                self.source.more()
                paused += time.perf_counter() - p0
            for k in range(starts[g], starts[g + 1]):
                if tracer is not None:
                    tracer.doc = k
                outcome, latency_ns = self.call(main, k)
                after = hostspeed.sample_ms()
                self.outcomes[k] = outcome
                self.records.append(Record(k, latency_ns, (before + after) / 2))
                before = after
            self.next_group += 1
            groups += 1
        return self.records[first_record:], time.perf_counter() - t0 - paused

    def rerun(self, budget_s: float) -> tuple[list[int], set[int]]:
        """Run the first group's cheapest documents again, untimed, while
        their first-run times add up to at most `budget_s` (at least one
        document). Returns the documents run and those whose exit code,
        stdout or stderr differ from the first run."""
        first = {r.index: r.latency_ns for r in self.records
                 if r.index < self.source.starts[1]}
        chosen, spent = [], 0
        for k in sorted(first, key=first.get):
            if chosen and spent + first[k] > budget_s * 1e9:
                break
            chosen.append(k)
            spent += first[k]
        differ = {k for k in chosen if self.call(self.cli.main, k)[0] != self.outcomes[k]}
        return chosen, differ


def judge(cli, source: DocSource, outcomes: dict) -> tuple[dict[int, str], bool]:
    """Check each document's output. Returns the failure reason per
    document index and whether every failure is the listed known defect:
    exit 1 with KNOWN_DEFECT_REFUSAL on a `known_defect` document."""
    failures: dict[int, str] = {}
    all_known = True
    gb_checker = None
    family_weights: dict[tuple, set] = {}
    for k, (code, stdout, stderr) in sorted(outcomes.items()):
        doc = source.docs[k]
        if code != 0:
            failures[k] = f"exit {code}: {stderr.strip()}"
            known = (
                code == 1
                and doc.expect.get("known_defect", False)
                and KNOWN_DEFECT_REFUSAL in stderr
            )
            all_known = all_known and known
            continue
        results = json.loads(stdout)["results"]
        if doc.command in checks.CLOSED_FORM_CHECKS:
            reason = checks.CLOSED_FORM_CHECKS[doc.command](doc, results)
        else:
            if gb_checker is None:
                gb_checker = checks.GroebnerChecker(cli, sys.modules["flagstab"])
            reason = getattr(gb_checker, "check_" + doc.command.replace("-", "_"))(doc, results)
        if doc.command == "flag-check":
            for stage in results["stages"]:
                family_weights.setdefault((doc.expect["family"], stage["stage"]), set()).add(
                    stage["weight"]
                )
        if reason is not None:
            failures[k] = reason
            all_known = False
    # the stage weight is a constant of the family (n, d, grading, a0)
    for (family, stage), weights in family_weights.items():
        if len(weights) > 1:
            for k in outcomes:
                doc = source.docs[k]
                if doc.command == "flag-check" and doc.expect["family"] == family:
                    failures.setdefault(k, f"stage {stage} weights differ in family: {weights}")
                    all_known = False
    return failures, all_known


def latency_summary(records: list[Record]) -> dict:
    lat = sorted(r.scaled_s * 1e3 for r in records)
    n = len(lat)
    p50 = lat[(n + 1) // 2 - 1]
    if n > TAIL_EXCESS:
        tail, pct = lat[n - TAIL_EXCESS - 1], 100 * (n - TAIL_EXCESS) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"p50_ms": p50, "tail_ms": tail, "tail_percentile": pct, "samples": n}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance(args, setup_times: list[float]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "measuring_seed": MEASURING_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "latency_groups": WORKLOADS[args.workload][1],
        "setup_times_s": setup_times,
        "reference_kernel_ms": hostspeed.REFERENCE_MS,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=MEASURING_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    folder = WORK / f"{tag}-p{os.getpid()}"
    if folder.exists():
        shutil.rmtree(folder)
    latency_groups = WORKLOADS[args.workload][1]
    try:
        try:
            cli = import_flagstab()
            source = DocSource(args.workload, args.seed, folder)
        except (SetupError, ImportError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return 2
        runner = Runner(cli, source)
        setup_s = time.perf_counter() - _PROCESS_T0
        if args.setup_only:
            print(setup_s)
            return 0
        setup_times = [setup_s]
        hostspeed.warm_up()
        if args.trace:
            plain, _ = runner.phase(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _ = runner.phase(args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            doc_wall = sum(r.latency_ns for r in traced) / 1e9
            layer = tracer.metrics(docs_per_s(plain), docs_per_s(traced), doc_wall)
            tracer.write_spans(WORK / f"spans-{tag}.json")
        else:
            timed, wall = runner.phase(args.seconds, latency_groups)
            setup_times += fresh_setup_times(args, SETUP_SAMPLES - 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rerun, nondeterministic = runner.rerun(RERUN_BUDGET_S)
        failures, all_known = judge(cli, source, runner.outcomes)
    finally:
        shutil.rmtree(folder, ignore_errors=True)

    for k in nondeterministic:
        failures[k] = "output differs when run again"
    records = runner.records
    failed = sum(1 for r in records if r.index in failures)
    correct = all_known and not nondeterministic
    prov = provenance(args, setup_times)
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(source.docs[r.index].doc_id, []).append(r.scaled_s * 1e3)
    kernel_ms = statistics.median(r.kernel_ms for r in records)
    report = {
        "host_kernel_ms_median": kernel_ms,
        "provenance": prov,
        "doc_latency_median_ms": {d: statistics.median(v) for d, v in by_class.items()},
        "failed_share": failed / len(records),
        "failed_documents": {
            f"{k}:{source.docs[k].doc_id}": why for k, why in sorted(failures.items())
        },
        "failed_classes": dict(collections.Counter(
            f"{source.docs[k].doc_id}: {why}" for k, why in sorted(failures.items())
        )),
        "rerun_documents": len(rerun),
    }
    if args.trace:
        metrics = {
            name: metric(layer[name], unit) for name, unit in tracing.per_layer_metric_names()
        }
    else:
        lat = latency_summary(records[: source.starts[latency_groups]])
        report["latency"] = lat
        report["docs_per_s_wall"] = len(timed) / wall
        metrics = {
            "docs_per_s": metric(docs_per_s(timed), "1/s"),
            "doc_latency_p50_ms": metric(lat["p50_ms"], "ms"),
            "doc_latency_tail_ms": metric(lat["tail_ms"], "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    with open(WORK / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"  document times are at the reference host's speed; the kernel took "
          f"{kernel_ms:.3f} ms (median), {hostspeed.REFERENCE_MS} ms on the reference host")
    if not args.trace:
        print(f"  tail is p{lat['tail_percentile']:.1f} of the {lat['samples']} samples "
              f"of the first {latency_groups} groups")
        print(f"  unscaled: {report['docs_per_s_wall']:.6g} documents per second of timed wall "
              f"time, host-speed samples included")
    print(f"  failed_share = {report['failed_share']:.6g} share "
          f"({failed} of {len(records)} documents); {len(rerun)} documents run again")
    for failure, count in report["failed_classes"].items():
        print(f"  failed {count} times: {failure}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
