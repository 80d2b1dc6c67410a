"""potalg benchmark: replay a workload's CLI jobs in-process and time them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grow --seed 1 --seconds 25 --trace 0

The jobs go through ``potalg.cli.main(argv)`` one after another in this
one process: a closed loop with one client and no extra threads. A pass
runs the whole job list; passes repeat while another one still ends
within --seconds.
Every output is checked outside the timed region (the first pass against
its reference, later passes for byte-identical output). With --trace 0
the last line of stdout holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of traced passes, measured after untraced
passes of the same run so the tracing overhead can be read off.

The end-to-end times are given at a fixed reference speed. While a pass
runs, a timer interrupts it every PROBE_PERIOD_S seconds to time a fixed
slice of pure-Python work (the probe). The probe time is taken out of
the pass's timings, which are then scaled by PROBE_REF_S over the mean
time of the probes taken during the pass (for the time of a job that
spans MIN_PROBES probes or more: during the job). A host that runs this
process slower for a while slows the probe as much as the jobs, so the
scaled times stay put while the raw ones drift; the raw pass times are
kept in the provenance line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 15
SETUP_PROBES = 20             # probes timed before each set-up start
PROBE_PERIOD_S = 0.05         # wall time between probes during a pass
PROBE_REF_S = 0.0015          # mean probe time in passes on the 2-CPU tuning VM
MIN_PROBES = 5                # fewest probes a speed scale is taken from

END_TO_END = [("wall_s", "s"), ("slowest_job_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"), ("ok_frac", "ratio")]

READY = ("import sys; sys.path.insert(0, sys.argv[1]); import potalg.cli; "
         "potalg.cli.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()")


def probe():
    """A fixed slice of work like potalg's, written without potalg code:
    Fraction sums in a dict keyed by tuples, then plain integer steps.
    Its time tracks how fast the machine runs such code at the moment."""
    acc = {}
    for i in range(1, 240):
        key = (i % 7, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i % 13 + 1, i % 5 + 1)
    s = 0
    for i in range(8000):
        s += i * i % 7
    return acc, s


class SpeedSampler:
    """Times the probe every PROBE_PERIOD_S seconds of wall time from a
    SIGALRM handler, which Python runs in the main thread between two
    bytecodes of whatever job is running. The time spent in probes is
    summed so that timings around the jobs can leave it out."""

    def __init__(self):
        self.walls = []
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self, signum=None, frame=None):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        wall = time.perf_counter() - wall0
        self.walls.append(wall)
        self.spent_wall += wall
        self.spent_cpu += time.process_time() - cpu0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, since, until=None):
        """PROBE_REF_S over the mean time of the probes from the since-th
        up to the until-th, or None when there are fewer than MIN_PROBES."""
        walls = self.walls[since:until]
        if len(walls) < MIN_PROBES:
            return None
        return PROBE_REF_S / statistics.mean(walls)


class Unscaled:
    """Stands in for SpeedSampler where times are reported as measured."""
    walls = ()
    spent_wall = spent_cpu = 0.0

    def scale(self, since, until=None):
        return 1.0


def measure_setup():
    """Median time from starting a fresh interpreter to a built parser,
    at the reference speed of the probes timed before each start."""
    times, speed = [], SpeedSampler()
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            speed.sample()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY, SRC],
                                stdout=subprocess.PIPE, cwd=ROOT)
        with proc.stdout:
            line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError("set-up start failed with exit code %s" % proc.returncode)
        times.append(elapsed)
    return statistics.median(times) * speed.scale(0)


def run_pass(cli, jobs, tracer=None, speed=Unscaled()):
    """One pass over the jobs. Returns wall, cpu and per-job times with
    the probes' time taken out, the outputs, and the speed scale of the
    pass (1 when speed is Unscaled). Job times come scaled already: by
    the probes taken while the job ran, or by the pass's scale when the
    job spans fewer than MIN_PROBES of them."""
    times, outputs, spans = [], [], []
    first, spent_wall, spent_cpu = len(speed.walls), speed.spent_wall, speed.spent_cpu
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        buf = io.StringIO()
        error = None
        before, job_first = speed.spent_wall, len(speed.walls)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(job.argv)
        except Exception as exc:  # a traceback is a failed job, not a crash
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - start - (speed.spent_wall - before))
        spans.append((job_first, len(speed.walls)))
        text = buf.getvalue()
        if job.save_as:
            with open(job.save_as, "w") as fh:
                fh.write(text)
        outputs.append((code, text, error))
    wall = time.perf_counter() - wall0 - (speed.spent_wall - spent_wall)
    cpu = time.process_time() - cpu0 - (speed.spent_cpu - spent_cpu)
    while speed.scale(first) is None:  # a pass too short to be sampled
        speed.sample()
    scale = speed.scale(first)
    times = [t * (speed.scale(*span) or scale) for t, span in zip(times, spans)]
    return wall, cpu, times, outputs, scale


def judge(job, output):
    """None when the job's output passes its check, else the reason."""
    code, text, error = output
    if error is not None:
        return "raised %s" % error
    if code != 0:
        return "exit code %s: %s" % (code, " ".join(text.split())[:200])
    try:
        doc = json.loads(text)
    except ValueError:
        return "output is not one JSON document"
    try:
        return job.check(doc)
    except Exception as exc:  # a malformed output must not stop the run
        return "check raised %s: %s" % (type(exc).__name__, exc)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def job_list_hash(jobs, work):
    h = hashlib.sha256()
    for job in jobs:
        argv = [a.replace(work, "$WORK") for a in job.argv]
        h.update(json.dumps([job.name, argv]).encode())
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            h.update(name.encode() + fh.read())
    return h.hexdigest()


def run_passes(cli, jobs, seconds, after, tracer=None, least=2,
               speed=Unscaled()):
    """At least `least` passes, and more while another pass of average
    length still ends within seconds. after(result) is called outside the
    timed region once each pass has ended."""
    count = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        after(run_pass(cli, jobs, tracer, speed))
        count += 1
        elapsed = time.perf_counter() - start
        if count >= least and elapsed * (count + 1) / count > seconds:
            return


class Ledger:
    """Pass timings and the fate of every job run.

    The first pass's outputs are kept and judged after the last pass, so
    that checking adds nothing to the timed passes or to peak memory;
    later passes only have to reproduce them byte for byte.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.walls, self.cpus, self.slowest = [], [], []
        self.raw_walls, self.scales = [], []
        self.first = None
        self.mismatch = [0] * len(jobs)

    def add(self, result):
        wall, cpu, times, outputs, scale = result
        self.walls.append(wall * scale)
        self.cpus.append(cpu * scale)
        self.slowest.append(max(times))
        self.raw_walls.append(wall)
        self.scales.append(scale)
        if self.first is None:
            self.first = outputs
            return
        for i, (out, ref) in enumerate(zip(outputs, self.first)):
            if out[:2] != ref[:2] or out[2] is not None:
                self.mismatch[i] += 1

    def tally(self):
        """attempted, failed, known wrong, and one line per bad job."""
        runs = len(self.walls)
        attempted, failed, known, lines = runs * len(self.jobs), 0, 0, []
        for i, job in enumerate(self.jobs):
            reason = judge(job, self.first[i])
            differ = self.mismatch[i]
            if reason is None:
                bad, tag = differ, "FAIL"
                reason = "output differs from the first pass"
            elif job.known_wrong and job.known_wrong in reason:
                bad, tag = runs - differ, "KNOWN-WRONG"
                known += bad
                if differ:
                    failed += differ
                    lines.append("FAIL %s (%d of %d runs): output differs from "
                                 "the first pass" % (job.name, differ, runs))
            else:
                bad, tag = runs, "FAIL"
            if tag == "FAIL":
                failed += bad
            if bad:
                lines.append("%s %s (%d of %d runs): %s"
                             % (tag, job.name, bad, runs, reason))
        return attempted, failed, known, lines


def end_to_end(cli, jobs, seconds, ledger):
    """Set-up starts, then timed passes; every metric but ok_frac."""
    setup_s = measure_setup()
    with SpeedSampler() as speed:
        run_passes(cli, jobs, seconds, ledger.add, speed=speed)
    return {"wall_s": statistics.median(ledger.walls),
            "slowest_job_s": statistics.median(ledger.slowest),
            "cpu_s": statistics.median(ledger.cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s}


def per_layer(cli, jobs, seconds, ledger, spans_path):
    """Untraced passes for half the time, then traced passes: per-layer
    medians over the traced passes and the tracing overhead."""
    import tracer
    run_passes(cli, jobs, seconds / 2, ledger.add, least=1)
    plain = len(ledger.walls)
    spans = tracer.Tracer()
    per_pass = []

    def after(result):
        ledger.add(result)
        per_pass.append(spans.pass_metrics())

    spans.install()
    try:
        run_passes(cli, jobs, seconds / 2, after, spans, least=1)
    finally:
        spans.uninstall()
    spans.dump(spans_path)
    values = tracer.median_metrics(per_pass)
    values["trace.overhead_frac"] = (statistics.median(ledger.walls[plain:]) /
                                     statistics.median(ledger.walls[:plain]) - 1)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="only the first job of the workload (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "potalg", "cli.py")):
        print("perfbench: no potalg sources under %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import potalg.cli as cli
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        jobs = workloads.build(args.workload, args.seed, work)
        if args.quick:
            jobs = jobs[:1]
        provenance = {
            "workload": args.workload, "seed": args.seed,
            "traced": bool(args.trace), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "commit": git_commit(), "jobs": len(jobs),
            "jobs_sha256": job_list_hash(jobs, work)}
        ledger = Ledger(jobs)
        if args.trace:
            spans_path = os.path.join(OUT_DIR, "spans-%s.jsonl" % args.workload)
            values = per_layer(cli, jobs, args.seconds, ledger, spans_path)
            units = dict(tracer.PER_LAYER)
        else:
            values = end_to_end(cli, jobs, args.seconds, ledger)
            units = dict(END_TO_END)
        attempted, failed, known, lines = ledger.tally()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values["ok_frac"] = (attempted - failed - known) / attempted
    provenance.update(passes=len(ledger.walls), raw_pass_wall_s=ledger.raw_walls,
                      speed_scale=ledger.scales,
                      attempted=attempted, failed=failed, known_wrong=known)
    for line in lines:
        print(line)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
