"""Print one line per CLI run: workload, seed, job name, the sha256 of
its stdout and its exit code.

The runs are every job of the four benchmark workloads (perfbench/) at
seeds 1 and 9, then the five reproduce reports. The jobs run in-process
through the benchmark's own pass loop, once each, in a temporary
directory that also holds their input files. Two checkouts give
byte-identical output on these runs when the output of

    python3 tools/job_digests.py

is the same in both, so comparing them is one diff. The expected
output is committed as tools/job_digests.expected, and CI fails on any
difference:

    python3 tools/job_digests.py | diff tools/job_digests.expected -

A change that means to alter output bytes rewrites that file and says
which lines moved and why.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 9)
REPORTS = ("dim8", "dim9", "cor1-grid", "x3-bound", "prelie")


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import potalg.cli as cli
    import workloads
    from run import run_pass

    runs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            # a relative work directory keeps input paths out of the outputs
            work = "%s-%d" % (workload, seed)
            os.mkdir(work)
            jobs = workloads.build(workload, seed, work)
            runs.append((workload, seed, jobs))
    runs.append(("reproduce", "-", [
        workloads.Job(t, ["reproduce", "--theorem", t], None)
        for t in REPORTS]))
    for workload, seed, jobs in runs:
        outputs = run_pass(cli, jobs)[3]
        for job, (code, text, error) in zip(jobs, outputs):
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(workload, seed, job.name, digest,
                  code if error is None else "raised")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        main()
