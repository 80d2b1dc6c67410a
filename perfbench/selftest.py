"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs run.py in quick mode (the first job only),
untraced and traced, and asserts that the last line is the result object
with every metric BENCHMARK.json declares, by name and unit, and that
the quick job passed. Then it corrupts real outputs (a wrong dimension,
a dropped basis element, a flipped verdict, a wrong Hilbert series, a
failed axiom, a nonzero exit code) and asserts the checker flags each.
Exits nonzero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def check_printed_metrics(spec):
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = spec["command"] + ["--workload", name, "--seed", "7",
                                      "--seconds", "0", "--trace", str(trace),
                                      "--quick"]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                  timeout=300, check=True)
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], (name, trace, got)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (name, result)
            print("ok  %-6s trace=%d: %d metrics with units, quick job passed"
                  % (name, trace, len(got)))


def run_jobs(jobs):
    """Outputs of the jobs, run once in order through the CLI."""
    import potalg.cli as cli
    return dict(zip((j.name for j in jobs), run.run_pass(cli, jobs)[3]))


def corrupted(output, edit):
    code, text, error = output
    doc = json.loads(text)
    edit(doc)
    return code, json.dumps(doc), error


def check_corruptions(work):
    def flagged(job, output, what):
        reason = run.judge(job, output)
        assert reason, "checker missed: %s" % what
        print("ok  %s: %s -> flagged (%s)" % (job.name, what, reason[:70]))

    def drop_last_element(doc):
        doc["elements"].pop()
        doc["leading_words"].pop()

    grow = {j.name: j for j in workloads.build("grow", 7, work)}
    job = grow["grow/gb-unit-global-cap9"]
    out = run_jobs([job])[job.name]
    assert run.judge(job, out) is None, run.judge(job, out)
    flagged(job, corrupted(out, drop_last_element), "basis element dropped")

    finite = workloads.build("finite", 7, work)
    wanted = ["finite/dim-8", "finite/dim-9A", "finite/dim-9B", "finite/iso-auto-9A-9B"]
    jobs = [j for j in finite if j.name in wanted]
    outs = run_jobs(jobs)
    by_name = {j.name: j for j in jobs}
    for name in wanted:
        assert run.judge(by_name[name], outs[name]) is None, name
    flagged(by_name["finite/dim-8"],
            corrupted(outs["finite/dim-8"], lambda d: d.update(total=9)),
            "wrong dimension")
    flagged(by_name["finite/iso-auto-9A-9B"],
            corrupted(outs["finite/iso-auto-9A-9B"],
                      lambda d: d.update(status="isomorphic")),
            "9A called isomorphic to 9B")
    code, text, error = outs["finite/dim-8"]
    flagged(by_name["finite/dim-8"], (3, text, error), "exit code 3")
    flagged(by_name["finite/dim-8"], (None, "", "RuntimeError: boom"),
            "exception")

    canon = {j.name: j for j in workloads.build("canon", 7, work)}
    job = canon["canon/canon-dirty-x3y3"]
    out = run_jobs([job])[job.name]
    assert run.judge(job, out) is None, run.judge(job, out)
    flagged(job, corrupted(out, lambda d: d["hilbert"].__setitem__(4, 5)),
            "wrong Hilbert series")

    brace = {j.name: j for j in workloads.build("brace", 7, work)}
    job = brace["brace/brace-check-ring16-relabelled"]
    out = run_jobs([job])[job.name]
    assert run.judge(job, out) is None, run.judge(job, out)
    flagged(job, corrupted(out, lambda d: d["axioms"].update(ok=False)),
            "failed brace axiom")
    job = brace["brace/brace-series-ring32-relabelled"]
    out = run_jobs([job])[job.name]
    assert run.judge(job, out) is None, run.judge(job, out)
    flagged(job, corrupted(out, lambda d: d.update(direct=d["direct"] + 1)),
            "wrong direct defect")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_printed_metrics(spec)
    work = os.path.join(run.OUT_DIR, "selftest-%d" % os.getpid())
    os.makedirs(work)
    try:
        check_corruptions(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
