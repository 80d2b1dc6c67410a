"""Print one line per CLI run: workload, seed, job name, the sha256 of
its stdout and its exit code.

The runs are every job of the four benchmark workloads (perfbench/) at
seeds 1 and 9, then the five reproduce reports, then a cli-errors group
that mixes usage and configuration errors (exit 2) with valid runs, so
that the parser main keeps between calls is pinned after each error,
then a truss group: the order-16 ring tables read as a truss with alpha
zero, the truss a*b = 2a, alpha(a) = -2a on Z/6, whose chain
Z/6 > {0, 2, 4} > 0 fails the product law at a*0, and the zero star on
Z/9 with alpha (0, 3, 6, 0, 3, 6, 0, 3, 6), which fails the truss axiom,
so that its chain Z/9 > 3Z/9 > 0 gets the refusal, then a derive group:
both derivative conventions on 9B and on the non-cyclic potential
x^2 y + 2 x y^2 + y^4, where they differ, then a canon-literal group:
four canon runs, each with a cleanup stage that solves on rotation
classes a body that is not cyclically invariant, then an iso-witness
group: two iso runs that answer isomorphic with a witness, the lift
search over GF(7) on the finite workload's 9B table against its image
at seed 1, and iso auto on that 9B table against itself, whose witness
is the identity over QQ.
The jobs run in-process through the benchmark's own pass loop, once
each, in a temporary directory that also holds their input files. Two
checkouts give byte-identical output on these runs when the output of

    python3 tools/job_digests.py

is the same in both, so comparing them is one diff. The expected
output is committed as tools/job_digests.expected, and CI fails on any
difference:

    python3 tools/job_digests.py | diff tools/job_digests.expected -

A change that means to alter output bytes rewrites that file and says
which lines moved and why.
"""

import hashlib
import json
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
    from checks import subring_brace
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
    gb = ["gb", "--potential", workloads.D8, "--cap", "8"]
    ring16 = os.path.join("brace-1", "ring16.json")
    runs.append(("cli-errors", "-", [
        workloads.Job(name, argv, None) for name, argv in (
            ("dim-cap-not-an-int",
             ["dim", "--potential", workloads.D8, "--cap", "x"]),
            ("gb-d8", gb),
            ("gb-without-a-source", ["gb", "--cap", "8"]),
            ("series-without-args", ["brace", "series", "--input", ring16]),
            ("dim-d8", ["dim", "--potential", workloads.D8, "--cap", "8"]),
            ("unknown-command", ["frobnicate"]),
            ("brace-check-ring16", ["brace", "check", "--input", ring16]),
            ("iso-unknown-strategy",
             ["iso", "--a", "a", "--b", "b", "--strategy", "nope"]),
            ("dim-cap-below-degree",
             ["dim", "--potential", workloads.D8, "--cap", "3"]),
            ("gb-d8-again", gb))]))
    os.mkdir("truss")
    docs = {"ring16": dict(subring_brace(16), alpha=[0] * 16),
            "shift6": {"order": 6,
                       "add": [[(a + b) % 6 for b in range(6)]
                               for a in range(6)],
                       "star": [[2 * a % 6] * 6 for a in range(6)],
                       "alpha": [-2 * a % 6 for a in range(6)],
                       "filtration": [[0, 2, 4]]},
            "alpha9": {"order": 9,
                       "add": [[(a + b) % 9 for b in range(9)]
                               for a in range(9)],
                       "star": [[0] * 9 for _ in range(9)],
                       "alpha": [0, 3, 6] * 3,
                       "filtration": [[0, 3, 6]]}}
    for key, doc in docs.items():
        with open(os.path.join("truss", key + ".json"), "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    runs.append(("truss", "-", [
        workloads.Job("%s-%s" % (action, key),
                      ["brace", action, "--input",
                       os.path.join("truss", key + ".json")], None)
        for key, actions in (("ring16", ("check", "graded", "prelie")),
                             ("shift6", ("check", "graded")),
                             ("alpha9", ("check",)))
        for action in actions]))
    runs.append(("derive", "-", [
        workloads.Job("%s-%s" % (mode, key),
                      ["derive", "--potential", text, "--mode", mode], None)
        for key, text in (("9B", workloads.B9),
                          ("noncyclic", "x^2 y + 2 x y^2 + y^4"))
        for mode in ("simple", "ginzburg")]))
    runs.append(("canon-literal", "-", [
        workloads.Job("%s-cap%s" % (key, cap),
                      ["canon", "--potential", text, "--cap", cap], None)
        for key, text, cap in (
            ("x3y3-xxyy", "x^3 + y^3 + cyc(x y x y) + x^2 y^2", "8"),
            ("x3y3-xyxyy", "x^3 + y^3 + 2 cyc(x y x y) + x y x y^2", "8"),
            ("x2y-xyyxy", "cyc(x^2 y) + y^4 + y^5 + x y^2 x y", "8"),
            ("x2y-xyxyy", "cyc(x^2 y) + y^4 + x y x y^2 + y^6", "9"))]))
    b9, b9_img = (os.path.join("finite-1", key + ".json")
                  for key in ("9B", "9B-img"))
    runs.append(("iso-witness", "-", [
        workloads.Job("lift-gf7-9B-img",
                      ["iso", "--a", b9, "--b", b9_img, "--field", "7",
                       "--strategy", "lift"], None),
        workloads.Job("auto-9B-self", ["iso", "--a", b9, "--b", b9], None)]))
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
