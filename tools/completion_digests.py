"""Print one line per seeded random completion: case number, field,
order precedence, mode, cap, the sha256 of complete(...).to_json() (or
TIMEOUT) and whether verify_complete holds (- after a timeout), then
the relations as a JSON list.

The cases cycle through QQ (coefficients 1/2, -3/7, 5/3, -1, 2, 3) and
GF(5), GF(7), GF(11) (the same coefficients, less those whose
denominator the prime divides), and draw the precedence xy or yx, local
or global mode, a cap from 5 to 9, and one to three relations of two to
four terms. A term's word has length 1 to 4, or 0 to 4 for one term in
twenty. Each completion gets LIMIT seconds (SIGALRM, so Unix only).
Two checkouts complete the same way when the output of

    python3 tools/completion_digests.py --cases 1000

is the same in both outside the TIMEOUT lines. With --expect FILE each
case is also compared with the line of the same case number in FILE,
the output of an earlier run; a case that timed out on either side is
not compared. CI runs

    python3 tools/completion_digests.py --cases 300 \
        --expect tools/completion_digests.expected

The exit code is 1 if a finished completion fails verify_complete or
its digest differs from the expected one (or FILE has no line for its
case), else 0.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = tuple(map(Fraction, ("1/2", "-3/7", "5/3", "-1", "2", "3")))
LIMIT = 4.0


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def cases(seed, count):
    from potalg.fields import GF, QQ
    from potalg.freepoly import FreePoly
    from potalg.words import MonomialOrder

    rng = random.Random(seed)
    fields = (QQ, GF(5), GF(7), GF(11))
    for i in range(count):
        field = fields[i % len(fields)]
        p = field.characteristic
        pool = [c for c in POOL if not p or c.denominator % p]
        order = MonomialOrder(rng.choice(("xy", "yx")),
                              rng.choice(("local", "global")))
        cap = rng.randint(5, 9)
        rels = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                d = rng.randint(0 if rng.random() < 0.05 else 1, 4)
                w = "".join(rng.choice("xy") for _ in range(d))
                terms[w] = field.coerce(rng.choice(pool))
            r = FreePoly(field, terms, cap)
            if not r.is_zero():
                rels.append(r)
        yield i, field, order, cap, rels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cases", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--expect", metavar="FILE",
                    help="compare each digest with this earlier output")
    args = ap.parse_args(argv)
    expected = None
    if args.expect:
        with open(args.expect) as fh:
            expected = {int(f[0]): f[5] for f in map(str.split, fh) if f}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from potalg.parsing import render
    from potalg.rewrite import complete, verify_complete

    signal.signal(signal.SIGALRM, _alarm)
    failed = 0
    for i, field, order, cap, rels in cases(args.seed, args.cases):
        signal.setitimer(signal.ITIMER_REAL, LIMIT)
        try:
            G = complete(rels, order, cap)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:
            digest, ok = "TIMEOUT", "-"
        else:
            text = json.dumps(G.to_json(), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            ok = verify_complete(G)
            failed += not ok
            ok = str(ok).lower()
        print(i, field.name, order.precedence, order.mode, cap, digest, ok,
              json.dumps([render(r, order) for r in rels]), flush=True)
        want = digest if expected is None else expected.get(i)
        if "TIMEOUT" not in (digest, want) and want != digest:
            print("case %d: digest %s, expected %s" % (i, digest, want),
                  file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
