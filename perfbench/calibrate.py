"""Fixed pure-Python work that gauges how fast the host runs right now.

The benchmark starts this script next to every pass and times it from
spawn to exit.  It imports nothing from runvec, so a change to the
program cannot move it; only the host can.  The work is a fresh
interpreter start plus integer correlations, tuple building and JSON
text, the same kinds of work the runvec commands do.
"""

import json

ROUNDS = 80
LENGTH = 200


def main() -> None:
    a = tuple(1 if (i * 7919) % 3 else -1 for i in range(LENGTH))
    total = 0
    for r in range(ROUNDS):
        c = [sum(a[i] * a[i + k] for i in range(LENGTH - k)) for k in range(LENGTH)]
        runs = [tuple(range(k + r)) for k in range(40)]
        total += len(json.dumps({"C": c, "runs": runs}, sort_keys=True))
    print(total)


if __name__ == "__main__":
    main()
