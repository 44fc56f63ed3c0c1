"""Child process of the benchmark: one invocation of the program.

    python3 launch.py META.json [--trace] cli ARGS...   # run `nbrach ARGS...`
    python3 launch.py META.json [--trace] identity PAIRS.json
    python3 launch.py META.json setup                    # import and exit

The parent records the monotonic clock just before it starts this
process; the first thing done here is importing `nbrach.cli`, and the
clock reading right after that import is the invocation's set-up end.
With --trace, public functions are wrapped after the import (see
tracer.py), so set-up is measured the same way in both runs.

META.json receives the set-up timestamp, library versions, the sweep
pool width the program resolves, the identity-check result for the
identity job, and the trace aggregates when tracing.  It is written even
when the program fails, so the parent can still report set-up.
"""

import sys
import time

import nbrach.cli  # the set-up being measured

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from nbrach import energy, sweep  # noqa: E402


def resolved_workers() -> int:
    """Sweep pool width as the program resolves it; a program without a
    pool evaluates rows on one thread."""
    resolve = getattr(sweep, "resolve_workers", None)
    return resolve() if resolve is not None else 1


def identity_residual(pairs) -> Fraction:
    """Largest entry of (-B0)(-B0)^-1 - I over the rate pairs, in exact
    arithmetic.  The inverse comes from the program's
    neg_B_inverse(exact=True), looked up on the module at call time so a
    traced run sees the call; -B0 is rebuilt here from the rates."""
    worst = Fraction(0)
    for mu0, nu0, cap in pairs:
        m = energy.neg_B_inverse(mu0, nu0, cap, exact=True)
        mu, nu = Fraction(mu0), Fraction(nu0)
        for i in range(cap):
            row = ((mu + nu) if i < cap - 1 else nu) * m[i]
            if i > 0:
                row = row - nu * m[i - 1]
            if i < cap - 1:
                row = row - mu * m[i + 1]
            row[i] -= 1
            worst = max(worst, max(abs(x) for x in row))
    return worst


def main(argv: list[str]) -> int:
    meta_path, args = argv[0], argv[1:]
    tracer = None
    if args and args[0] == "--trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        args = args[1:]
    job, rest = args[0], args[1:]
    meta = {
        "imported_at": IMPORTED_AT,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": resolved_workers(),
    }
    rc = 1
    try:
        if job == "setup":
            rc = 0
        elif job == "cli":
            rc = nbrach.cli.main(rest)
        elif job == "identity":
            with open(rest[0], encoding="utf-8") as f:
                pairs = json.load(f)
            meta["identity_pairs"] = len(pairs)
            meta["identity_residual"] = str(identity_residual(pairs))
            rc = 0
        else:
            raise SystemExit(f"unknown job {job!r}")
    finally:
        if tracer is not None:
            meta["trace"] = tracer.aggregate()
        with open(meta_path, "w", encoding="utf-8") as f:
            json.dump(meta, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
