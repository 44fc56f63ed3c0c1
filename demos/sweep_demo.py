"""Drive the sweep engine end to end.

Sweeps rebuild the full configuration at every point of one swept key,
so derived quantities (battery capacity, thinning availability, noise
power) stay consistent along the axis.  Presets bundle the sweeps behind
the reference figures; everything lands in deterministic CSV.
"""

import io
import tempfile

from nbrach import (
    Engine,
    SweepSpec,
    SweepTarget,
    build_config,
    run_preset,
    run_sweep,
)


def show(table, limit=None) -> None:
    print("  " + ",".join(table.columns))
    rows = table.rows if limit is None else table.rows[:limit]
    for row in rows:
        print("  " + ",".join(f"{c:.6g}" if isinstance(c, float) else str(c)
                              for c in row))


def main() -> None:
    cfg = build_config({"lambda_b": "1", "lambda_d": "1000"})

    print("custom sweep: random-access success vs repetition value")
    table = run_sweep(SweepSpec(
        target=SweepTarget.RACH_SUCCESS,
        engine=Engine.ANALYTIC,
        swept_parameter="n_t",
        values=(1.0, 2.0, 4.0, 8.0),
        config=cfg,
    ))
    show(table)

    print("\npreset sweep: repetition efficiency series (first 4 rows)")
    table = run_preset("fig13", build_config({}), Engine.ANALYTIC)
    show(table, limit=4)

    print("\ndeterminism: the same preset twice, byte-identical CSV")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [f"{tmp}/run{i}.csv" for i in (1, 2)]
        for path in paths:
            run_preset("fig13", build_config({}), Engine.ANALYTIC, path)
        blobs = [open(p, "rb").read() for p in paths]
        print(f"  {len(blobs[0])} bytes, identical: {blobs[0] == blobs[1]}")


if __name__ == "__main__":
    main()
