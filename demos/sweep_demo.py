"""Drive the sweep engine end to end.

Sweeps rebuild the full configuration at every point of one swept key,
so derived quantities (battery capacity, thinning availability, noise
power) stay consistent along the axis.  A custom sweep is named by the
config (sweep_key, sweep_values, target) and run by `run_custom`; presets
bundle the sweeps behind the reference figures.  Both return a table, and
`emit_csv` writes it as deterministic CSV.
"""

import tempfile

from nbrach import Engine, build_config, emit_csv, run_custom, run_preset


def show(table, limit=None) -> None:
    print("  " + ",".join(table.columns))
    rows = table.rows if limit is None else table.rows[:limit]
    for row in rows:
        print("  " + ",".join(f"{c:.6g}" if isinstance(c, float) else str(c)
                              for c in row))


def main() -> None:
    cfg = build_config({"lambda_b": "1", "lambda_d": "1000", "sweep_key": "n_t",
                        "sweep_values": "1, 2, 4, 8", "target": "rach"})

    print("custom sweep: random-access success vs repetition value")
    table = run_custom(cfg, Engine.ANALYTIC)
    show(table)

    print("\npreset sweep: repetition efficiency series (first 4 rows)")
    table = run_preset("fig13", build_config({}), Engine.ANALYTIC)
    show(table, limit=4)

    print("\ndeterminism: the same preset twice, byte-identical CSV")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [f"{tmp}/run{i}.csv" for i in (1, 2)]
        for path in paths:
            emit_csv(run_preset("fig13", build_config({}), Engine.ANALYTIC), path)
        blobs = [open(p, "rb").read() for p in paths]
        print(f"  {len(blobs[0])} bytes, identical: {blobs[0] == blobs[1]}")


if __name__ == "__main__":
    main()
