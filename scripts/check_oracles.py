"""Driver-style oracle check: run each queries() entry and its DuckDB
oracle_sql() on the same sf dir; compare row count, column names, and
order-insensitive values.

Usage: python scripts/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    # ray Dataset: keep declared columns when the result is empty (Ray's
    # to_pandas builds from iterated batches → column-less 0-row frame)
    from coderag_ray.functions.datasets import to_pandas_typed

    return to_pandas_typed(obj)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].astype(np.float64).round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"schema: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b) and not a.equals(b):
        neq = (a != b) & ~(a.isna() & b.isna())
        bad_cols = [c for c in a.columns if neq[c].any()]
        problems.append(f"values differ in cols {bad_cols}")
        for c in bad_cols[:2]:
            i = int(np.argmax(neq[c].to_numpy()))
            problems.append(f"  first diff {c}@{i}: ray={a[c][i]!r} sql={b[c][i]!r}")
    return problems


def main():
    args = sys.argv[1:]
    json_out = None
    if "--json" in args:
        i = args.index("--json")
        if i + 1 >= len(args):
            sys.exit("usage: check_oracles.py [sf_dir] [query ...] --json OUT.json")
        json_out = args[i + 1]
        args = args[:i] + args[i + 2:]
    sf_dir = args[0] if args else "/root/testdata/sf0.001"
    only = set(args[1:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    # full surface: the 50 driver-registered queries + the standalone
    # variants of the consolidated rows (q_asof, q_media_features, ...)
    qs = {**entrymod.queries(), **entrymod.extra_queries()}
    sqls = {**entrymod.oracle_sql(), **entrymod.extra_oracle_sql()}
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        try:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
        except duckdb.Error:
            pass

    failed = []
    records: dict[str, dict] = {}
    for name in sorted(only - qs.keys()):
        print(f"FAIL {name}: not a registered query")
        failed.append(name)
        records[name] = {"rows_match": False, "schema_match": False,
                         "hash_match": False, "err": "unknown_query"}
    import time
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: ray raised {type(e).__name__}: {e}")
            failed.append(name)
            records[name] = {"rows_match": False, "schema_match": False,
                             "hash_match": False, "err": f"ray:{type(e).__name__}"}
            continue
        t1 = time.perf_counter()
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows, {t1-t0:.2f}s)")
            records[name] = {"rows_match": None, "schema_match": None,
                             "hash_match": None, "ray_rows": len(ray_df),
                             "err": "no_oracle"}
            continue
        try:
            sql_df = con.execute(sqls[name]).fetchdf()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: duckdb raised {type(e).__name__}: {e}")
            failed.append(name)
            records[name] = {"rows_match": False, "schema_match": False,
                             "hash_match": False, "err": f"duckdb:{type(e).__name__}"}
            continue
        problems = compare(name, ray_df, sql_df)
        ok = not problems
        records[name] = {
            "rows_match": len(ray_df) == len(sql_df), "schema_match":
            sorted(ray_df.columns) == sorted(sql_df.columns),
            "hash_match": ok, "ray_rows": len(ray_df),
            "oracle_rows": len(sql_df), "err": None if ok else "; ".join(problems),
        }
        if problems:
            print(f"FAIL {name} ({len(ray_df)} vs {len(sql_df)} rows):")
            for p in problems:
                print("   ", p)
            failed.append(name)
        else:
            print(f"PASS {name}: {len(ray_df)} rows match ({t1-t0:.2f}s ray)")
    if json_out:
        import json

        with open(json_out, "w") as f:
            json.dump(records, f, indent=2)
        print(f"wrote {json_out}")
    n_hashed = sum(r["hash_match"] is True for r in records.values())
    rows_only = [n for n, r in records.items() if r["err"] == "no_oracle"]
    print("\n" + ("ALL PASS" if not failed else f"FAILED: {failed}")
          + f" ({n_hashed} hash-checked"
          + (f"; rows only, no SQL oracle: {rows_only})" if rows_only else ")"))
    ray.shutdown()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
