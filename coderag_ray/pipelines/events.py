"""Windowed aggregation over the ``events`` stream table.

Ray Data has no event-time windowing; per the streaming-shaped-workload
pattern the input is treated as a partitioned log: tumbling windows are
a derived ``window_start`` column + ``groupby`` aggregate (one shuffle
over pre-aggregable rows), session windows are
``groupby(user_id).map_groups`` gap-and-island over the ts-sorted group
(ordering assumption: one user's events fit one group).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from coderag_ray.functions.datasets import schema_stable
from coderag_ray.functions.rounding import round6
from coderag_ray.stages.bucket_agg import exchange

TUMBLE_SECONDS = 3600
SESSION_GAP_SECONDS = 1800

# Declared output schemas — every pipeline here ends in schema_stable()
# so an empty/degenerate input (e.g. zero probe events) still returns a
# Dataset with the documented columns (round-4 verdict item 1: Ray drops
# empty map_groups blocks, leaving a schema-less dataset).
WINDOW_SCHEMA = pa.schema([
    ("event_type", pa.string()), ("window_start", pa.int64()),
    ("n_events", pa.int64()), ("sum_value", pa.float64()),
])
SESSION_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("session_id", pa.int64()),
    ("session_start", pa.int64()), ("n_events", pa.int64()),
])
ASOF_SCHEMA = pa.schema([
    ("event_id", pa.int64()), ("user_id", pa.int64()), ("ts_us", pa.int64()),
    ("value", pa.float64()), ("ref_event_id", pa.int64()), ("lag_us", pa.int64()),
])
RANGE_SCHEMA = pa.schema([
    ("event_id", pa.int64()), ("user_id", pa.int64()), ("ts_us", pa.int64()),
    ("n_ref", pa.int64()), ("sum_ref_value", pa.float64()),
])
TEMPORAL_SCHEMA = pa.schema([
    ("event_id", pa.int64()), ("user_id", pa.int64()), ("ts_us", pa.int64()),
    ("value", pa.float64()), ("ref_event_id", pa.int64()), ("lag_us", pa.int64()),
    ("n_ref", pa.int64()), ("sum_ref_value", pa.float64()),
])
PROPS_SCHEMA = pa.schema([
    ("event_type", pa.string()), ("n_events", pa.int64()),
    ("sum_k", pa.int64()), ("max_k", pa.int64()),
])


def tumbling_window(events_ds, seconds: int = TUMBLE_SECONDS):
    """→ Dataset (event_type, window_start:int64 epoch s, n_events,
    sum_value round6, n_users?)."""
    from ray.data.aggregate import Count, Sum

    def derive(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64())  # µs since epoch (Arrow timestamp[us])
        win = pc.multiply(pc.floor(pc.divide(epoch, seconds * 1_000_000)), seconds)
        return pa.table(
            {
                "event_type": t["event_type"],
                "window_start": pc.cast(win, pa.int64()),
                "value": t["value"],
            }
        )

    agg = (
        events_ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )

    def final(t: pa.Table) -> pa.Table:
        sv = round6(t["sum_value"].to_numpy(zero_copy_only=False).astype(np.float64))
        return t.set_column(t.schema.get_field_index("sum_value"), "sum_value", pa.array(sv))

    return schema_stable(agg.map_batches(final, batch_format="pyarrow"),
                         WINDOW_SCHEMA)


def hopping_window(events_ds, width_seconds: int = TUMBLE_SECONDS,
                   hop_seconds: int = TUMBLE_SECONDS // 2):
    """Hopping (sliding) windows: width ``W``, hop ``H ≤ W`` — every
    event lands in ``ceil(W/H)`` overlapping windows.

    Ray Data has no windowed aggregation; the streaming-shaped pattern
    is window ASSIGNMENT as a vectorized flat-map (each event row emits
    one row per covering window) followed by a pre-aggregable groupby —
    the same one-shuffle shape as :func:`tumbling_window`, with input
    amplified by the overlap factor (W/H), which is the documented cost
    of overlapping windows in any engine.

    → Dataset (event_type, window_start:int64 epoch s, n_events,
    sum_value round6).
    """
    from ray.data.aggregate import Count, Sum

    if width_seconds % hop_seconds != 0:
        raise ValueError("width must be a multiple of hop")
    n_win = width_seconds // hop_seconds

    def assign(t: pa.Table) -> pa.Table:
        epoch = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        s = pc.cast(pc.divide(epoch, 1_000_000), pa.int64()).to_numpy(zero_copy_only=False)
        # last hop bucket whose window covers s: floor(s/H); window i
        # covers s iff start = (floor(s/H) - j)*H for j in [0, W/H) and
        # start + W > s (always true for those j) and start ≥ 0
        base = s // hop_seconds
        starts = ((base[:, None] - np.arange(n_win)[None, :]) * hop_seconds)  # [n, n_win]
        idx = np.repeat(np.arange(len(s), dtype=np.int64), n_win)
        flat = starts.ravel()
        keep = flat >= 0
        take = pa.array(idx[keep])
        return pa.table(
            {
                "event_type": t["event_type"].take(take),
                "window_start": pa.array(flat[keep], type=pa.int64()),
                "value": t["value"].take(take),
            }
        )

    agg = (
        events_ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )

    def final(t: pa.Table) -> pa.Table:
        sv = round6(t["sum_value"].to_numpy(zero_copy_only=False).astype(np.float64))
        return t.set_column(t.schema.get_field_index("sum_value"), "sum_value", pa.array(sv))

    return schema_stable(agg.map_batches(final, batch_format="pyarrow"),
                         WINDOW_SCHEMA)


def session_windows(events_ds, gap_seconds: int = SESSION_GAP_SECONDS):
    """Per-user session windows (gap-and-island), two-phase.

    → Dataset (user_id, session_id (0-based per user by time),
    session_start:int64 epoch s, n_events).

    Hot-user safety + bounded Python overhead: phase 1 is a SHUFFLE-FREE
    ``map_batches`` combiner — each arriving batch is collapsed into
    per-user gap-islands (one vectorized numpy pass; segment boundaries
    at user change or gap).  Phase 2 exchanges only the island SUMMARIES
    on ``user_id`` into ``auto_buckets(...)`` buckets (a bounded,
    input-size-derived group count — the
    per-distinct-group Python cost of a per-user groupby is the
    bucket_agg lesson; a per-(user,day) grouping cost 14× on the bench),
    and merges islands with the same gap rule, vectorized across users.

    Exactness for ARBITRARY batch cuts: islands are internally gap-dense
    (consecutive events ≤ gap), so two islands of a user belong to one
    session iff their [start, end] intervals expanded by ``gap`` touch —
    overlapping islands always link (an event inside another island's
    span is ≤ gap from one of its events), disjoint ones link iff
    ``next.start − prev.end ≤ gap``.  The sorted-by-start running-max
    sweep in ``merge`` is exactly that interval connectivity, so the
    result equals the single-pass computation regardless of how Ray cut
    the batches (property-tested against a single-phase reference).
    A hot user is never concentrated: phase 1 sees only batch-sized
    slices, phase 2 only summary rows.
    """
    from coderag_ray.config import auto_buckets

    # phase-2 groups hold island SUMMARIES (narrow rows) — bucket count
    # derived from input size, one pandas group per bucket
    NB = auto_buckets(events_ds, target_rows=2_000_000)

    def batch_islands(t: pa.Table) -> pa.Table:
        # fused project+combine: explicit µs resolution (ns/µs-backed
        # inputs give identical epochs), column-pruned, and the rebuilt
        # schema drops unhashable b'pandas' metadata before the shuffle
        epoch_us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        s = pc.cast(pc.divide(epoch_us, 1_000_000), pa.int64()).to_numpy(zero_copy_only=False)
        u = pc.cast(t["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        ev = pc.cast(t["event_id"], pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, s, u))
        u, ts = u[order], s[order]
        new_isl = np.ones(len(ts), dtype=bool)
        new_isl[1:] = (u[1:] != u[:-1]) | ((ts[1:] - ts[:-1]) > gap_seconds)
        starts = np.flatnonzero(new_isl)
        counts = np.diff(np.r_[starts, len(ts)])
        return pa.table({
            "user_id": pa.array(u[starts], type=pa.int64()),
            "island_start": pa.array(ts[starts], type=pa.int64()),
            "island_end": pa.array(ts[starts + counts - 1], type=pa.int64()),
            "n_events": pa.array(counts, type=pa.int64()),
        })

    def merge(g: pd.DataFrame) -> pa.Table:
        order = np.lexsort((g["island_start"].to_numpy(), g["user_id"].to_numpy()))
        u = g["user_id"].to_numpy(dtype=np.int64)[order]
        st = g["island_start"].to_numpy(dtype=np.int64)[order]
        en = g["island_end"].to_numpy(dtype=np.int64)[order]
        cnt = g["n_events"].to_numpy(dtype=np.int64)[order]
        # batch-cut islands may overlap → interval connectivity needs the
        # per-user RUNNING MAX of ends, not just the previous end
        run_en = pd.Series(en).groupby(pd.Series(u)).cummax().to_numpy()
        new_sess = np.ones(len(st), dtype=bool)
        new_sess[1:] = (u[1:] != u[:-1]) | ((st[1:] - run_en[:-1]) > gap_seconds)
        starts = np.flatnonzero(new_sess)
        sess_u = u[starts]
        idx = np.arange(len(starts), dtype=np.int64)
        first = np.r_[True, sess_u[1:] != sess_u[:-1]]
        base = np.where(first, idx, 0)
        np.maximum.accumulate(base, out=base)
        return pa.table({
            "user_id": pa.array(sess_u, type=pa.int64()),
            "session_id": pa.array(idx - base, type=pa.int64()),
            "session_start": pa.array(st[starts], type=pa.int64()),
            "n_events": pa.array(np.add.reduceat(cnt, starts), type=pa.int64()),
        })

    return exchange(events_ds.map_batches(batch_islands, batch_format="pyarrow"), "user_id",
                    NB, merge, batch_format="pandas", schema=SESSION_SCHEMA)


ASOF_PROBE_TYPE = "purchase"
ASOF_REF_TYPE = "view"
RANGE_WINDOW_SECONDS = 7 * 86400


def _bucketed_two_type(events_ds, probe_type: str, ref_type: str,
                       n_buckets: int | None, merge, schema: pa.Schema):
    """Shared shape of the temporal joins: prune to the two event types,
    project to typed numeric columns (µs-resolution timestamps — join
    exactness is at full input resolution, unlike the second-level
    session windows), exchange on ``user_id`` into ``n_buckets``, and
    run ``merge`` per bucket.

    Partitioning assumption (documented per the custom-operator rule): a
    temporal join needs one user's timeline co-located.  The bucket
    count is the scale knob — data per bucket ≈ corpus / n_buckets, and
    a hot user costs one user's rows, never a corpus-sized group.
    """
    from coderag_ray.config import auto_buckets

    if n_buckets is None:
        # one user's timeline per bucket-group: narrow 5-column rows →
        # millions per group are fine; derived so 100× input → more
        # buckets, not bigger groups (callers with a DERIVED dataset
        # should pass an explicit count — see auto_buckets docstring)
        n_buckets = auto_buckets(events_ds, target_rows=2_000_000)

    def project(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array([probe_type, ref_type]))
        t = t.filter(keep)
        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts_us": pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            "value": pc.cast(t["value"], pa.float64()),
            "is_probe": pc.cast(pc.equal(t["event_type"], probe_type), pa.int8()),
        })

    return exchange(events_ds.map_batches(project, batch_format="pyarrow"), "user_id",
                    n_buckets, merge, batch_format="pandas", schema=schema)


def asof_join(events_ds, probe_type: str = ASOF_PROBE_TYPE,
              ref_type: str = ASOF_REF_TYPE,
              n_buckets: int | None = None):
    """As-of (temporal) join: for every *probe* event, attach the
    same-user *reference* event with the greatest ``ts ≤ probe.ts``
    (exact-timestamp matches allowed; ties on ``ts`` broken by the
    largest ``event_id``) — the classic "latest prior state" join that
    Ray Data has no native operator for.

    Shape: one shuffle of the two pruned event types keyed by a bounded
    user-hash bucket, then a single vectorized sweep per bucket — sort
    by ``(user, ts, is_probe, event_id)`` (references before probes at
    equal ts) and forward-propagate the POSITION of the last reference
    row with ``np.maximum.accumulate``; a propagated position from a
    previous user sorts below the user's segment start and is rejected,
    which resets the fill at user boundaries without a per-user loop.
    Positions (not ids) propagate, so 64-bit event ids never round-trip
    through float64.

    → Dataset (event_id, user_id, ts_us, value, ref_event_id [-1 if no
    prior reference], lag_us [-1 likewise]).
    """

    def merge(g: pd.DataFrame) -> pa.Table:
        eid, u, ts, val, isp = _group_arrays(g)
        a_eid, a_u, a_ts, a_val, ref_id, lag = _asof_sweep(eid, u, ts, val, isp)
        return pa.table({
            "event_id": pa.array(a_eid),
            "user_id": pa.array(a_u),
            "ts_us": pa.array(a_ts),
            "value": pa.array(a_val),
            "ref_event_id": pa.array(ref_id),
            "lag_us": pa.array(lag),
        })

    return _bucketed_two_type(events_ds, probe_type, ref_type, n_buckets, merge, ASOF_SCHEMA)


def _group_arrays(g: pd.DataFrame):
    return (g["event_id"].to_numpy(dtype=np.int64),
            g["user_id"].to_numpy(dtype=np.int64),
            g["ts_us"].to_numpy(dtype=np.int64),
            g["value"].to_numpy(dtype=np.float64),
            g["is_probe"].to_numpy(dtype=np.int8))


def _asof_sweep(eid, u, ts, val, isp):
    """Vectorized as-of sweep over one bucket (see :func:`asof_join` for
    the contract).  Probe rows come back in (user, ts, event_id) sorted
    order; all outputs are typed numpy (empty-safe)."""
    order = np.lexsort((eid, isp, ts, u))
    eid, u, ts, val, isp = eid[order], u[order], ts[order], val[order], isp[order]
    n = len(eid)
    pos = np.arange(n, dtype=np.int64)
    seg_start = np.maximum.accumulate(
        np.where(np.r_[True, u[1:] != u[:-1]], pos, 0)) if n else pos
    last_ref = np.maximum.accumulate(np.where(isp == 0, pos, -1)) if n else pos
    probe = isp == 1
    m = last_ref[probe]
    has = m >= seg_start[probe]
    ms = np.where(has, m, 0)  # safe gather index
    return (eid[probe], u[probe], ts[probe], val[probe],
            np.where(has, eid[ms], np.int64(-1)),
            np.where(has, ts[probe] - ts[ms], np.int64(-1)))


def range_join_agg(events_ds, probe_type: str = ASOF_PROBE_TYPE,
                   ref_type: str = ASOF_REF_TYPE,
                   window_seconds: int = RANGE_WINDOW_SECONDS,
                   n_buckets: int | None = None):
    """Range (interval) join + aggregate: for every *probe* event, count
    and sum the same-user *reference* events with ``ts ∈ [probe.ts − W,
    probe.ts)`` — a non-equi join Ray Data cannot express declaratively.

    Same bucketed shape as :func:`asof_join`; per bucket the interval
    lookups are ONE sorted sweep, no per-probe loop: each probe emits a
    start marker at ``t − W`` and an end marker at ``t``; markers sort
    BEFORE references at equal ts (so a reference exactly at ``t − W``
    counts and one exactly at ``t`` does not), and the running cumsum of
    reference counts/values between a probe's two markers is exactly its
    window aggregate.  Both markers share the probe's user, so every row
    between them is same-user — the user-primary sort makes per-user
    resets unnecessary.

    → Dataset (event_id, user_id, ts_us, n_ref, sum_ref_value round6).
    """

    win_us = np.int64(window_seconds) * 1_000_000

    def merge(g: pd.DataFrame) -> pa.Table:
        eid, u, ts, val, isp = _group_arrays(g)
        pe, pu, pt, n_ref, sum_v = _range_sweep(eid, u, ts, val, isp, win_us)
        return pa.table({
            "event_id": pa.array(pe, type=pa.int64()),
            "user_id": pa.array(pu, type=pa.int64()),
            "ts_us": pa.array(pt, type=pa.int64()),
            "n_ref": pa.array(n_ref, type=pa.int64()),
            "sum_ref_value": pa.array(sum_v, type=pa.float64()),
        })

    return _bucketed_two_type(events_ds, probe_type, ref_type, n_buckets, merge, RANGE_SCHEMA)


def _range_sweep(eid, u, ts, val, isp, win_us):
    """Vectorized marker-sweep for the range join over one bucket (see
    :func:`range_join_agg`).  Probe rows come back in bucket-input
    order; all outputs typed numpy (empty-safe)."""
    pr, rf = isp == 1, isp == 0
    pu, pt, pe = u[pr], ts[pr], eid[pr]
    n_p, n_r = int(pr.sum()), int(rf.sum())
    if n_p == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, z, np.zeros(0, dtype=np.float64)
    au = np.concatenate([u[rf], pu, pu])
    ats = np.concatenate([ts[rf], pt - win_us, pt])
    kind = np.concatenate([np.ones(n_r, np.int8), np.zeros(2 * n_p, np.int8)])
    order = np.lexsort((kind, ats, au))
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order), dtype=np.int64)
    # per-marker rank into the ref-only SORTED stream (exact int64)
    ref_mask = kind[order] == 1
    gcum = np.cumsum(ref_mask)
    ps, pe_pos = inv[n_r:n_r + n_p], inv[n_r + n_p:]
    lo, hi = gcum[ps], gcum[pe_pos]
    n_ref = (hi - lo).astype(np.int64)
    # SEGMENTED window sums over the sorted ref-only stream
    # (add.reduceat), not a difference of bucket-global prefix sums
    # — error stays proportional to the window's own sum, never the
    # bucket prefix.  NULL ref values sum as 0, matching SQL
    # sum()'s NULL-skip (count uses the rows, like count(r.ts_us)).
    w_val = np.concatenate([val[rf], np.zeros(2 * n_p)])
    rv = np.nan_to_num(np.concatenate([w_val[order][ref_mask], [0.0]]))
    seg = np.add.reduceat(rv, np.column_stack([lo, hi]).ravel())[::2]
    sum_v = round6(np.where(n_ref > 0, seg, 0.0)) + 0.0  # −0.0 → 0.0
    return pe, pu, pt, n_ref, sum_v


def temporal_join(events_ds, probe_type: str = ASOF_PROBE_TYPE,
                  ref_type: str = ASOF_REF_TYPE,
                  window_seconds: int = RANGE_WINDOW_SECONDS,
                  n_buckets: int | None = None):
    """As-of join + range aggregate in ONE exchange: for every *probe*
    event, the same-user latest prior *reference* (:func:`asof_join`
    semantics) AND the count/sum of references in the trailing window
    (:func:`range_join_agg` semantics) — both sweeps run on the same
    shuffled bucket, so the combined operator costs one shuffle instead
    of two.  Probe event ids are unique, so aligning the two sweeps'
    outputs is an argsort on ``event_id`` each.

    → Dataset (event_id, user_id, ts_us, value, ref_event_id, lag_us,
    n_ref, sum_ref_value).
    """
    win_us = np.int64(window_seconds) * 1_000_000

    def merge(g: pd.DataFrame) -> pa.Table:
        eid, u, ts, val, isp = _group_arrays(g)
        a_eid, a_u, a_ts, a_val, ref_id, lag = _asof_sweep(eid, u, ts, val, isp)
        r_eid, _, _, n_ref, sum_v = _range_sweep(eid, u, ts, val, isp, win_us)
        oa, orr = np.argsort(a_eid, kind="stable"), np.argsort(r_eid, kind="stable")
        return pa.table({
            "event_id": pa.array(a_eid[oa], type=pa.int64()),
            "user_id": pa.array(a_u[oa], type=pa.int64()),
            "ts_us": pa.array(a_ts[oa], type=pa.int64()),
            "value": pa.array(a_val[oa], type=pa.float64()),
            "ref_event_id": pa.array(ref_id[oa], type=pa.int64()),
            "lag_us": pa.array(lag[oa], type=pa.int64()),
            "n_ref": pa.array(n_ref[orr], type=pa.int64()),
            "sum_ref_value": pa.array(sum_v[orr], type=pa.float64()),
        })

    return _bucketed_two_type(events_ds, probe_type, ref_type, n_buckets, merge, TEMPORAL_SCHEMA)


def props_stats(events_ds):
    """JSON payload extraction + aggregate — the log-analytics step over
    the ``props`` JSON column: parse per event (stdlib ``json``; an
    accelerated parser drops into the same stage), extract ``k``, and
    aggregate per event type.  Cardinality = #event types (bounded), so
    the declarative groupby is fine here.

    → Dataset (event_type, n_events, sum_k, max_k).
    """
    import json as _json

    from ray.data.aggregate import Count, Max, Sum

    def parse(t: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (_json.loads(p).get("k", 0) if p else 0 for p in t["props"].to_pylist()),
            dtype=np.int64, count=t.num_rows,
        )
        return pa.table({"event_type": t["event_type"], "k": pa.array(ks)})

    return schema_stable(
        events_ds.map_batches(parse, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n_events"), Sum("k", alias_name="sum_k"),
                   Max("k", alias_name="max_k")),
        PROPS_SCHEMA,
    )
