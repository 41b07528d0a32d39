"""``dataset_rows_estimate`` sizes bucketed group-bys from plan metadata
through three private Ray Data APIs: ``Dataset._meta_count``,
``Dataset._logical_plan.dag`` with ``input_dependencies`` and the source
operator's ``infer_metadata``.  Validated on Ray 2.49.2.  If a Ray
upgrade drops or changes one of them the estimate would quietly fall
back to ``count()``, which executes the whole upstream plan; these tests
fail instead."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from coderag_ray.config import dataset_rows_estimate

N = 1234


def _marking_udf(mark_dir):
    """A batch UDF that leaves a file behind whenever it runs."""

    def udf(t: pa.Table) -> pa.Table:
        open(os.path.join(mark_dir, f"ran-{os.getpid()}"), "w").close()
        return t

    return udf


@pytest.fixture()
def no_count(monkeypatch):
    import ray.data

    def boom(self, *a, **k):
        raise AssertionError("the estimate executed the plan through count()")

    monkeypatch.setattr(ray.data.Dataset, "count", boom)


def _parquet(tmp_path):
    d = tmp_path / "in"
    d.mkdir()
    half = N // 2
    pq.write_table(pa.table({"x": list(range(half))}), str(d / "a.parquet"))
    pq.write_table(pa.table({"x": list(range(half, N))}), str(d / "b.parquet"))
    return str(d)


def test_from_arrow_estimate_comes_from_meta_count(ray_session, no_count):
    import ray
    import ray.data

    ds = ray.data.from_arrow(pa.table({"x": list(range(N))}))
    assert ds._meta_count() == N, f"Dataset._meta_count changed in Ray {ray.__version__}"
    assert dataset_rows_estimate(ds, allow_execute=False) == N


def test_derived_read_parquet_estimate_comes_from_source_metadata(ray_session, tmp_path, no_count):
    import ray
    import ray.data

    marks = tmp_path / "marks"
    marks.mkdir()
    ds = ray.data.read_parquet(_parquet(tmp_path)).map_batches(
        _marking_udf(str(marks)), batch_format="pyarrow")

    op = ds._logical_plan.dag
    assert op.input_dependencies, f"LogicalOperator.input_dependencies changed in Ray {ray.__version__}"
    while op.input_dependencies:
        op = op.input_dependencies[0]
    assert op.infer_metadata().num_rows == N, \
        f"source LogicalOperator.infer_metadata changed in Ray {ray.__version__}"

    # the footer tier would also find N for parquet: hide it, so only the
    # plan metadata can answer
    ds.input_files = lambda: []
    assert dataset_rows_estimate(ds, allow_execute=False) == N
    assert dataset_rows_estimate(ds) == N
    assert os.listdir(marks) == []  # the map UDF never ran


def test_bare_read_parquet_estimate_needs_no_execution(ray_session, tmp_path, no_count):
    import ray.data

    ds = ray.data.read_parquet(_parquet(tmp_path))
    ds.input_files = lambda: []
    assert dataset_rows_estimate(ds, allow_execute=False) == N
