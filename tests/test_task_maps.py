"""Map stages run as plain task maps.

An actor pool holds its CPUs for the whole call, so a pool sized to the
cluster leaves the read or map task that feeds it no CPU and the call
never finishes.  The first two tests run the language-ID, media-feature
and frame-sampling stages, and a BPE-tokenized index build, in a 2-CPU
Ray session in a child process, under a timeout; the last allows no
``map_batches`` actor pool in the package or in ``__ray_entry__.py``.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# Runs the four calls in a 2-CPU session and writes the table and each
# result to parquet in the directory named by argv[1].  The child calls
# only the pipelines' entry points; the test process compares the
# results with the batch functions.
_CHILD = r"""
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
import ray.data
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as e
from coderag_ray.pipelines.multimodal import frame_samples, media_features
from coderag_ray.pipelines.sampling import lang_quota_sample

out = sys.argv[1]
words = {"en": "the cat and the dog is here", "de": "der hund und die katze ist",
         "fr": "le chat et le chien est la", "zh": "你好世界", "und": "qwerty"}
texts = [words[k] + " " + "x" * (i * 97) for i, k in enumerate(sorted(words) * 24)]
tbl = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts)})
pq.write_table(tbl, out + "/documents.parquet")
for name, ds in [
    ("lang_quota", lang_quota_sample(ray.data.from_arrow(tbl), quota=7)),
    ("media_features", media_features(ray.data.from_arrow(tbl))),
    ("frame_samples", frame_samples(ray.data.from_arrow(tbl))),
    ("q_langid", e.q_langid(out)),
]:
    pq.write_table(pa.Table.from_pandas(ds.to_pandas(), preserve_index=False),
                   f"{out}/{name}.parquet")
ray.shutdown()
print("TASK_MAPS_OK")
"""


# Builds a 200-document corpus from parquet with the BPE tokenizer in a
# 2-CPU session and prints the posting count.
_BPE_CHILD = r"""
import sys
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
import ray.data
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.index.build import build_index

out = sys.argv[1]
pq.write_table(make_corpus(200, seed=5), out + "/corpus.parquet")
report = build_index(ray.data.read_parquet(out + "/corpus.parquet"), out + "/idx",
                     IndexConfig(tokenizer="bpe", num_partitions=4))
ray.shutdown()
print("BPE_BUILD_OK", report.n_postings)
"""


def _run_two_cpu_child(script: str, tmp_path, marker: str) -> str:
    """Run ``script`` with ``tmp_path`` as argv[1]; fail unless it prints
    ``marker`` within the timeout.  Returns the child's output."""
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_path)], cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": REPO},
        start_new_session=True,  # Ray's processes join the child's group
    )
    try:
        out, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        raise AssertionError("a map stage did not finish on 2 CPUs:\n" + out[-2000:])
    assert proc.returncode == 0 and marker in out, out[-2000:]
    return out


def test_stateless_stages_finish_on_two_cpus(tmp_path):
    """lang_quota_sample, media_features, frame_samples and the q_langid
    map finish in a 2-CPU session and equal their batch function over
    the whole table."""
    import pyarrow.parquet as pq

    _run_two_cpu_child(_CHILD, tmp_path, "TASK_MAPS_OK")

    from coderag_ray.pipelines.multimodal import (
        frame_sample_batch, media_feature_batch, payload_batch)
    from coderag_ray.pipelines.text_analysis import lang_id_batch

    def same(name, want, *keys):
        def norm(df):
            return df.sort_values(list(keys)).reset_index(drop=True)

        got = pq.read_table(tmp_path / f"{name}.parquet").to_pandas()
        assert norm(got).equals(norm(want)), name

    tbl = pq.read_table(tmp_path / "documents.parquet")
    langs = lang_id_batch(tbl).to_pandas()
    same("lang_quota", langs.sort_values("doc_id").groupby("lang_pred").head(7), "doc_id")
    same("media_features", media_feature_batch(payload_batch(tbl)).to_pandas(), "doc_id")
    same("frame_samples", frame_sample_batch(payload_batch(tbl)).to_pandas(),
         "doc_id", "frame_idx")
    same("q_langid", langs, "doc_id")


def test_bpe_build_finishes_on_two_cpus(tmp_path):
    """The BPE tokenize stage fuses into the build's task chain, so a
    ``tokenizer="bpe"`` build finishes in a 2-CPU session."""
    out = _run_two_cpu_child(_BPE_CHILD, tmp_path, "BPE_BUILD_OK")
    assert int(out.split("BPE_BUILD_OK")[1].split()[0]) > 0


def _pool_calls(tree: ast.AST):
    """(line, text) of each ``map_batches`` call that passes a class
    (CamelCase name) or ``concurrency=``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"):
            continue
        fn = node.args[0] if node.args else None
        is_class = isinstance(fn, ast.Name) and fn.id[:1].isupper()
        if is_class or any(k.arg == "concurrency" for k in node.keywords):
            yield node.lineno, fn.id if isinstance(fn, ast.Name) else ast.unparse(node)


def test_only_stateful_stages_run_as_actor_pools():
    """No stage in the package or in ``__ray_entry__.py`` is an actor
    pool; the one stage with loaded state worth a pool, ``BatchScorer``,
    is pooled by its callers."""
    pkg = os.path.join(REPO, "coderag_ray")
    offenders = []
    for d, _, files in os.walk(pkg):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(d, f)
            rel = os.path.relpath(path, pkg)
            with open(path, encoding="utf-8") as fh:
                offenders += [f"coderag_ray/{rel}:{line}: {name}"
                              for line, name in _pool_calls(ast.parse(fh.read()))]
    with open(os.path.join(REPO, "__ray_entry__.py"), encoding="utf-8") as fh:
        entry = ast.parse(fh.read())
    for fn in entry.body:
        if isinstance(fn, ast.FunctionDef):
            offenders += [f"__ray_entry__.py:{line}: {name}"
                          for line, name in _pool_calls(fn)]
    assert not offenders, "\n".join(offenders)
