"""Span recording around the package's public functions, and the per-layer
aggregation of the recorded spans.

``install`` replaces each traced function in every ``emberish`` module
namespace that holds it, so a call is caught whichever module looks the
name up (``_retrieve`` calling ``knn``, ``cli`` calling ``embed_dataset``).
Nothing under ``src/`` changes; the wrappers live only in this process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _dataset_rows(args, kwargs, result):
    dataset = kwargs.get("dataset", args[1] if len(args) > 1 else None)
    return len(dataset.records)


def _index_rows(args, kwargs, result):
    index = kwargs.get("index", args[0])
    return int(index.n)


def _loaded_rows(args, kwargs, result):
    return len(result.records)


# (module, attribute or Class.method, span name, work count per call).
# Without a count function a call counts as one unit of work.
LAYERS = (
    ("emberish.cli", "RunManifest.add_input", "cli.digest", None),
    ("emberish.cli", "RunManifest.add_output", "cli.digest", None),
    ("emberish.data", "load_dataset", "data.load_dataset", _loaded_rows),
    ("emberish.data", "load_supervision", "data.load_supervision", None),
    ("emberish.data", "write_dataset", "data.write", None),
    ("emberish.data", "write_pairs", "data.write", None),
    ("emberish.prepare", "prepare_sentence", "prepare.prepare_sentence", None),
    ("emberish.supervise", "generate_fuzzy_join", "supervise.generate", None),
    ("emberish.supervise", "split_train_test", "supervise.split", None),
    ("emberish.supervise", "sample_triples", "supervise.sample_triples", None),
    ("emberish.supervise", "build_pretraining_pairs", "supervise.pretraining_pairs", None),
    ("emberish.lexrank", "build_bm25_index", "lexrank.bm25_build", None),
    ("emberish.lexrank", "bm25_topk", "lexrank.bm25_topk", None),
    ("emberish.lexrank", "lexical_join", "lexrank.lexical_join", None),
    ("emberish.encoder", "EncoderModel.create", "encoder.model_create", None),
    ("emberish.encoder", "fit_encoder", "encoder.fit_encoder", None),
    ("emberish.encoder", "train", "encoder.train", None),
    ("emberish.encoder", "batch_gradients", "encoder.batch_gradients", None),
    ("emberish.encoder", "save_model", "encoder.save_model", None),
    ("emberish.encoder", "load_model", "encoder.load_model", None),
    ("emberish.encoder", "embed_dataset", "encoder.embed", _dataset_rows),
    ("emberish.joiner", "execute_join", "joiner.execute_join", None),
    ("emberish.joiner", "build_index", "joiner.build_index", None),
    ("emberish.joiner", "knn", "joiner.knn", _index_rows),
    ("emberish.joiner", "save_embeddings", "joiner.save_embeddings", None),
    ("emberish.joiner", "JoinResult.write_csv", "joiner.write_result", None),
    ("emberish.joiner", "JoinResult.from_csv", "joiner.read_result", None),
    ("emberish.evalkit", "recall_at_k", "evalkit.recall", None),
)

ROOT_SPAN = "cli.main"


class Recorder:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            work = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                work = count(args, kwargs, result) if count is not None else 1
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, work))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: Path, stage: str) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, work in self.spans:
                fh.write(json.dumps({"stage": stage, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "count": work}) + "\n")


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced function; returns the targets that were not found,
    so a renamed function reads as zero instead of failing the run."""
    importlib.import_module("emberish.cli")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "emberish" or name.startswith("emberish."))]
    missing = []
    for module_name, attr, span, count in LAYERS:
        owner = sys.modules.get(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                missing.append(f"{module_name}.{attr}")
            elif isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(recorder.wrap(span, raw.__func__, count)))
            else:
                setattr(cls, meth, recorder.wrap(span, raw, count))
            continue
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = recorder.wrap(span, orig, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, traced)
    return missing


def read_spans(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_table(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, work count, total and self seconds. A span's
    self time is its duration minus the durations of its direct children;
    ids are unique within one stage."""
    child_time: dict[tuple[str, int], float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["stage"], s["parent"])] += s["end"] - s["start"]
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s["name"]]
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["count"] += s["count"]
        row["total_s"] += dur
        row["self_s"] += dur - child_time[(s["stage"], s["id"])]
    return dict(table)
