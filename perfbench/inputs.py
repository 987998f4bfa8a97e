"""Source tables for the benchmark workloads.

The two shapes follow ``tests/corpus.py``: ``word_soup`` rows draw tokens
from a skewed vocabulary, ``slot_grid`` rows are catalog-style with a
brand phrase, a slot code and a long two-token pad. They are written here
rather than imported so that the benchmark's inputs do not change when the
test corpus does, and so that set-up writes ``source.csv`` without calling
into the package under test.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

# Center-weighted offsets for the two pad counts; deterministic per row.
_CELLS = (
    [(0, 0)] * 4
    + [(1, 0), (-1, 0), (0, 1), (0, -1)] * 2
    + [(1, 1), (-1, -1), (1, -1), (-1, 1)]
)


def word_soup_rows(n_rows: int, seed: int, vocab: int = 300, row_len: int = 28):
    rng = random.Random(seed)
    words = [f"v{j}" for j in range(vocab)]
    for i in range(n_rows):
        toks = [words[min(int(rng.expovariate(1 / 60.0)), vocab - 1)] for _ in range(row_len)]
        yield f"r{i}", {"text": " ".join(toks)}


def slot_grid_rows(n_rows: int, n_families: int = 10, group: int = 6, mid: int = 22,
                   brand_k: int = 5):
    per_family = n_rows // n_families
    for i in range(n_rows):
        fam = i // per_family
        within = i % per_family
        da, db = _CELLS[within % len(_CELLS)]
        pad = " ".join(["w0"] * (mid + da) + ["w1"] * (mid + db))
        brand = " ".join(f"f{fam}{chr(97 + j)}" for j in range(brand_k))
        yield f"r{i}", {"brand": brand, "code": f"s{within // group}", "notes": pad}


def write_source(shape: str, n_rows: int, seed: int, path: Path) -> None:
    """Write ``source.csv`` for ``shape`` (``soup`` or ``grid``); the grid
    shape has no randomness, so its seed only reaches ``emberish generate``."""
    rows = word_soup_rows(n_rows, seed) if shape == "soup" else slot_grid_rows(n_rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = None
        for rid, fields in rows:
            if header is None:
                header = ["id", *fields]
                writer.writerow(header)
            writer.writerow([rid, *fields.values()])
