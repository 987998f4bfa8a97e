"""Synthetic corpora used by the acceptance suite.

Two workload shapes:

* ``slot_grid_source`` — catalog-style rows: a family brand phrase, one
  reused slot code that pins row identity within the family, and a long
  two-token boilerplate pad whose per-row counts sit on a small integer
  grid. Count noise from token edits confuses raw bag-of-words retrieval
  while the slot/brand structure stays learnable.
* ``word_soup_source`` — rows of tokens drawn from a skewed vocabulary,
  the generic fuzzy-join shape.
"""

import random

from emberish.data import Dataset
from records import dataset_from_rows

# Center-weighted offsets for the two pad counts; deterministic per row.
_CELLS = (
    [(0, 0)] * 4
    + [(1, 0), (-1, 0), (0, 1), (0, -1)] * 2
    + [(1, 1), (-1, -1), (1, -1), (-1, 1)]
)


def slot_grid_source(
    n_rows: int = 1000,
    n_families: int = 10,
    group: int = 6,
    mid: int = 22,
    brand_k: int = 5,
) -> Dataset:
    per_family = n_rows // n_families
    rows = []
    for i in range(n_rows):
        fam = i // per_family
        within = i % per_family
        slot = within // group
        da, db = _CELLS[within % len(_CELLS)]
        pad = " ".join(["w0"] * (mid + da) + ["w1"] * (mid + db))
        brand = " ".join(f"f{fam}{chr(97 + j)}" for j in range(brand_k))
        rows.append(
            (f"r{i}", [("brand", brand), ("code", f"s{slot}"), ("notes", pad)])
        )
    return dataset_from_rows("source", "auxiliary", rows)


def word_soup_source(
    n_rows: int = 800,
    seed: int = 29,
    vocab: int = 300,
    row_len: int = 28,
) -> Dataset:
    rng = random.Random(seed)
    words = [f"v{j}" for j in range(vocab)]
    rows = []
    for i in range(n_rows):
        toks = [
            words[min(int(rng.expovariate(1 / 60.0)), vocab - 1)]
            for _ in range(row_len)
        ]
        rows.append((f"r{i}", [("text", " ".join(toks))]))
    return dataset_from_rows("source", "auxiliary", rows)
