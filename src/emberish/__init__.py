"""Batch context enrichment via learned keyless joins.

The engine aligns records across two schemaless tabular datasets that
share no key: records become prepared sentences, a trainable encoder maps
them into a common embedding space under a triplet objective, and the
join executes as exact k-NN retrieval over an embedding index. Lexical
baselines (BM25, Jaccard, Levenshtein) and a recall/MRR harness ship
alongside for comparison.
"""

from .data import (
    DataError,
    Dataset,
    DatasetRole,
    Record,
    SupervisionPair,
    SupervisionTriple,
    load_dataset,
    load_supervision,
    write_dataset,
)
from .encoder import (
    EncoderModel,
    TrainConfig,
    TrainResult,
    embed_tokens,
    fit_encoder,
    load_model,
    save_model,
    train,
)
from .evalkit import (
    ComparisonTable,
    TruthSet,
    mrr_at_k,
    recall_at_k,
    run_comparison,
)
from .joiner import (
    EmbeddingIndex,
    JoinResult,
    aggregate_labels,
    build_index,
    chain_joins,
    execute_join,
)
from .joinspec import (
    EngineConfig,
    JoinSpec,
    JoinType,
    parse_config,
    parse_join_spec,
    render_join_spec,
)
from .lexrank import (
    Bm25Index,
    build_bm25_index,
    jaccard,
    key_join,
    levenshtein,
    lexical_join,
)
from .prepare import Sentence, prepare_sentence, read_key_texts, read_token_ids, tokenize
from .supervise import (
    PerturbationConfig,
    SamplerConfig,
    build_pretraining_pairs,
    generate_fuzzy_join,
    sample_triples,
    split_train_test,
)

__version__ = "0.2.0"
