"""Open-domain multi-hop question answering at desk scale.

The pipeline retrieves start passages with a hybrid BM25 / title tf-idf
score, predicts the bridge entity (the anchor link leading to the answer
passage) with a reading-comprehension model over the start passages, and
extracts the final answer with a span reader. All neural components run on
the package's own reverse-mode autodiff core and are gradient-checked
against finite differences.
"""

from .ablation import (
    PipelineState,
    answer_question,
    predict_questions,
    run_ablation,
    score_predictions,
)
from .bridge import (
    BridgeCandidate,
    BridgeLabel,
    BridgeModel,
    TitleTokenLinker,
    bridge_loss,
    collect_candidates,
    derive_bridge_labels,
    expand_with_entity_linking,
    init_bridge_model,
    rank_answer_passages,
    score_bridges,
)
from .config import ABLATION_MODES, PipelineConfig, load_config
from .corpus import (
    AnchorMention,
    Corpus,
    Passage,
    QARecord,
    TokenSeq,
    align_anchor,
    load_corpus,
    load_questions,
    save_corpus,
    tokenize,
)
from .metrics import MetricReport, em_f1, hits_at_k, normalize_answer
from .reader import (
    ReaderContext,
    ReaderExample,
    best_span,
    build_reader_context,
    decode_answer,
    locate_answer_span,
    reader_loss,
    train_reader,
    two_fold_split,
)
from .retrieval import (
    InvertedIndex,
    RetrievalResult,
    build_index,
    hybrid_score,
    retrieve_start_passages,
)
from .span_model import (
    EmbeddingTable,
    EncodedSeq,
    SpanModel,
    SpanScores,
    biattention,
    build_vocab,
    encode,
    init_span_model,
    run_span_model,
    self_attention,
    span_heads,
    span_nll_loss,
)

__version__ = "0.1.0"
