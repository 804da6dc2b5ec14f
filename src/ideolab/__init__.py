"""ideolab: coverage-based, label-balanced demonstration selection and an
evaluation harness for LLM ideology classification."""

from .config import RunConfig
from .corpus import (
    IDEOLOGIES,
    ContentItem,
    DatasetError,
    FilterResult,
    Ideology,
    LabelMapping,
    SourceIdeologyMap,
    filter_subset,
    load_dataset,
    map_label,
    misleading_slice,
    normalize_source,
    write_dataset,
)
from .coverage import (
    CandidatePool,
    CoverageError,
    PoolEntry,
    QueryOrdering,
    RankedEntry,
    bsr,
    build_candidate_pool,
    order_for_query,
    probe_indices,
    set_coverage,
)
from .embedding import (
    EmbeddingCache,
    EmbeddingError,
    DimensionMismatchError,
    HashedProvider,
    HttpProvider,
    PrecomputedFileProvider,
    TokenEmbeddingSet,
    embed_item,
    embed_many,
    fields_hash,
    l2_normalize,
    load_provider,
)
from .evaluation import (
    DeltaMatrix,
    EvalReport,
    EvaluationError,
    McNemarResult,
    MLPHyper,
    MLPModel,
    delta,
    init_mlp,
    mcnemar,
    mlp_accuracy,
    mlp_loss_and_grads,
    mlp_predict,
    mlp_probabilities,
    mlp_train,
    score,
    significance_stars,
)
from .llm import (
    ChatCompletionsClient,
    LLMConfig,
    PredictionRecord,
    TransportError,
    classify,
    classify_batch,
    fit_to_budget,
    mock_from_spec,
    mock_llm,
    parse_label,
)
from .prompting import (
    FIELD_GRID,
    FieldConfig,
    PromptBlock,
    PromptError,
    RenderedPrompt,
    instruction_for,
    render,
    render_block,
    render_fields_text,
)
from .selection import (
    Demonstration,
    DemonstrationSet,
    SelectionError,
    balanced_select,
    random_select,
)
from .synthetic import cluster_sentence_embeddings, synthetic_corpus

__version__ = "0.1.0"
