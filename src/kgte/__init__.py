"""KB-augmented triplet extraction: KB construction, embedding retrieval,
prompt rendering, generation drivers, scoring, and scaling analysis."""

from ._transport import APIError, TransportError
from .analysis import (
    AblationPoint,
    AblationResult,
    ExperimentRunSpec,
    FitResult,
    StudyRow,
    index_dataset,
    linear_fit,
    log_param_fit,
    random_model_study,
    replay_experiment,
    run_ablation,
    run_experiment,
)
from .corpus import (
    AnnotatedSentence,
    Dataset,
    DatasetFormatError,
    DatasetStats,
    KnowledgeBase,
    Triplet,
    build_kb,
    dataset_stats,
    downscale_kb,
    load_dataset,
    load_records,
    normalize_surface,
    save_dataset,
)
from .encoder import (
    EncodeError,
    EncoderConfig,
    encode,
    encode_texts,
)
from .evaluation import (
    ContextQualityCurve,
    EvalReport,
    context_hit_probability,
    micro_f1,
    sentence_f1,
    sweep_context_quality,
)
from .extraction import (
    CONTEXT_WINDOWS,
    GenerationConfig,
    RemoteLLMClient,
    char_budget_for,
    exhaustive_random_f1,
    pure_extract,
    random_extract,
    random_f1_closed_form,
    sentence_rng,
)
from .parsing import ParseOutcome, parse_triplets, triplet_to_string
from .prompting import (
    PromptBudgetError,
    PromptInstance,
    PromptTemplate,
    render,
)
from .retriever import (
    RetrievedContext,
    diversity_filter,
    retrieve_contexts,
    retrieve_examples,
    retrieve_triplets,
)
from .vector_index import (
    IndexFormatError,
    IndexNode,
    VectorIndex,
    build_index,
    load_index,
    save_index,
    top_k,
)

__version__ = "0.1.0"
