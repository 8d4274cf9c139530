"""Confidence-guided refinement control for LLM reasoning.

Pipeline: a backend generates completions with top-k logprobs; the
confidence module turns those into traces and fixed-length features; a
small Conv1D controller maps features to HALT / RETHINK / ALTERNATIVE
(optionally REFUSE) decisions; the refine and tree modules orchestrate
sequential and branching refinement; the bench module compares against
parallel-voting baselines with exact token accounting.
"""

from .backend import (
    Backend,
    BackendError,
    Completion,
    GenerationConfig,
    HttpBackend,
    MissingLogprobsError,
    MockBackend,
    MockRecord,
    TransportError,
    drain_concurrent,
    load_mock_script,
)
from .bench import (
    ReportRow,
    RunSpec,
    conf_filtered_vote,
    emit_report,
    majority_vote,
    run_benchmark,
)
from .confidence import (
    ConfidenceTrace,
    FeatureVector,
    NormalizationTable,
    TraceStats,
    build_trace,
    downsample,
    normalize,
    stats,
    token_confidence,
)
from .controller import (
    Action,
    ControllerModel,
    Decision,
    SerializationError,
    deserialize,
    forward,
    init,
    load_model,
    parameter_count,
    save_model,
    serialize,
)
from .datasets import DatasetError, Problem, load_dataset
from .labeler import (
    HeuristicThresholds,
    LabeledTrace,
    RawTrace,
    heuristic_label,
    label_math,
    label_refusal,
    split,
)
from .refine import (
    LoopConfig,
    RefinementError,
    RunResult,
    build_prompt,
    compact,
    extract_answer,
    run,
)
from .training import TrainConfig, TrainReport, class_weights, loss, train
from .tree import TreeConfig, aggregate, early_stop_check, run_tree, tree_metrics

__version__ = "0.1.0"
