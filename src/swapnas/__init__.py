"""Training-free network scoring from sample-wise activation patterns.

The package measures the expressivity of untrained ReLU networks by
counting distinct binarised activation patterns over a small input batch,
taken sample-wise so the count is bounded by the (large) number of
intermediate values rather than the batch size.  A bell-shaped size
factor turns the count into a size-controllable search objective, and an
elitist evolutionary loop searches a cell-based space with it.  A small
harness correlates any of these scores against ground-truth accuracy
tables.
"""

from .cells import (
    AssemblyConfig,
    AssemblyError,
    CellMatrix,
    CellValidationError,
    ShapeError,
    assemble_descriptor,
    count_flops,
    count_parameters,
    nb201_like_assembly,
    params_to_megabytes,
    random_cell,
    read_cell_file,
    validate_cell,
    write_cell_file,
)
from .evaluation import (
    BenchmarkEntry,
    BenchmarkTable,
    CorrelationReport,
    InsufficientDataError,
    TableError,
    UndefinedCorrelationError,
    correlation_report,
    estimate_mu_sigma,
    input_dim_ablation,
    load_accuracy_table,
    mu_sigma_sweep,
    score_table,
    size_histogram,
    spearman_rho,
    write_accuracy_table,
)
from .evolution import (
    Individual,
    SearchConfig,
    SearchResult,
    crossover,
    mutate_connectivity,
    mutate_operation,
    resume_search,
    run_search,
)
from .metric import (
    ActivationCapture,
    ContractViolationError,
    RegularisationParams,
    ScoreRecord,
    regularisation_factor,
    regularised_swap_score,
    standard_pattern_cardinality,
    swap_score,
)
from .network import (
    InputBatch,
    NetworkInstance,
    NumericOverflowError,
    build_mlp,
    build_network,
    forward_capture,
    gaussian_batch,
    read_tensor_file,
    write_tensor_file,
)
from .scoring import derive_seed, make_batch, score_cell

__version__ = "0.1.0"
