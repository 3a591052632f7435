"""Floating-point Cartesian Genetic Programming, plain and positional.

Genomes are flat vectors of genes in [0,1]; decoding snaps real-valued
connection genes to node positions on a 1-D axis, yielding executable
(possibly recurrent, possibly weighted) program graphs.  The package
adds mutation and crossover operators over both representations, a
1+lambda EA and a GA, benchmark fitness functions, and a CLI runner.
"""

from .bench import (
    Dataset,
    cartpole_fitness,
    classification_fitness,
    load_csv,
    regression_fitness,
)
from .config import (
    DEFAULTS,
    RANGES,
    build_evo_params,
    build_functions,
    build_mutation,
    build_settings,
    load_config,
    load_preset,
    make_fitness,
    merge_config,
    preset_names,
    sample_config,
    validate_config,
)
from .crossover import (
    POSITIONAL_ONLY,
    aligned_node,
    apply_crossover,
    output_graph,
    proportional,
    random_node,
    single_point,
    subgraph,
)
from .crossover import OPERATORS as CROSSOVER_OPERATORS
from .decode import (
    DecodedGraph,
    DecodeSettings,
    component_groups,
    connection_position,
    decode,
    output_position,
    output_trace,
    snap,
)
from .dot import to_dot
from .errors import (
    CgpError,
    ConfigError,
    DatasetError,
    DecodeError,
    OutputError,
    ParseError,
    SizeError,
    UnsupportedOperatorError,
)
from .evolve import (
    ALGORITHMS,
    EvoParams,
    RunRecord,
    evaluate_population,
    ga,
    one_plus_lambda,
    run_evolution,
)
from .execute import (
    new_state,
    reset,
    run_batch,
    run_sequence,
    run_supervised,
    step,
)
from .functions import Function, FunctionSet, default_functions
from .genome import (
    Genome,
    GenomeMode,
    SizeBounds,
    add_nodes,
    flatten,
    from_json,
    make_genome,
    node_position,
    random_genome,
    remove_nodes,
    to_json,
    unflatten,
    validate_genome,
)
from .mutate import (
    MutationParams,
    apply_mutation,
    gene_mutation,
    mixed_node_mutate,
    mixed_subgraph_mutate,
    node_addition,
    node_deletion,
    subgraph_addition,
    subgraph_deletion,
)
from .mutate import OPERATORS as MUTATION_OPERATORS

__version__ = "0.1.0"
