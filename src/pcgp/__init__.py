"""Floating-point Cartesian Genetic Programming, plain and positional.

Genomes are flat vectors of genes in [0,1]; decoding snaps real-valued
connection genes to node positions on a 1-D axis, yielding executable
(possibly recurrent, possibly weighted) program graphs.  The package
adds mutation and crossover operators over both representations, a
1+lambda EA and a GA, benchmark fitness functions, and a CLI runner.
"""

from .bench import Dataset, MemoizedFitness, load_csv
from .config import (
    DEFAULTS,
    RANGES,
    build_evo_params,
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
    decode,
    output_trace,
)
from .dot import to_dot
from .errors import (
    CgpError,
    ConfigError,
    DatasetError,
    OutputError,
    ParseError,
    UnsupportedOperatorError,
)
from .evolve import ALGORITHMS, EvoParams, RunRecord, run_evolution
from .execute import run_batch, run_sequence, run_supervised, step
from .functions import Function, FunctionSet, default_functions
from .genome import (
    Genome,
    GenomeMode,
    SizeBounds,
    flatten,
    from_json,
    make_genome,
    random_genome,
    to_json,
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
