"""A ledger of planted defects (mutants) and a runner that checks the
tests named for each one catch it.

Each entry names a file under src/pcgp, an exact old text that occurs
there once, the new text that replaces it and the ids of the tests that
must fail on the result; an id without a parameter part stands for all
its parametrizations.  For each mutant the runner copies src/ and
tests/ to a temporary directory, plants the mutant there and runs only
its tests, with --hypothesis-seed=0; up to os.cpu_count() mutants run
at once, and their outcomes print in ledger order.  It reports a mutant
as

- stale, when its old text no longer occurs exactly once;
- surviving, when one of its tests passes or is not found;

and exits non-zero if any mutant is stale or survives, so a refactor
carries its mutants along.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME...    # the named ones
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str           # under src/pcgp
    old: str
    new: str
    tests: tuple        # ids that must fail, relative to the repository root


EVOLVE = "tests/test_evolve.py::"
DECODE = "tests/test_decode.py::"
GENOME = "tests/test_genome.py::"
CROSS = "tests/test_crossover.py::"
MUTATE = "tests/test_mutate.py::"
LAWS = "tests/test_operator_laws.py::"
BENCH = "tests/test_bench.py::"
HOSTILE = "tests/test_hostile.py::"
EXECUTE = "tests/test_execute.py::"

MUTANTS = [
    Mutant("best-only-on-strict-improvement", "evolve.py",
           "        if fits[gen_best] >= best_fit:\n",
           "        if fits[gen_best] > best_fit:\n",
           (EVOLVE + "test_neutral_drift_replaces_parent_on_ties",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("one-plus-lambda-parent-first", "evolve.py",
           "    return (), fresh, fresh_graphs, (parent,)\n",
           "    return (parent,), fresh, fresh_graphs, ()\n",
           (EVOLVE + "test_neutral_drift_replaces_parent_on_ties",
            EVOLVE + "test_list_selection_matches_reference_under_ties",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    # vary decodes into a copy, as if the kept slots' graphs were
    # gathered before it ran
    Mutant("kept-slots-gathered-before-vary", "evolve.py",
           "= vary(params, generation, pop, fits, graphs, stream)\n",
           "= vary(params, generation, pop, fits, graphs[:], stream)\n",
           (EVOLVE + "test_loops_decode_each_individual_at_most_once",)),
    Mutant("mutant-carries-a-graph-not-its-own", "evolve.py",
           "child_graphs.append(graphs[i] if child is parent else None)",
           "child_graphs.append(graphs[i])",
           (EVOLVE + "test_active_node_count_matches_survivor",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    # the fitness value rule
    Mutant("nan-fitness-kept", "evolve.py",
           "                value = FAILED_FITNESS\n", "                pass\n",
           (EVOLVE + "test_evaluate_population_maps_nan_to_sentinel",
            EVOLVE + "test_ga_survives_nan_fitness",
            HOSTILE + "test_hostile_input[evaluate_population-nan]")),
    Mutant("plus-inf-fitness-kept", "evolve.py",
           '                raise ValueError("fitness evaluation returned +inf")\n',
           "                pass\n",
           (HOSTILE + "test_hostile_input[evaluate_population-plus-inf]",)),
    Mutant("fitness-error-raised-bare", "evolve.py",
           "    except Exception as e:\n        raise RuntimeError(",
           "    except Exception as e:\n        raise\n        raise RuntimeError(",
           (EVOLVE + "test_evaluate_population_propagates_failures",
            EVOLVE + "test_fitness_failure_propagates_with_context",
            HOSTILE + "test_hostile_input[evaluate_population-raising-fitness]")),
    Mutant("ga-without-a-child-accepted", "evolve.py",
           'if self.algorithm == "ga" and sum(_channel_sizes(self)[1:3]) == 0:',
           "if False:",
           (EVOLVE + "test_ga_generation_without_a_child_is_rejected",)),
    # the snapping rule (decode._nearest over _sorted_entities) and its sharers
    Mutant("nearest-distance-tie-takes-the-upper", "decode.py",
           "point - sorted_pos[j - 1] <= sorted_pos[j] - point",
           "point - sorted_pos[j - 1] < sorted_pos[j] - point",
           (DECODE + "test_snap_examples", DECODE + "test_snap_rule_holds_a_few_ulps_apart")),
    Mutant("tied-entities-keep-their-own-slot", "decode.py",
           "            order[k] = order[k - 1]\n", "            pass\n",
           (DECODE + "test_snap_equal_position_tie_takes_smaller_index",
            DECODE + "test_snap_rule_holds_a_few_ulps_apart",
            HOSTILE + "test_hostile_input[snap-position-ties]",
            CROSS + "test_aligned_node_pairs_the_smaller_index_of_a_tie")),
    Mutant("aligned-node-pairs-without-the-tie-rule", "crossover.py",
           "        k = entity[_nearest(ordered, p, len(free))]\n",
           "        k = _nearest(ordered, p, len(free))\n",
           (CROSS + "test_aligned_node_pairs_the_smaller_index_of_a_tie",)),
    # the entity axis, which the reference pipeline states on its own
    Mutant("cgp-axis-starts-at-input-start", "decode.py",
           "        start = 0.0\n",
           "        start = settings.input_start\n",
           (DECODE + "test_chain_fixture_targets",
            EVOLVE + "test_runs_match_the_reference_pipeline",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("ladder-shifted-half-a-cell", "decode.py",
           "np.arange(count) + 0.5", "np.arange(count) + 1.0",
           (GENOME + "test_ladder_positions_helper_matches",
            EVOLVE + "test_runs_match_the_reference_pipeline",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("connection-span-without-recurrency", "decode.py",
           "        span = r * (1.0 - p) + p - start\n", "        span = p - start\n",
           (EVOLVE + "test_runs_match_the_reference_pipeline",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("output-span-from-zero", "decode.py",
           "    out_span = 1.0 - start\n", "    out_span = 1.0\n",
           (EVOLVE + "test_runs_match_the_reference_pipeline",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("pcgp-inputs-left-unsorted", "decode.py",
           "        ordered, entity = _sorted_entities(positions, n_in)\n",
           "        ordered, entity = _sorted_entities(positions, 0)\n",
           (EVOLVE + "test_runs_match_the_reference_pipeline",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    # the recurrency-0 prefix: up to the first entity at the node's
    # position (the tie map), the inputs at least
    Mutant("prefix-without-the-input-clamp", "decode.py",
           "            if hi < n_in:\n                hi = n_in\n", "",
           (DECODE + "test_pcgp_node_tied_with_an_input_keeps_every_input_at_zero_recurrency",
            DECODE + "test_decode_matches_reference_in_either_reading_order")),
    Mutant("prefix-ignores-tied-nodes", "decode.py",
           "            hi = entity[n_in + i]\n", "            hi = n_in + i\n",
           (DECODE + "test_pcgp_tied_positions_not_candidates_at_zero_recurrency",
            DECODE + "test_decode_matches_reference_in_either_reading_order",
            EVOLVE + "test_runs_match_the_reference_pipeline[crossover-subgraph-False-PCGP]")),
    Mutant("pcgp-inputs-unscaled", "decode.py",
           "[x * start for x in g.inputs.tolist()]", "[-x for x in g.inputs.tolist()]",
           (EVOLVE + "test_runs_match_the_reference_pipeline",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    # the weakly-connected components
    Mutant("components-follow-only-the-first-connection", "decode.py",
           "            for t in (a, b):\n", "            for t in (a,):\n",
           (DECODE + "test_decode_matches_reference_in_either_reading_order",)),
    Mutant("components-sorted-by-size", "decode.py",
           "        groups = sorted(sorted(c) for c in _strong_components(links))\n",
           "        groups = sorted((sorted(c) for c in _strong_components(links)), key=len)\n",
           (DECODE + "test_decode_matches_reference_in_either_reading_order",
            MUTATE + "test_subgraph_deletion_deletes_from_the_drawn_component")),
    # genome construction
    Mutant("check-skips-the-input-shape", "genome.py",
           "        if inputs.shape != (n_in,):\n",
           "        if False:\n",
           (GENOME + "test_derive_checks_shapes", GENOME + "test_genome_rejects_forged_state")),
    # shared arrays are frozen, given ones fresh: only given ones are checked
    Mutant("range-check-skips-shared-arrays", "genome.py",
           "        if arr is not None and not all(0.0 <= v <= 1.0",
           "        if arr is not None and arr.flags.writeable and not all(0.0 <= v <= 1.0",
           (GENOME + "test_genome_checks_frozen_arrays",)),
    Mutant("node-block-left-writeable", "genome.py",
           "        for arr in (nodes, outputs, inputs):\n            if arr is not None:\n",
           "        for arr in (outputs, inputs):\n            if arr is not None:\n",
           (GENOME + "test_arrays_read_only", GENOME + "test_derive_shares_what_it_is_not_given")),
    Mutant("equality-ignores-inputs", "genome.py",
           "                and flatten(self).tobytes() == flatten(other).tobytes())\n",
           "                and self.nodes.tobytes() == other.nodes.tobytes()\n"
           "                and self.outputs.tobytes() == other.outputs.tobytes())\n",
           (GENOME + "test_equality_is_mode_counts_and_gene_bytes",
            HOSTILE + "test_hostile_input[Genome-equality]")),
    Mutant("require-positional-lets-cgp-through", "genome.py",
           "    if g.mode is not GenomeMode.PCGP:\n        raise UnsupportedOperatorError",
           "    if False:\n        raise UnsupportedOperatorError",
           ("tests/test_operator_laws.py::test_guards",)),
    # operators and execution
    Mutant("gene-mutation-writes-the-parent", "mutate.py",
           "    out = arr.copy()\n", "    out = arr\n",
           ("tests/test_mutate.py::test_children_always_valid",
            "tests/test_mutate.py::test_operators_deterministic_under_seed")),
    Mutant("cycle-step-appends-its-live-row", "execute.py",
           "outs.append(cur[:] if outputs is None", "outs.append(cur if outputs is None",
           (EXECUTE + "test_run_sequence_by_columns_hand_built",
            EXECUTE + "test_step_equals_run_sequence_bitwise")),
    Mutant("cycle-reads-last-row-from-the-fresh-columns", "execute.py",
           "(late if lagged else columns)", "(columns if lagged else late)",
           (EXECUTE + "test_run_sequence_by_columns_hand_built",
            EXECUTE + "test_step_equals_run_sequence_bitwise",
            EVOLVE + "test_runs_match_the_reference_pipeline[crossover-proportional-False-PCGP]")),
    Mutant("self-reading-node-run-as-a-column-step", "execute.py",
           " and here not in reads[here]:", ":",
           (EXECUTE + "test_run_sequence_by_columns_hand_built",
            EXECUTE + "test_step_equals_run_sequence_bitwise",
            EXECUTE + "test_batch_refuses_recurrent_flow")),
    Mutant("column-rule-never-zeroes", "execute.py",
           "_COLUMN_RULE = (lambda v: math.isfinite(np.add.reduce(v, axis=None)),",
           "_COLUMN_RULE = (lambda v: True,",
           (EXECUTE + "test_batch_equals_stepping_bitwise",
            EXECUTE + "test_step_equals_run_sequence_bitwise",
            EXECUTE + "test_batch_edge_cases_match_stepping")),
    # names one parametrization, whose id holds spaces
    Mutant("columns-after-the-last-cycle-never-run", "execute.py",
           "    if columns:\n        steps.append((None, columns, None))\n    return steps\n",
           "    return steps\n",
           (EXECUTE + "test_run_sequence_by_columns_hand_built"
            "[column node downstream of a cycle-False]",)),
    Mutant("stream-batch-crosses-a-word-boundary", "streams.py",
           "min(first + self.generations, 1 << 32 * width)", "first + self.generations",
           (EVOLVE + "test_stream_matches_default_rng",)),
    # each stream mutant makes hypothesis shrink for over a minute
    Mutant("stream-keeps-its-pending-half-from-numpy", "streams.py",
           "        if self._dirty:\n", "        if False:\n",
           (EVOLVE + "test_stream_calls_match_default_rng",
            EVOLVE + "test_tournament_through_a_stream_matches_numpy_oracle")),
    Mutant("stream-ignores-numpys-buffer", "streams.py",
           "        if self._lent:\n", "        if False:\n",
           (EVOLVE + "test_stream_calls_match_default_rng",)),
    # crossover's choices, each scripted by a test through the rng
    Mutant("single-point-cut-counted-from-the-end", "crossover.py",
           "    cut = rng.integers(min(a.n_nodes, b.n_nodes) + 2) - 1\n",
           "    cut = min(a.n_nodes, b.n_nodes) - rng.integers(min(a.n_nodes, b.n_nodes) + 2)\n",
           (CROSS + "test_single_point_cut_zero_clones_a_parent",
            CROSS + "test_single_point_enumerated_cuts")),
    Mutant("single-point-returns-the-head-at-cut-minus-one", "crossover.py",
           "    if cut < 0:\n        return tail\n", "    if cut < 0:\n        return head\n",
           (CROSS + "test_single_point_cut_zero_clones_a_parent",)),
    Mutant("proportional-weights-swapped", "crossover.py",
           "np.clip((1.0 - w) * fa[:low] + w * fb[:low], lo, hi)",
           "np.clip(w * fa[:low] + (1.0 - w) * fb[:low], lo, hi)",
           (CROSS + "test_proportional_injected_endpoints_exact",)),
    Mutant("output-graph-choice-inverted", "crossover.py",
           "    choices = [int(rng.integers(0, 2)) for _ in range(a.n_out)]\n",
           "    choices = [1 - int(rng.integers(0, 2)) for _ in range(a.n_out)]\n",
           (CROSS + "test_output_graph_disjoint_traces",
            CROSS + "test_output_graph_hand_built_parents")),
    Mutant("subgraph-takes-components-at-or-above-half", "crossover.py",
           "        take = rng.random(len(graph.components)) < 0.5\n",
           "        take = rng.random(len(graph.components)) >= 0.5\n",
           (CROSS + "test_subgraph_union_of_selected_components",
            CROSS + "test_subgraph_truncates_at_size_max")),
    Mutant("cap-rows-never-caps", "crossover.py",
           "    if rows.shape[0] <= bounds.size_max:\n",
           "    if True:\n",
           (CROSS + "test_output_graph_draw_order", CROSS + "test_output_graph_truncates_at_size_max",
            CROSS + "test_subgraph_truncates_at_size_max", EVOLVE + "test_size_rule")),
    Mutant("single-point-cut-past-a-boundary", "crossover.py",
           "tail.nodes[cut:]", "tail.nodes[cut + 1:]",
           (CROSS + "test_single_point_enumerated_cuts", EVOLVE + "test_size_rule")),
    Mutant("random-node-draws-b-apart-for-equal-sizes", "crossover.py",
           "    if a.n_nodes == b.n_nodes:\n", "    if False:\n",
           (LAWS + "test_self_cross",)),
    Mutant("random-node-a-half-unsorted", "crossover.py",
           "    sel_a = np.sort(rng.choice(a.n_nodes, half_a, replace=False))\n",
           "    sel_a = rng.choice(a.n_nodes, half_a, replace=False)\n",
           (CROSS + "test_random_node_keeps_each_parents_stored_order",)),
    Mutant("random-node-b-half-unsorted", "crossover.py",
           "        sel_b = np.sort(rng.choice(b.n_nodes, half_b, replace=False))\n",
           "        sel_b = rng.choice(b.n_nodes, half_b, replace=False)\n",
           (CROSS + "test_random_node_keeps_each_parents_stored_order[unequal]",)),
    Mutant("aligned-node-keeps-every-leftover", "crossover.py",
           "        if rng.random() < 0.5:\n            rows.append(long_.nodes[j])",
           "        if rng.random() < 1.0:\n            rows.append(long_.nodes[j])",
           (CROSS + "test_aligned_node_leftover_rule_bounds_count",)),
    Mutant("proportional-without-its-clip", "crossover.py",
           "    mix = np.clip((1.0 - w) * fa[:low] + w * fb[:low], lo, hi)\n",
           "    mix = (1.0 - w) * fa[:low] + w * fb[:low]\n",
           (LAWS + "test_self_cross",)),
    Mutant("proportional-tail-from-the-shorter-parent", "crossover.py",
           "    tail = fa if fa.size >= fb.size else fb\n",
           "    tail = fa if fa.size < fb.size else fb\n",
           (CROSS + "test_children_always_valid", CROSS + "test_proportional_tail_from_longer_parent")),
    Mutant("proportional-outputs-one-gene-off", "crossover.py",
           "flat[head - a.n_out:head]", "flat[head - a.n_out - 1:head - 1]",
           (CROSS + "test_proportional_midpoint_value",
            CROSS + "test_proportional_self_fixpoint_any_weights",
            GENOME + "test_flatten_round_trip")),
    Mutant("proportional-inputs-one-gene-off", "crossover.py",
           "    inputs = flat[:a.n_in] if", "    inputs = flat[1:a.n_in + 1] if",
           (CROSS + "test_proportional_injected_endpoints_exact",
            LAWS + "test_self_cross", GENOME + "test_flatten_round_trip")),
    Mutant("reads-graphs-without-subgraph", "crossover.py",
           'READS_GRAPHS = ("output_graph", "subgraph")',
           'READS_GRAPHS = ("output_graph",)',
           (LAWS + "test_the_package_tables_equal_this_one",
            EVOLVE + "test_loops_decode_each_individual_at_most_once")),
    Mutant("reads-graphs-with-proportional", "crossover.py",
           'READS_GRAPHS = ("output_graph", "subgraph")',
           'READS_GRAPHS = ("output_graph", "subgraph", "proportional")',
           (LAWS + "test_the_package_tables_equal_this_one",)),
    Mutant("output-graph-without-its-graph-check", "crossover.py",
           '    require_graph(graphs, "output graph crossover")\n', "",
           (LAWS + "test_guards",)),
    Mutant("output-graph-reads-the-other-parents-graph", "crossover.py",
           "        d = graphs[c]\n", "        d = graphs[1 - c]\n",
           (CROSS + "test_children_always_valid", CROSS + "test_given_graphs_match_decoding",
            EVOLVE + "test_size_rule")),
    Mutant("output-graph-without-its-cap", "crossover.py",
           "    rows = _cap_rows(rows, bounds, rng)\n", "",
           (CROSS + "test_output_graph_draw_order", EVOLVE + "test_size_rule")),
    Mutant("output-graph-coins-drawn-before-the-cap", "crossover.py",
           "    rows = _cap_rows(rows, bounds, rng)\n    outputs = np.array([parents[c].outputs[k]"
           " for k, c in enumerate(choices)])\n    inputs = np.empty(n_in)\n"
           "    for i, coin in enumerate(rng.random(n_in).tolist()):\n",
           "    coins = rng.random(n_in).tolist()\n    rows = _cap_rows(rows, bounds, rng)\n"
           "    outputs = np.array([parents[c].outputs[k] for k, c in enumerate(choices)])\n"
           "    inputs = np.empty(n_in)\n    for i, coin in enumerate(coins):\n",
           (CROSS + "test_output_graph_draw_order",)),
    Mutant("output-graph-coin-rule-inverted", "crossover.py",
           "parents[in_b if in_a != in_b else coin < 0.5]",
           "parents[in_b if in_a != in_b else coin >= 0.5]",
           (CROSS + "test_output_graph_hand_built_parents", CROSS + "test_output_graph_draw_order")),
    Mutant("output-graph-one-sided-input-from-the-other-parent", "crossover.py",
           "parents[in_b if in_a != in_b else coin < 0.5]",
           "parents[in_a if in_a != in_b else coin < 0.5]",
           (CROSS + "test_output_graph_disjoint_traces", CROSS + "test_output_graph_hand_built_parents")),
    Mutant("output-graph-ignores-an-outputs-own-input", "crossover.py",
           "        ends = [d.output_list[k]] + [t for i in tr",
           "        ends = [t for i in tr",
           (CROSS + "test_output_graph_all_from_one_parent",
            CROSS + "test_output_graph_hand_built_parents")),
    Mutant("output-graph-every-output-from-a", "crossover.py",
           "np.array([parents[c].outputs[k] for k, c in enumerate(choices)])",
           "np.array([a.outputs[k] for k, c in enumerate(choices)])",
           (CROSS + "test_output_graph_disjoint_traces", CROSS + "test_output_graph_hand_built_parents")),
    Mutant("subgraph-without-its-cap", "crossover.py",
           "    rows = _cap_rows(np.concatenate(parts), bounds, rng)\n",
           "    rows = np.concatenate(parts)\n",
           (CROSS + "test_subgraph_truncates_at_size_max", EVOLVE + "test_size_rule")),
    # mutation
    Mutant("reads-graph-ignores-require-active", "mutate.py",
           '    return params.require_active or params.operator == "mixed_subgraph"\n',
           '    return params.operator == "mixed_subgraph"\n',
           (LAWS + "test_the_package_tables_equal_this_one",
            EVOLVE + "test_loops_decode_each_individual_at_most_once")),
    Mutant("reads-graph-always", "mutate.py",
           '    return params.require_active or params.operator == "mixed_subgraph"\n',
           "    return True\n",
           (LAWS + "test_the_package_tables_equal_this_one",)),
    Mutant("mixed-grow-and-shrink-swapped", "mutate.py",
           "        return grow()\n    return shrink()\n",
           "        return shrink()\n    return grow()\n",
           (MUTATE + "test_mixed_draw_picks_modify_grow_or_shrink",)),
    Mutant("node-deletion-ignores-size-min", "mutate.py",
           "k = min(_burst_size(params), max(0, g.n_nodes - params.bounds.size_min))",
           "k = min(_burst_size(params), g.n_nodes)",
           (MUTATE + "test_node_deletion_counts", EVOLVE + "test_size_rule")),
    Mutant("subgraph-deletion-beyond-its-component", "mutate.py",
           "k = min(_burst_size(params), comp.size, ", "k = min(_burst_size(params), ",
           (EVOLVE + "test_size_rule",)),
    Mutant("mixed-node-without-its-graph-check", "mutate.py",
           '        require_graph(graph, "mixed_node mutation with require_active")\n',
           "        pass\n",
           (LAWS + "test_guards",)),
    Mutant("subgraph-deletion-without-its-graph-check", "mutate.py",
           '    require_graph(graph, "subgraph deletion")\n', "",
           (LAWS + "test_guards",)),
    Mutant("mixed-subgraph-checks-the-mode-before-the-graph", "mutate.py",
           '    require_graph(graph, "mixed_subgraph mutation")\n'
           '    require_positional(g, "mixed subgraph mutation")\n',
           '    require_positional(g, "mixed subgraph mutation")\n'
           '    require_graph(graph, "mixed_subgraph mutation")\n',
           (LAWS + "test_guards",)),
    # the bundled tasks' fitness
    Mutant("memoized-fitness-without-its-check", "bench.py",
           "        if (g.n_in, g.n_out) != self._shape:\n", "        if False:\n",
           (BENCH + "test_classification_shape_errors", BENCH + "test_cartpole_shape_errors",
            "tests/test_memo.py::test_memoized_fitness_checks_shapes_before_decoding")),
    # the task's own checks, made once at construction
    Mutant("cartpole-episode-length-unchecked", "bench.py",
           "            if episode_len < 1:\n", "            if False:\n",
           (BENCH + "test_cartpole_shape_errors",
            "tests/test_memo.py::test_memoized_fitness_checks_shapes_before_decoding")),
    Mutant("empty-dataset-accepted", "bench.py",
           "            if data.n_rows == 0:\n", "            if False:\n",
           (BENCH + "test_empty_dataset_rejected",)),
    Mutant("memo-never-evicts", "bench.py",
           "            if len(self._memo) > MEMO_ENTRIES:\n", "            if False:\n",
           ("tests/test_memo.py::test_eviction_keeps_logs_identical",)),
    # readers of outside data raise their own error for deep nesting and
    # long integers, as for any other malformed document
    Mutant("from-json-catches-only-decode-errors", "genome.py",
           "    except (ValueError, RecursionError) as e:   # the digit limit and deep nesting too\n"
           "        raise ParseError(f\"not valid JSON",
           "    except json.JSONDecodeError as e:\n        raise ParseError(f\"not valid JSON",
           (HOSTILE + "test_hostile_input[from_json-deep-nesting]",
            HOSTILE + "test_hostile_input[from_json-long-n_in]")),
    Mutant("load-config-catches-only-decode-errors", "config.py",
           "    except (ValueError, RecursionError) as e:   # the digit limit and deep nesting too\n",
           "    except json.JSONDecodeError as e:\n",
           (HOSTILE + "test_hostile_input[load_config-deep-nesting]",
            HOSTILE + "test_hostile_input[load_config-long-integer]",
            HOSTILE + "test_hostile_input[cli-validate-deep-config-in-a-process]")),
    Mutant("override-catches-only-decode-errors", "cli.py",
           "        except (ValueError, RecursionError) as e:   # the digit limit, deep nesting\n"
           "            raise ParseError(f\"override {key}: invalid JSON ({e})\") from None\n",
           "",
           (HOSTILE + "test_hostile_input[cli-set-deep-nesting]",
            HOSTILE + "test_hostile_input[cli-set-long-integer]")),
    Mutant("load-csv-lets-csv-errors-through", "bench.py",
           "    except (OSError, UnicodeDecodeError, csv.Error) as e:\n",
           "    except (OSError, UnicodeDecodeError) as e:\n",
           (HOSTILE + "test_hostile_input[load_csv-field-over-the-limit]",)),
    Mutant("evo-params-integer-fields-untyped", "evolve.py",
           "            if isinstance(value, bool) or not isinstance(value, int):    # as validate_config\n",
           "            if False:\n",
           (HOSTILE + "test_hostile_input[EvoParams-fractional-lambda]",
            HOSTILE + "test_hostile_input[EvoParams-nan-population]",
            HOSTILE + "test_hostile_input[EvoParams-nan-budget]",
            HOSTILE + "test_hostile_input[EvoParams-bool-lambda]")),
    # config validation
    Mutant("bool-spelling-1-rejected", "config.py",
           "value in (0, 1):", "value in (0,):",
           ("tests/test_config.py::test_type_checks",
            "tests/test_config.py::test_validate_accepts_exactly_what_builds")),
]


def plant(mutant: Mutant, root: Path) -> bool:
    """Plant mutant in root's copy of src/pcgp; False if its old text is stale."""
    path = root / "src" / "pcgp" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def caught(test_id: str, failed: set) -> bool:
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def failed_ids(summary: str) -> set:
    """The ids on pytest's FAILED and ERROR summary lines, each read up
    to the " - " before its message, so an id may hold spaces."""
    return set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", summary, re.MULTILINE))


def run(mutant: Mutant) -> str:
    """'killed', 'stale' or a description of how the mutant survived."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", root / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        if not plant(mutant, root):
            return "stale"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"             # a test that hangs does not pass
    if done.returncode not in (0, 1):
        return f"survived: pytest exited {done.returncode}\n{done.stdout[-2000:]}"
    failed = failed_ids(done.stdout)
    missed = [t for t in mutant.tests if not caught(t, failed)]
    return "survived: " + ", ".join(missed) + " did not fail" if missed else "killed"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for mutant, outcome in zip(chosen, pool.map(run, chosen)):
            bad += outcome != "killed"
            print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{bad} of {len(chosen)} mutants stale or surviving")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
