"""Dynamic graphs: mutation batches, the delta-CSR overlay, compaction.

The contract under test: a :class:`DeltaOverlayGraph` is an *exact*
stand-in for the mutated graph — its incremental statistics match the
logical edge set after every apply, and realizing it (``materialize`` /
``compact``) produces a CSR that is array- and digest-identical to a
from-scratch :func:`from_edge_list` build of the mutated edge list.
The hypothesis round-trip drives random mutation batches, in all three
modes, through both the overlay and an explicit op-by-op edge-dict
model and requires the two to agree bit-for-bit: every delta array,
report tally and note, and for a rejected batch the exact message and
an unchanged overlay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, GraphFormatError
from repro.graph.builder import from_edge_list
from repro.graph.dynamic import (
    DeltaOverlayGraph,
    EdgeBatch,
    MutationReport,
)
from repro.gpusim.allocator import MemoryBudget
from repro.obs import Observer, observing
from repro.obs.manifest import graph_fingerprint


def _graph(weighted: bool = False):
    src = [0, 0, 1, 2, 2, 3]
    dst = [1, 2, 2, 3, 4, 4]
    w = [1.0, 4.0, 2.0, 7.0, 3.0, 1.0] if weighted else None
    return from_edge_list(src, dst, w, num_nodes=5, name="tiny")


# ----------------------------------------------------------------------
# EdgeBatch parsing
# ----------------------------------------------------------------------

class TestEdgeBatchParsing:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "muts.jsonl"
        path.write_text(
            "\n".join(
                [
                    '{"op": "insert", "u": 1, "v": 4, "weight": 2.5}',
                    "# a comment line",
                    "",
                    '{"op": "delete", "u": 0, "v": 2}',
                    '{"op": "grow", "nodes": 3}',
                ]
            )
        )
        batch = EdgeBatch.from_jsonl(path)
        assert len(batch) == 3
        ops = list(batch)
        assert [op.op for op in ops] == ["insert", "delete", "grow"]
        assert ops[0].weight == 2.5
        assert ops[2].nodes == 3
        # line numbers survive for diagnostics (comments/blanks counted)
        assert [op.line for op in ops] == [1, 4, 5]

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ('{"op": "frobnicate", "u": 0, "v": 1}', "unknown mutation op"),
            ('{"op": "insert", "u": 0}', "integer 'v'"),
            ('{"op": "insert", "u": 0, "v": "x"}', "integer 'v'"),
            ('{"op": "insert", "u": 0, "v": 1, "extra": 1}', "unknown field"),
            ('{"op": "delete", "u": 0, "v": 1, "weight": 2}', "unknown field"),
            ('{"op": "grow", "nodes": 0}', "positive integer"),
            ('{"op": "grow", "nodes": true}', "positive integer"),
            ('{"op": "insert", "u": 0, "v": 1, "weight": -2}', "non-negative"),
            ('{"op": "insert", "u": 0, "v": 1, "weight": "w"}', "bad edge weight"),
            ("[1, 2, 3]", "JSON object"),
            ("{not json", "invalid JSON"),
        ],
    )
    def test_bad_lines_are_line_numbered_errors(self, tmp_path, line, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "grow", "nodes": 1}\n' + line + "\n")
        with pytest.raises(GraphFormatError) as exc:
            EdgeBatch.from_jsonl(path)
        message = str(exc.value)
        assert fragment in message
        assert ":2:" in message  # the offending line, not the file start

    def test_from_docs_carries_stream_linenos(self):
        docs = [(7, {"op": "insert", "u": 0, "v": 1}), (9, {"op": "bad"})]
        with pytest.raises(GraphFormatError) as exc:
            EdgeBatch.from_docs(docs, path="<stdin>")
        assert "<stdin>:9:" in str(exc.value)


# ----------------------------------------------------------------------
# Overlay apply: modes, quarantine, incremental statistics
# ----------------------------------------------------------------------

class TestOverlayApply:
    def test_insert_delete_grow_updates_stats_without_rebuild(self):
        overlay = DeltaOverlayGraph(_graph())
        delta = overlay.apply(
            EdgeBatch.from_docs(
                enumerate(
                    [
                        {"op": "insert", "u": 4, "v": 0},
                        {"op": "delete", "u": 0, "v": 2},
                        {"op": "grow", "nodes": 2},
                        {"op": "insert", "u": 6, "v": 1},
                    ],
                    start=1,
                )
            )
        )
        assert overlay.num_nodes == 7
        assert overlay.num_edges == 6 + 2 - 1
        assert overlay.epoch == 1 and delta.epoch == 1
        assert delta.num_inserts == 2 and delta.num_deletes == 1
        assert delta.nodes_added == 2
        assert overlay.has_edge(4, 0) and overlay.has_edge(6, 1)
        assert not overlay.has_edge(0, 2)

    def test_default_mode_rejects_range_and_missing_delete(self):
        overlay = DeltaOverlayGraph(_graph())
        with pytest.raises(GraphFormatError, match="out of range"):
            overlay.apply(EdgeBatch.inserts([(0, 99)]))
        with pytest.raises(GraphFormatError, match="missing edge"):
            overlay.apply(EdgeBatch.deletes([(4, 0)]))
        # ...but tolerates duplicates (collapsed, not errors).
        delta = overlay.apply(EdgeBatch.inserts([(0, 1)]))
        assert delta.num_inserts == 0
        assert delta.report.duplicates_collapsed == 1

    def test_strict_mode_raises_on_each_anomaly(self):
        cases = [
            (EdgeBatch.inserts([(2, 2)]), "self-loop"),
            (EdgeBatch.inserts([(0, 1)]), "duplicate edge"),
            (EdgeBatch.deletes([(4, 0)]), "missing edge"),
        ]
        for batch, fragment in cases:
            overlay = DeltaOverlayGraph(_graph())
            with pytest.raises(GraphFormatError, match=fragment):
                overlay.apply(batch, mode="strict")
        overlay = DeltaOverlayGraph(_graph())  # unweighted
        with pytest.raises(GraphFormatError, match="unweighted"):
            overlay.apply(
                EdgeBatch.inserts([(4, 0)], weights=[2.0]), mode="strict"
            )

    def test_lenient_mode_quarantines_and_tallies(self):
        overlay = DeltaOverlayGraph(_graph())
        report = MutationReport()
        delta = overlay.apply(
            EdgeBatch.from_docs(
                enumerate(
                    [
                        {"op": "insert", "u": 2, "v": 2},   # self-loop
                        {"op": "insert", "u": 0, "v": 1},   # duplicate
                        {"op": "insert", "u": 0, "v": 99},  # dangling
                        {"op": "delete", "u": 4, "v": 0},   # missing
                        {"op": "insert", "u": 4, "v": 0},   # fine
                    ],
                    start=1,
                )
            ),
            mode="lenient",
            report=report,
        )
        assert delta.num_inserts == 1 and delta.num_deletes == 0
        assert report.self_loops_dropped == 1
        assert report.duplicates_collapsed == 1
        assert report.dangling_dropped == 1
        assert report.missing_deletes_dropped == 1
        assert report.quarantined == 4
        assert report.to_dict()["quarantined"] == 4

    def test_rejected_batch_changes_nothing(self):
        overlay = DeltaOverlayGraph(_graph())
        overlay.apply(EdgeBatch.inserts([(4, 0)]))
        before = (
            overlay.num_nodes,
            overlay.num_edges,
            overlay.epoch,
        )
        report = MutationReport()
        batch = EdgeBatch.from_docs(
            enumerate(
                [
                    {"op": "insert", "u": 0, "v": 4},
                    {"op": "grow", "nodes": 2},
                    {"op": "delete", "u": 3, "v": 0},  # missing
                ],
                start=1,
            ),
            path="<b>",
        )
        with pytest.raises(GraphFormatError) as exc:
            overlay.apply(batch, report=report)
        assert str(exc.value) == "<b>:3: cannot delete missing edge 3 -> 0"
        # Neither line 1's insert nor line 2's grow took effect.
        after = (
            overlay.num_nodes,
            overlay.num_edges,
            overlay.epoch,
        )
        assert after == before
        assert not overlay.has_edge(0, 4)
        assert report.to_dict() == MutationReport().to_dict()

    def test_ids_past_int64_are_out_of_range(self):
        huge = {"op": "insert", "u": 2**70, "v": 0}
        overlay = DeltaOverlayGraph(_graph())
        with pytest.raises(GraphFormatError, match="out of range"):
            overlay.apply(EdgeBatch.from_docs([(1, huge)]))
        delta = overlay.apply(EdgeBatch.from_docs([(1, huge)]), mode="lenient")
        assert delta.report.dangling_dropped == 1 and delta.num_inserts == 0

    def test_invalid_mode_rejected(self):
        overlay = DeltaOverlayGraph(_graph())
        with pytest.raises(GraphFormatError, match="mutation mode"):
            overlay.apply(EdgeBatch.inserts([(4, 0)]), mode="sloppy")

    def test_delete_then_reinsert_in_one_batch(self):
        overlay = DeltaOverlayGraph(_graph(weighted=True))
        overlay.apply(
            EdgeBatch.from_docs(
                enumerate(
                    [
                        {"op": "delete", "u": 0, "v": 2},
                        {"op": "insert", "u": 0, "v": 2, "weight": 9.0},
                    ],
                    start=1,
                )
            )
        )
        assert overlay.has_edge(0, 2)
        graph = overlay.materialize()
        slot = np.flatnonzero(
            graph.col_indices[
                graph.row_offsets[0]: graph.row_offsets[1]
            ] == 2
        )
        assert graph.weights[graph.row_offsets[0] + slot[0]] == 9.0

    def test_grown_nodes_referencable_in_same_batch(self):
        overlay = DeltaOverlayGraph(_graph())
        delta = overlay.apply(
            EdgeBatch.from_docs(
                enumerate(
                    [
                        {"op": "grow", "nodes": 1},
                        {"op": "insert", "u": 5, "v": 0},
                    ],
                    start=1,
                )
            )
        )
        assert delta.num_inserts == 1
        assert overlay.has_edge(5, 0)

    def test_has_edge_range_checked(self):
        overlay = DeltaOverlayGraph(_graph())
        with pytest.raises(GraphError, match="out of range"):
            overlay.has_edge(0, 99)

    def test_observer_counters(self):
        observer = Observer()
        with observing(observer):
            overlay = DeltaOverlayGraph(_graph())
            overlay.apply(
                EdgeBatch.from_docs(
                    enumerate(
                        [
                            {"op": "insert", "u": 4, "v": 0},
                            {"op": "delete", "u": 0, "v": 2},
                            {"op": "insert", "u": 2, "v": 2},
                            {"op": "grow", "nodes": 1},
                        ],
                        start=1,
                    )
                ),
                mode="lenient",
            )
            overlay.compact()
        snap = observer.metrics.snapshot()
        assert snap["dynamic.mutations_applied"]["value"] == 1
        assert snap["dynamic.edges_inserted"]["value"] == 1
        assert snap["dynamic.edges_deleted"]["value"] == 1
        assert snap["dynamic.nodes_added"]["value"] == 1
        assert snap["dynamic.ops_quarantined"]["value"] == 1
        assert snap["dynamic.epoch"]["value"] == 1
        assert snap["dynamic.compactions"]["value"] == 1
        assert snap["dynamic.compaction_bytes"]["value"] > 0


# ----------------------------------------------------------------------
# Compaction: pricing and canonical equality
# ----------------------------------------------------------------------

class TestCompaction:
    def test_compact_equals_materialize_and_is_priced(self):
        overlay = DeltaOverlayGraph(_graph(weighted=True))
        overlay.apply(EdgeBatch.inserts([(4, 0), (3, 1)], weights=[2.0, 5.0]))
        overlay.apply(EdgeBatch.deletes([(2, 3)]))
        result = overlay.compact()
        ref = overlay.materialize()
        assert graph_fingerprint(result.graph) == graph_fingerprint(ref)
        assert result.host_seconds > 0
        assert result.transfer.seconds > 0
        assert result.delta_bytes == overlay.delta_bytes()
        assert result.seconds == result.host_seconds + result.transfer.seconds
        # Only the delta ships — far less than a cold full upload.
        assert result.delta_bytes < ref.device_bytes()

    def test_compact_charges_growth_against_budget(self):
        overlay = DeltaOverlayGraph(_graph())
        overlay.apply(
            EdgeBatch.from_docs(
                enumerate(
                    [{"op": "grow", "nodes": 64}]
                    + [{"op": "insert", "u": 5 + i, "v": i % 5} for i in range(32)],
                    start=1,
                )
            )
        )
        memory = MemoryBudget(1 << 20)
        base_bytes = _graph().device_bytes()
        memory.allocate(base_bytes, "graph", label="base graph")
        result = overlay.compact(memory=memory)
        assert memory.by_category["graph"] == result.graph.device_bytes()

    def test_empty_overlay_compacts_to_base_digest(self):
        base = _graph(weighted=True)
        overlay = DeltaOverlayGraph(base)
        result = overlay.compact()
        assert (
            graph_fingerprint(result.graph)["digest"]
            == graph_fingerprint(base)["digest"]
        )


# ----------------------------------------------------------------------
# Hypothesis round-trip: overlay == per-op model == from-scratch build
# ----------------------------------------------------------------------

MODES = (None, "strict", "lenient")


@st.composite
def mutation_scenarios(draw):
    """A base edge list plus random mutation batches, each with a mode.

    The base may hold duplicate pairs and self-loops.  Ops are drawn
    blind (endpoints may be out of range, duplicated, self-looping,
    already deleted...), with some aimed at base pairs so deletes and
    duplicate inserts hit live edges.
    """
    n = draw(st.integers(min_value=2, max_value=16))
    weighted = draw(st.booleans())
    base_pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=24,
        )
    )
    base_weights = None
    if weighted:
        base_weights = draw(
            st.lists(
                st.floats(0.5, 8.0, allow_nan=False, width=32),
                min_size=len(base_pairs),
                max_size=len(base_pairs),
            )
        )
    max_node = n + 6  # leave room for grown nodes and dangling ids
    pair = st.tuples(st.integers(-1, max_node), st.integers(-1, max_node))
    if base_pairs:
        pair = st.one_of(pair, st.sampled_from(base_pairs))
    op = st.one_of(
        pair.flatmap(
            lambda p: st.fixed_dictionaries(
                {"op": st.just("insert"), "u": st.just(p[0]), "v": st.just(p[1])},
                optional={
                    "weight": st.floats(0.5, 8.0, allow_nan=False, width=32)
                },
            )
        ),
        pair.map(lambda p: {"op": "delete", "u": p[0], "v": p[1]}),
        st.fixed_dictionaries(
            {"op": st.just("grow"), "nodes": st.integers(1, 3)}
        ),
    )
    batches = draw(
        st.lists(
            st.tuples(st.sampled_from(MODES), st.lists(op, max_size=12)),
            min_size=1,
            max_size=4,
        )
    )
    return n, weighted, base_pairs, base_weights, batches


def _model_apply(model, num_nodes, weighted, ops, mode, where):
    """apply's contract, restated op by op on a plain edge dict.

    *model* maps each present pair to the weights of its live copies (a
    duplicated base edge has several).  Returns the model after the
    batch, its node count, the applied inserts and deletes as
    ``(u, v, weight)`` in op order (a delete carries the minimum weight
    over the copies it removes), and the report's tallies and notes.  A
    rejected batch raises apply's message and leaves *model* as it was.
    """
    model = {edge: list(weights) for edge, weights in model.items()}
    tally = dict.fromkeys(
        (
            "parsed_ops", "nodes_added", "self_loops_dropped",
            "duplicates_collapsed", "dangling_dropped",
            "missing_deletes_dropped",
        ),
        0,
    )
    inserts, deletes, notes = [], [], []
    for line, doc in enumerate(ops, start=1):
        tally["parsed_ops"] += 1
        reject = f"{where}:{line}: "
        if doc["op"] == "grow":
            num_nodes += doc["nodes"]
            tally["nodes_added"] += doc["nodes"]
            continue
        u, v = doc["u"], doc["v"]
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            if mode == "lenient":
                tally["dangling_dropped"] += 1
                continue
            raise GraphFormatError(
                reject + f"node id out of range in {doc['op']} {u} -> {v} "
                f"(graph has {num_nodes} nodes)"
            )
        if doc["op"] == "delete":
            if (u, v) not in model:
                if mode == "lenient":
                    tally["missing_deletes_dropped"] += 1
                    continue
                raise GraphFormatError(
                    reject + f"cannot delete missing edge {u} -> {v}"
                )
            deletes.append((u, v, min(model.pop((u, v)))))
            continue
        if u == v and mode == "strict":
            raise GraphFormatError(reject + f"self-loop at node {u} (strict mode)")
        if u == v and mode == "lenient":
            tally["self_loops_dropped"] += 1
            continue
        if (u, v) in model:
            if mode == "strict":
                raise GraphFormatError(
                    reject + f"duplicate edge {u} -> {v} (strict mode)"
                )
            tally["duplicates_collapsed"] += 1
            continue
        if "weight" in doc and not weighted:
            if mode == "strict":
                raise GraphFormatError(
                    reject + "weight on insert into unweighted graph 'hyp' "
                    "(strict mode)"
                )
            notes.append(f"line {line}: weight ignored (graph is unweighted)")
        weight = doc.get("weight", 1.0)
        model[(u, v)] = [weight]
        inserts.append((u, v, weight))
    return model, num_nodes, inserts, deletes, tally, notes


def _present_pairs(overlay):
    n = overlay.num_nodes
    return [(u, v) for u in range(n) for v in range(n) if overlay.has_edge(u, v)]


def _overlay_state(overlay):
    """Everything a rejected batch must leave unchanged."""
    return (
        overlay.num_nodes,
        overlay.num_edges,
        overlay.epoch,
        _present_pairs(overlay),
        graph_fingerprint(overlay.materialize())["digest"],
    )


class TestOverlayRoundTripProperty:
    @given(mutation_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_compact_equals_from_scratch_build(self, scenario):
        n, weighted, base_pairs, base_weights, batches = scenario
        src = [u for u, _ in base_pairs]
        dst = [v for _, v in base_pairs]
        base = from_edge_list(
            src, dst, base_weights, num_nodes=n, name="hyp"
        )
        overlay = DeltaOverlayGraph(base)
        model = {}
        for i, edge in enumerate(base_pairs):
            model.setdefault(edge, []).append(
                base_weights[i] if weighted else 1.0
            )
        model_n = n
        epoch = 0

        for k, (mode, ops) in enumerate(batches):
            where = f"<hyp-{k}>"
            batch = EdgeBatch.from_docs(enumerate(ops, start=1), path=where)
            report = MutationReport()
            try:
                expected = _model_apply(model, model_n, weighted, ops, mode, where)
            except GraphFormatError as exc:
                # A rejected batch names its first bad line and changes
                # nothing: not the overlay, not the caller's report.
                before = _overlay_state(overlay)
                with pytest.raises(GraphFormatError) as raised:
                    overlay.apply(batch, mode=mode, report=report)
                assert str(raised.value) == str(exc)
                assert _overlay_state(overlay) == before
                assert report.to_dict() == MutationReport().to_dict()
                continue
            delta = overlay.apply(batch, mode=mode, report=report)
            model, model_n, inserts, deletes, tally, notes = expected

            assert delta.ins_src.tolist() == [u for u, _, _ in inserts]
            assert delta.ins_dst.tolist() == [v for _, v, _ in inserts]
            assert delta.del_src.tolist() == [u for u, _, _ in deletes]
            assert delta.del_dst.tolist() == [v for _, v, _ in deletes]
            if weighted:
                assert delta.ins_weight.tolist() == [w for _, _, w in inserts]
                assert delta.del_weight.tolist() == [w for _, _, w in deletes]
            else:
                assert delta.ins_weight is None and delta.del_weight is None
            assert delta.nodes_added == tally["nodes_added"]
            epoch += 1
            assert delta.epoch == overlay.epoch == epoch
            assert delta.report is report
            assert report.to_dict() == {
                "path": where,
                "mode": mode,
                "edges_inserted": len(inserts),
                "edges_deleted": len(deletes),
                **tally,
                "quarantined": sum(
                    tally[key]
                    for key in (
                        "self_loops_dropped", "duplicates_collapsed",
                        "dangling_dropped", "missing_deletes_dropped",
                    )
                ),
                "notes": notes,
            }

        # The overlay's incremental counts match the model...
        assert overlay.num_nodes == model_n
        edges = [(u, v, w) for (u, v), ws in model.items() for w in ws]
        assert overlay.num_edges == len(edges)
        assert _present_pairs(overlay) == sorted(model)

        # ...and realization is identical to a from-scratch build of the
        # model's edge list: CSR arrays and content digest both.
        expected = from_edge_list(
            [u for u, _, _ in edges],
            [v for _, v, _ in edges],
            [w for _, _, w in edges] if weighted else None,
            num_nodes=model_n,
            name="hyp",
        )
        for built in (overlay.materialize(), overlay.compact().graph):
            np.testing.assert_array_equal(built.row_offsets, expected.row_offsets)
            np.testing.assert_array_equal(built.col_indices, expected.col_indices)
            if weighted:
                np.testing.assert_array_equal(built.weights, expected.weights)
            else:
                assert built.weights is None
            assert (
                graph_fingerprint(built)["digest"]
                == graph_fingerprint(expected)["digest"]
            )
