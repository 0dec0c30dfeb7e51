"""Effect analysis (repro analyze, DESIGN §12): abstract interpretation
of synthetic functor bodies into effect summaries and rules GR006-GR012,
plus the registry hooks (array_specs, effect_summary) and the extended
GR005 check."""

import textwrap

import numpy as np
import pytest

from repro.analysis import RULES, RULES_BY_ID, lint_source
from repro.analysis.effects import (DTYPE_LEVELS, analyze_module_source,
                                    dtype_level, extract_problem_arrays,
                                    summarize_functor_class)


def _effects(body: str):
    return analyze_module_source(textwrap.dedent(body), "case.py")


def _rules(effects):
    return {v.rule.name for v in effects.violations}


#: a registered problem class shared by most synthetic cases
_PROBLEM = """
    import numpy as np
    from repro.core import atomics

    class CaseProblem(ProblemBase):
        relaxed_arrays = frozenset({"preds"})
        def __init__(self, graph):
            super().__init__(graph)
            self.add_vertex_array("labels", np.int64, -1)
            self.add_vertex_array("ranks", np.float64, 0.0)
            self.add_vertex_array("small", np.int32, 0)
            self.add_vertex_array("preds", np.int64, -1)
            self.add_edge_array("flags", bool, False)
"""


# ---------------------------------------------------------------- registry

def test_new_rule_registry_ids_are_stable():
    assert RULES["cond-impure"].id == "GR006"
    assert RULES["nondeterministic-call"].id == "GR007"
    assert RULES["narrowing-store"].id == "GR008"
    assert RULES["unrouted-store"].id == "GR009"
    assert RULES["fused-write-hazard"].id == "GR010"
    assert RULES["atomic-mix"].id == "GR011"
    assert RULES["unknown-effect"].id == "GR012"
    assert RULES_BY_ID["GR006"] is RULES["cond-impure"]


def test_static_registry_extraction():
    eff = _effects(_PROBLEM)
    specs = eff.problems["CaseProblem"]
    assert specs["labels"].kind == "vertex"
    assert specs["labels"].dtype == "int64"
    assert specs["flags"].kind == "edge"
    assert specs["flags"].dtype == "bool"
    assert eff.relaxed == frozenset({"preds"})


def test_registry_matches_runtime_array_specs(tiny_graph):
    """The static registry agrees with the live array_specs() hook."""
    import inspect

    from repro.primitives.bfs import BfsProblem

    src = inspect.getsource(inspect.getmodule(BfsProblem))
    eff = analyze_module_source(src, "bfs.py")
    problem = BfsProblem(tiny_graph)
    runtime = problem.array_specs()
    static = eff.problems["BfsProblem"]
    assert set(static) == set(runtime)
    for name, spec in static.items():
        assert spec.dtype == runtime[name]["dtype"], name
        assert spec.kind == runtime[name]["kind"], name
        assert runtime[name]["relaxed"] == (name in eff.relaxed), name


def test_dtype_lattice_ordering():
    assert dtype_level("bool") < dtype_level("int32")
    assert dtype_level("int32") < dtype_level("int64")
    assert dtype_level("int64") < dtype_level("float32")
    assert dtype_level("float32") < dtype_level("float64")
    assert dtype_level("made_up") is None
    assert dtype_level(None) is None
    assert DTYPE_LEVELS["float64"] == max(DTYPE_LEVELS.values())


# -------------------------------------------------- summaries: read/write

def test_summary_reads_and_atomic_writes():
    eff = _effects(_PROBLEM + """
    class GoodFunctor(Functor):
        def cond_edge(self, P, src, dst, eid):
            return P.labels[dst] < 0
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_min(P.labels, dst, P.labels[src] + 1, P.machine)
    """)
    s = eff.functors["GoodFunctor"]
    assert s.reads() == {"labels"}
    assert s.write_arrays() == {"labels"}
    kinds = s.write_kinds()["labels"]
    assert kinds["kinds"] == {"atomic"}
    assert kinds["ops"] == {"min"}
    assert s.methods["cond_edge"].pure
    assert _rules(eff) == set()


def test_alias_chain_tracked_to_write():
    """x = P.labels; y = x; y[dst] = v is still a labels write."""
    eff = _effects(_PROBLEM + """
    class AliasFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            x = P.labels
            y = x
            y[dst] = 0
    """)
    s = eff.functors["AliasFunctor"]
    assert s.write_arrays() == {"labels"}
    # an element store is GR001's finding; no GR009 double-report
    assert "unrouted-store" not in _rules(eff)


def test_fancy_index_subscript_is_a_copy_not_an_alias():
    """v = P.labels[src] gathers a copy (numpy fancy indexing); in-place
    arithmetic on it is private, exactly the SSSP pooled pattern."""
    eff = _effects(_PROBLEM + """
    class GatherFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            v = P.labels[src]
            np.add(v, 1, out=v)
            atomics.atomic_min(P.labels, dst, v, P.machine)
    """)
    s = eff.functors["GatherFunctor"]
    assert s.write_kinds()["labels"]["kinds"] == {"atomic"}
    assert _rules(eff) == set()


def test_tuple_targets_are_writes():
    """Each element of a tuple/list/starred assignment target is its own
    store: the static write set must cover both arrays."""
    eff = _effects(_PROBLEM + """
    class PairFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            P.labels[dst], [*P.preds[dst]] = 0, [src]
    """)
    s = eff.functors["PairFunctor"]
    assert s.write_arrays() == {"labels", "preds"}
    assert {w.kind for w in s.methods["apply_edge"].writes} == {"store"}


def test_constant_string_subscript_is_a_lookup_not_a_copy():
    """P._vertex_arrays["labels"] looks the array up (a dict key), so a
    store through it writes problem state."""
    eff = _effects(_PROBLEM + """
    class StashedFunctor(Functor):
        def apply_vertex(self, P, v):
            P._vertex_arrays["labels"][v] = 9
    """)
    assert eff.functors["StashedFunctor"].write_arrays() == {"_vertex_arrays"}
    assert "raw-write" in _rules(eff)


def test_slice_subscript_is_a_view_alias():
    eff = _effects(_PROBLEM + """
    class ViewFunctor(Functor):
        def apply_vertex(self, P, v):
            head = P.ranks[1:]
            np.add(head, 1.0, out=head)
    """)
    assert eff.functors["ViewFunctor"].write_arrays() == {"ranks"}
    assert "unrouted-store" in _rules(eff)


def test_augmented_assign_through_alias_is_inplace_write():
    eff = _effects(_PROBLEM + """
    class AugFunctor(Functor):
        def apply_vertex(self, P, v):
            r = P.ranks
            r += 1.0
    """)
    s = eff.functors["AugFunctor"]
    assert s.write_kinds()["ranks"]["kinds"] == {"augstore"}
    assert "unrouted-store" in _rules(eff)


# ----------------------------------------------------- GR006 cond-impure

def test_cond_write_flagged():
    eff = _effects(_PROBLEM + """
    class BadCondFunctor(Functor):
        def cond_edge(self, P, src, dst, eid):
            P.labels[dst] = 0
            return P.labels[dst] < 0
    """)
    assert "cond-impure" in _rules(eff)


def test_cond_outside_call_flagged():
    eff = _effects(_PROBLEM + """
    class OpaqueCondFunctor(Functor):
        def cond_vertex(self, P, v):
            return mystery(v)
    """)
    assert "cond-impure" in _rules(eff)


def test_pure_cond_is_clean():
    eff = _effects(_PROBLEM + """
    class PureCondFunctor(Functor):
        def cond_edge(self, P, src, dst, eid):
            return np.logical_and(P.labels[src] >= 0, P.labels[dst] < 0)
    """)
    assert eff.functors["PureCondFunctor"].methods["cond_edge"].pure
    assert _rules(eff) == set()


# ------------------------------------------ GR007 nondeterministic-call

def test_np_random_flagged():
    eff = _effects(_PROBLEM + """
    class CoinFunctor(Functor):
        def apply_vertex(self, P, v):
            keep = np.random.rand(len(v)) < 0.5
            return keep
    """)
    assert "nondeterministic-call" in _rules(eff)
    assert not eff.functors["CoinFunctor"].methods["apply_vertex"].deterministic


def test_time_module_flagged():
    eff = _effects(_PROBLEM + """
    import time
    class ClockFunctor(Functor):
        def apply_vertex(self, P, v):
            t = time.perf_counter()
            return None
    """)
    assert "nondeterministic-call" in _rules(eff)


# --------------------------------------------- GR008 narrowing-store

def test_narrowing_store_flagged():
    eff = _effects(_PROBLEM + """
    class NarrowFunctor(Functor):
        def apply_vertex(self, P, v):
            P.small[v] = 1.5
    """)
    assert "narrowing-store" in _rules(eff)


def test_widening_store_is_not_narrowing():
    eff = _effects(_PROBLEM + """
    class WidenFunctor(Functor):
        def apply_vertex(self, P, v):
            P.ranks[v] = 1.5  # lint: allow(raw-write)
    """)
    assert "narrowing-store" not in _rules(eff)


def test_int_literal_fits_any_dtype():
    eff = _effects(_PROBLEM + """
    class IntFunctor(Functor):
        def apply_vertex(self, P, v):
            P.small[v] = 1  # lint: allow(raw-write)
    """)
    assert "narrowing-store" not in _rules(eff)


def test_division_narrows_into_int_array():
    """x / y is float64 in numpy regardless of operands."""
    eff = _effects(_PROBLEM + """
    class DivFunctor(Functor):
        def apply_vertex(self, P, v):
            P.labels[v] = P.labels[v] / 2
    """)
    assert "narrowing-store" in _rules(eff)


# --------------------------------------------- GR009 unrouted-store

@pytest.mark.parametrize("stmt", [
    "np.add(P.ranks, 1.0, out=P.ranks)",
    "np.copyto(P.ranks, P.ranks)",
    "P.ranks.fill(0.0)",
])
def test_inplace_mutations_flagged(stmt):
    eff = _effects(_PROBLEM + f"""
    class InplaceFunctor(Functor):
        def apply_vertex(self, P, v):
            {stmt}
    """)
    assert "unrouted-store" in _rules(eff)


def test_gr009_not_reported_where_gr001_already_fires():
    """A plain fancy-index store is GR001's finding; the deep engine must
    not double-report it as GR009."""
    eff = _effects(_PROBLEM + """
    class RawFunctor(Functor):
        def apply_vertex(self, P, v):
            P.labels[v] = 0
    """)
    assert "unrouted-store" not in _rules(eff)


def test_local_array_mutation_is_clean():
    eff = _effects(_PROBLEM + """
    class LocalFunctor(Functor):
        def apply_vertex(self, P, v):
            buf = np.zeros(len(v))
            np.add(buf, 1.0, out=buf)
            buf.fill(0.0)
            return buf > 0
    """)
    assert _rules(eff) == set()


# ------------------------------------------ GR010 fused-write-hazard

def test_atomic_plus_plain_store_on_same_array_flagged():
    eff = _effects(_PROBLEM + """
    class MixedFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_add(P.ranks, dst, 1.0, P.machine)
            P.ranks[src] = 0.0  # lint: allow(raw-write)
    """)
    assert "fused-write-hazard" in _rules(eff)


def test_atomic_and_store_on_different_arrays_clean():
    eff = _effects(_PROBLEM + """
    class SplitFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_add(P.ranks, dst, 1.0, P.machine)
            P.preds[dst] = src  # lint: allow(raw-write)
    """)
    assert "fused-write-hazard" not in _rules(eff)


# ------------------------------------------------- GR011 atomic-mix

def test_conflicting_reductions_flagged():
    eff = _effects(_PROBLEM + """
    class PingPongFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_min(P.labels, dst, src, P.machine)
            atomics.atomic_max(P.labels, src, dst, P.machine)
    """)
    assert "atomic-mix" in _rules(eff)


def test_single_reduction_per_method_clean():
    """Min in one functor, max in another: barrier-sequenced, no mix."""
    eff = _effects(_PROBLEM + """
    class MinFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_min(P.labels, dst, src, P.machine)
    class MaxFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_max(P.labels, dst, src, P.machine)
    """)
    assert "atomic-mix" not in _rules(eff)


def test_exch_on_non_relaxed_array_flagged():
    eff = _effects(_PROBLEM + """
    class ExchFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_exch_gather(P.labels, dst, src, P.machine)
    """)
    assert "atomic-mix" in _rules(eff)


def test_exch_on_relaxed_array_clean():
    eff = _effects(_PROBLEM + """
    class RelaxedExchFunctor(Functor):
        def apply_edge(self, P, src, dst, eid):
            atomics.atomic_exch_gather(P.preds, dst, src, P.machine)
    """)
    assert "atomic-mix" not in _rules(eff)


# --------------------------------------------- GR012 unknown-effect

def test_problem_escape_flagged():
    eff = _effects(_PROBLEM + """
    class EscapeFunctor(Functor):
        def apply_vertex(self, P, v):
            helper(P, v)
    """)
    assert "unknown-effect" in _rules(eff)


def test_problem_attribute_rebind_flagged():
    eff = _effects(_PROBLEM + """
    class RebindFunctor(Functor):
        def apply_vertex(self, P, v):
            P.labels = np.zeros(len(v), dtype=np.int64)
    """)
    assert "unknown-effect" in _rules(eff)


def test_setattr_flagged():
    eff = _effects(_PROBLEM + """
    class DynamicFunctor(Functor):
        def apply_vertex(self, P, v):
            setattr(P, "labels", v)
    """)
    assert "unknown-effect" in _rules(eff)


def test_scalar_attribute_mutation_flagged():
    eff = _effects(_PROBLEM + """
    class CounterFunctor(Functor):
        def apply_vertex(self, P, v):
            P.counter += 1
    """)
    assert "unknown-effect" in _rules(eff)


# ---------------------- GR002 extension: accumulate through the deep engine

def test_idempotent_inplace_accumulate_flagged():
    """alias += v accumulation: a whole-array write, still GR002."""
    eff = _effects(_PROBLEM + """
    class SneakyFunctor(Functor):
        idempotent = True
        def apply_vertex(self, P, v):
            r = P.ranks
            r += 1.0
    """)
    assert "idempotent-accumulate" in _rules(eff)


# ------------------------------------------------- live-class hooks

def test_summarize_functor_class_on_shipped_primitive():
    from repro.primitives.sssp import _RelaxFunctor

    s = summarize_functor_class(_RelaxFunctor)
    assert s.name == "_RelaxFunctor"
    assert "labels" in s.write_arrays()
    assert s.write_kinds()["labels"]["ops"] == {"min"}


def test_effect_summary_classmethod_caches():
    from repro.primitives.sssp import _RelaxFunctor

    first = _RelaxFunctor.effect_summary()
    assert first is _RelaxFunctor.effect_summary()
    assert first.write_arrays() >= {"labels", "preds"}


def test_effect_summary_not_shared_across_subclasses():
    from repro.primitives.bfs import _AtomicBfsFunctor, _IdempotentBfsFunctor

    atomic = _AtomicBfsFunctor.effect_summary()
    idem = _IdempotentBfsFunctor.effect_summary()
    # each class caches its own summary (cls.__dict__, not inheritance)
    assert atomic is not idem
    assert atomic.name == "_AtomicBfsFunctor"
    assert idem.name == "_IdempotentBfsFunctor"
    assert idem.idempotent and not atomic.idempotent
    assert "visited" in atomic.write_arrays()
    assert "visited" not in idem.write_arrays()


# -------------------------------------------- GR005 extension + suppression

def test_gr005_flags_np_derive_functions():
    vs = lint_source(textwrap.dedent("""
        import numpy as np
        class DeriveProblem(ProblemBase):
            def __init__(self, graph):
                super().__init__(graph)
                self.norm = np.maximum(graph.out_degrees, 1)
        """), "case.py")
    assert {v.rule.name for v in vs} == {"unregistered-array"}


def test_gr005_flags_astype_chain():
    vs = lint_source(textwrap.dedent("""
        import numpy as np
        class CastProblem(ProblemBase):
            def __init__(self, graph):
                super().__init__(graph)
                self.deg = np.maximum(graph.out_degrees, 1).astype(np.float64)
        """), "case.py")
    assert {v.rule.name for v in vs} == {"unregistered-array"}


def test_gr005_ignores_graph_rooted_assignment():
    """Borrowing a graph-owned array is not an unregistered allocation."""
    vs = lint_source(textwrap.dedent("""
        class BorrowProblem(ProblemBase):
            def __init__(self, graph):
                super().__init__(graph)
                self.weights = graph.weight_or_ones()
        """), "case.py")
    assert vs == []


def test_suppression_by_rule_id():
    vs = lint_source(textwrap.dedent("""
        class OkFunctor(Functor):
            def apply_vertex(self, P, v):
                P.ids[v] = v  # lint: allow(GR001)
        """), "case.py")
    assert vs == []


def test_extract_problem_arrays_requires_string_name():
    import ast

    tree = ast.parse(textwrap.dedent("""
        class DynProblem(ProblemBase):
            def __init__(self, graph, name):
                self.add_vertex_array(name, np.int64, 0)
        """))
    arrays, relaxed = extract_problem_arrays(tree.body[0])
    assert arrays == {}
    assert relaxed == frozenset()
