"""Static BSP-contract linter: one violating and one clean case per rule,
plus suppression and file-walking behavior."""

import textwrap

import pytest

from repro.analysis import RULES, RULES_BY_ID, lint_paths, lint_source


def _lint(body: str):
    return lint_source(textwrap.dedent(body), "case.py")


def _rules(violations):
    return {v.rule.name for v in violations}


# ---------------------------------------------------------------- registry

def test_rule_registry_ids_are_stable():
    assert RULES["raw-write"].id == "GR001"
    assert RULES["idempotent-accumulate"].id == "GR002"
    assert RULES["functor-state"].id == "GR003"
    assert RULES["scalar-loop"].id == "GR004"
    assert RULES["unregistered-array"].id == "GR005"
    assert RULES_BY_ID["GR001"] is RULES["raw-write"]


def test_violation_format_mentions_rule_id():
    (v,) = _lint("""
        class XFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                P.labels[dst] = 0
        """)
    assert v.format().startswith("case.py:4: GR001[raw-write]")


# ------------------------------------------------------- GR001 raw-write

def test_raw_write_fancy_index_flagged():
    vs = _lint("""
        class RacyFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                P.labels[dst] = depth
        """)
    assert _rules(vs) == {"raw-write"}


def test_raw_write_through_alias_flagged():
    vs = _lint("""
        class RacyFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                labels = P.labels
                labels[dst] = depth
        """)
    assert _rules(vs) == {"raw-write"}


def test_raw_write_ufunc_at_flagged():
    vs = _lint("""
        import numpy as np
        class RacyFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                np.add.at(P.sigma, dst, 1.0)
        """)
    assert "raw-write" in _rules(vs)


def test_atomic_routed_write_is_clean():
    vs = _lint("""
        from repro.core import atomics
        class GoodFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                return atomics.atomic_min(P.labels, dst, P.labels[src] + 1,
                                          P.machine)
        """)
    assert vs == []


def test_local_array_write_is_clean():
    """Writes into per-lane temporaries are not problem-state writes."""
    vs = _lint("""
        import numpy as np
        class GoodFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                keep = np.zeros(len(src), dtype=bool)
                keep[0] = True
                return keep
        """)
    assert vs == []


# ------------------------------------- GR002 idempotent-accumulate

def test_idempotent_accumulate_flagged():
    vs = _lint("""
        class BadFunctor(Functor):
            idempotent = True
            def apply_edge(self, P, src, dst, eid):
                P.sigma[dst] += 1.0
        """)
    assert "idempotent-accumulate" in _rules(vs)


def test_idempotent_atomic_add_flagged():
    """Accumulation double-counts under duplicate applies even when routed
    through atomics — idempotent advance may apply a lane twice."""
    vs = _lint("""
        from repro.core import atomics
        class BadFunctor(Functor):
            idempotent = True
            def apply_edge(self, P, src, dst, eid):
                atomics.atomic_add(P.sigma, dst, 1.0, P.machine)
        """)
    assert _rules(vs) == {"idempotent-accumulate"}


def test_non_idempotent_accumulate_not_gr002():
    vs = _lint("""
        from repro.core import atomics
        class OkFunctor(Functor):
            idempotent = False
            def apply_edge(self, P, src, dst, eid):
                atomics.atomic_add(P.sigma, dst, 1.0, P.machine)
        """)
    assert "idempotent-accumulate" not in _rules(vs)


# -------------------------------------------- GR003 functor-state

def test_functor_state_mutation_flagged():
    vs = _lint("""
        class StatefulFunctor(Functor):
            def apply_edge(self, P, src, dst, eid):
                self.seen = dst
        """)
    assert _rules(vs) == {"functor-state"}


def test_functor_init_state_is_clean():
    """Configuration set in __init__ (pre-kernel) is fine; only mutation
    inside kernel methods breaks replayability."""
    vs = _lint("""
        class ParamFunctor(Functor):
            def __init__(self, depth):
                self.depth = depth
            def cond_edge(self, P, src, dst, eid):
                return P.labels[dst] < self.depth
        """)
    assert vs == []


# ---------------------------------------------- GR004 scalar-loop

def test_scalar_loop_flagged():
    vs = _lint("""
        class SlowFunctor(Functor):
            def apply_vertex(self, P, v):
                for x in v:
                    pass
        """)
    assert _rules(vs) == {"scalar-loop"}


def test_while_loop_flagged():
    vs = _lint("""
        class SlowFunctor(Functor):
            def apply_vertex(self, P, v):
                while True:
                    break
        """)
    assert _rules(vs) == {"scalar-loop"}


def test_vectorized_body_is_clean():
    vs = _lint("""
        import numpy as np
        class FastFunctor(Functor):
            def apply_vertex(self, P, v):
                return P.depths[v] < np.int64(4)
        """)
    assert vs == []


# ----------------------------------------- GR005 unregistered-array

def test_unregistered_array_flagged():
    vs = _lint("""
        import numpy as np
        class ScratchProblem(ProblemBase):
            def __init__(self, graph):
                super().__init__(graph)
                self.scratch = np.zeros(graph.n)
        """)
    assert _rules(vs) == {"unregistered-array"}


def test_registered_array_is_clean():
    vs = _lint("""
        import numpy as np
        class GoodProblem(ProblemBase):
            def __init__(self, graph):
                super().__init__(graph)
                self.add_vertex_array("labels", np.int64, -1)
        """)
    assert vs == []


def test_non_problem_class_not_checked():
    vs = _lint("""
        import numpy as np
        class Helper:
            def __init__(self):
                self.buf = np.zeros(8)
        """)
    assert vs == []


# -------------------------------------------------- suppression

def test_allow_comment_on_line_suppresses():
    vs = _lint("""
        class OkFunctor(Functor):
            def apply_vertex(self, P, v):
                P.ids[v] = v  # lint: allow(raw-write)
        """)
    assert vs == []


def test_allow_comment_on_previous_line_suppresses():
    vs = _lint("""
        class OkFunctor(Functor):
            def apply_vertex(self, P, v):
                # lint: allow(raw-write)
                P.ids[v] = v
        """)
    assert vs == []


def test_allow_comment_wrong_rule_does_not_suppress():
    vs = _lint("""
        class BadFunctor(Functor):
            def apply_vertex(self, P, v):
                P.ids[v] = v  # lint: allow(scalar-loop)
        """)
    assert _rules(vs) == {"raw-write"}


# ----------------------------------------------- GR000 parse-error

def test_unparseable_source_is_a_violation_not_a_crash():
    (v,) = lint_source("def broken(:", "bad.py")
    assert v.rule.id == "GR000"
    assert "syntax error" in v.message


# ------------------------------------------------- path walking

def test_lint_paths_missing_path_raises(tmp_path):
    import pytest
    with pytest.raises(FileNotFoundError, match="no_such"):
        lint_paths([str(tmp_path / "no_such")])



def test_lint_paths_walks_directories(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class F(Functor):\n"
                   "    def apply_edge(self, P, src, dst, eid):\n"
                   "        P.x[dst] = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("class G(Functor):\n"
                                                      "    pass\n")
    vs = lint_paths([str(tmp_path)])
    assert len(vs) == 1
    assert vs[0].file.endswith("bad.py")


def test_shipped_package_lints_clean():
    """The acceptance bar: the tree we ship carries no unsuppressed
    violations."""
    import repro
    import os
    pkg = os.path.dirname(repro.__file__)
    assert lint_paths([pkg]) == []


# ----------------------------------- the element / whole-array boundary

#: one registered problem class for the table below
_TABLE_PROBLEM = """
import numpy as np
from repro.core import atomics

class CaseProblem(ProblemBase):
    def __init__(self, graph):
        super().__init__(graph)
        self.add_vertex_array("labels", np.int64, -1)
        self.add_vertex_array("preds", np.int64, -1)
        self.add_vertex_array("ranks", np.float64, 0.0)

class CaseFunctor(Functor):
"""

#: snippet (the body of CaseFunctor) -> the full rule set lint_source
#: returns.  An element write (subscript store, subscript ``+=``,
#: ``np.<ufunc>.at``) is GR001 whatever alias shape reaches the array; a
#: whole-array in-place mutation is GR009.  A ``# was`` row read
#: differently when ``lint`` reported GR001-GR005 from one AST walk and
#: ``analyze`` GR006-GR012 from another; it records what each printed.
RULE_BOUNDARY = [
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            arr = P.labels if eid is None else P.preds
            arr[dst] = 0
        """, {"raw-write"}, id="ifexp-alias-store"),  # was: lint -, analyze unrouted-store
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            if (arr := P.labels) is not None:
                arr[dst] = 0
        """, {"raw-write"}, id="walrus-alias-store"),  # was: lint -, analyze unrouted-store
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            lab, pre = P.labels, P.preds
            lab[dst] = 0
        """, {"raw-write"}, id="tuple-alias-store"),  # was: lint -, analyze unrouted-store
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            P.labels[dst]: int = 0
        """, {"raw-write"}, id="annotated-store"),  # was: lint -, analyze unrouted-store
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            vals = P.labels[src]
            vals[0] = 1
            return vals > 0
        """, set(), id="store-into-fancy-copy"),  # was: lint raw-write, analyze -
    pytest.param("""
        idempotent = True
        def apply_edge(self, P, src, dst, eid):
            buf = np.zeros(len(dst))
            atomics.atomic_add(buf, dst, 1.0, P.machine)
            return buf > 0
        """, set(),
        id="idempotent-atomic-add-local"),  # was: lint idempotent-accumulate, analyze -
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            P.labels[dst], P.preds[dst] = 0, src
        """, {"raw-write"}, id="tuple-target-store"),  # was: lint -, analyze -
    pytest.param("""
        def apply_edge(self, P, src, dst, eid):
            self.seen, n = dst, 2
        """, {"functor-state"}, id="tuple-target-self"),  # was: lint -, analyze -
    pytest.param("""
        def apply_vertex(self, P, v):
            P._vertex_arrays["labels"][v] = 9
        """, {"raw-write"}, id="constant-key-lookup-store"),
    pytest.param("""
        def apply_vertex(self, P, v):
            r = P.ranks
            r += 1.0
        """, {"unrouted-store"}, id="alias-augassign"),  # was: lint -, analyze unrouted-store
    pytest.param("""
        def apply_vertex(self, P, v):
            P.ranks /= 2.0
        """, {"unrouted-store"}, id="attribute-augassign"),  # was: lint raw-write, analyze -
    pytest.param("""
        def apply_vertex(self, P, v):
            P.labels = v
        """, {"unknown-effect"},
        id="attribute-rebind"),  # was: lint raw-write, analyze unknown-effect
    pytest.param("""
        idempotent = True
        def apply_vertex(self, P, v):
            P.ranks[v] += 1.0
        """, {"raw-write", "idempotent-accumulate"},
        id="idempotent-element-augassign"),
]


@pytest.mark.parametrize("body, expected", RULE_BOUNDARY)
def test_rule_boundary_table(body, expected):
    source = _TABLE_PROBLEM + textwrap.indent(textwrap.dedent(body), "    ")
    assert _rules(lint_source(source, "case.py")) == expected
