"""Enactor base class — the entry point of a Gunrock primitive.

"an enactor, which serves as the entry point of the graph algorithm and
specifies the computation as a series of advance and/or filter kernel
calls with user-defined kernel launching settings." (Section 4.3)

:class:`EnactorBase` owns the iteration loop, the convergence criteria
(empty frontier by default, plus optional iteration caps and volatile
flags — Section 4.1), and an operator *trace* that records the sequence
of steps each primitive executes (the data behind Figure 5's flow
charts).  Subclasses implement :meth:`_iterate`.

The loop is also the recovery boundary of the fault-tolerant execution
mode (:mod:`repro.resilience`): with ``checkpoint_every=N`` the enactor
snapshots the problem's registered arrays plus the frontier every N
super-steps, and with ``faults=`` an injected transient-kernel or
corruption fault triggers retry / rollback-and-replay under the
configured :class:`~repro.resilience.recovery.RetryPolicy`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.sanitizer import Sanitizer, current_sanitizer, sanitize
from ..obs.spans import (CAT_PRIMITIVE, CAT_RECOVERY, CAT_SUPERSTEP,
                         instant as obs_instant, span as obs_span)
from ..resilience.checkpoint import CheckpointStore
from ..resilience.faults import (DataCorruptionFault, FaultError,
                                 TransientKernelFault, as_injector)
from ..resilience.recovery import RecoveryStats, RetryPolicy
from .frontier import Frontier
from .functor import Functor
from .loadbalance import LoadBalancer, default_load_balancer
from .operators.advance import advance as _advance
from .operators.compute import compute as _compute
from .operators.filter import IdempotenceHeuristics, filter_frontier as _filter
from .problem import ProblemBase


@dataclass
class TraceEvent:
    """One operator invocation in an enactor run."""

    iteration: int
    op: str
    in_size: int
    out_size: int


@dataclass
class EnactorStats:
    iterations: int = 0
    trace: List[TraceEvent] = field(default_factory=list)

    def ops_per_iteration(self) -> float:
        if self.iterations == 0:
            return 0.0
        return len(self.trace) / self.iterations

    def op_sequence(self, iteration: int = 0) -> List[str]:
        """Operator names executed in one iteration (Figure 5's rows)."""
        return [e.op for e in self.trace if e.iteration == iteration]


class EnactorBase:
    """Iteration loop + traced operator wrappers."""

    def __init__(self, problem: ProblemBase, *,
                 lb: Optional[LoadBalancer] = None,
                 max_iterations: Optional[int] = None,
                 sanitize: bool = False,
                 checkpoint_every: Optional[int] = None,
                 faults=None,
                 retry: Optional[RetryPolicy] = None):
        self.problem = problem
        self.lb = lb if lb is not None else default_load_balancer()
        self.max_iterations = max_iterations
        self.stats = EnactorStats()
        self.iteration = 0
        #: run every kernel under the dynamic race detector
        #: (:mod:`repro.analysis.sanitizer`); also honored implicitly when
        #: the caller wraps the run in an outer ``sanitize()`` block
        self.sanitize = sanitize
        self.sanitizer: Optional[Sanitizer] = None
        # -- resilience configuration -------------------------------------
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        self.injector = as_injector(faults)
        self.retry = retry if retry is not None else RetryPolicy()
        self.recovery = RecoveryStats()
        self.checkpoints: Optional[CheckpointStore] = None
        if checkpoint_every is not None:
            self.checkpoints = CheckpointStore(problem)
        if self.injector is not None and problem.machine is not None:
            # machine-level faults (straggler, device loss) fire in launch
            problem.machine.injector = self.injector
        #: set by subclasses whose super-step is idempotent (re-applying
        #: it is harmless — BFS's no-atomics mode): a transient fault at
        #: the step's *first* kernel is then retried without any restore
        self.idempotent_replay = False
        self._ops_this_step = 0

    @property
    def primitive_name(self) -> str:
        """Observability identity: ``BfsEnactor`` -> ``bfs`` (DESIGN §11)."""
        name = type(self).__name__
        if name.endswith("Enactor"):
            name = name[: -len("Enactor")]
        return name.lower() or "enactor"

    # -- traced operator wrappers -------------------------------------------

    def advance(self, frontier: Frontier, functor: Functor, **kwargs) -> Frontier:
        kwargs.setdefault("lb", self.lb)
        self._pre_kernel("advance")
        out = _advance(self.problem, frontier, functor,
                       iteration=self.iteration, **kwargs)
        self._trace("advance" if kwargs.get("mode", "push") == "push"
                    else "advance_pull", frontier, out)
        return out

    def filter(self, frontier: Frontier, functor: Functor,
               heuristics: Optional[IdempotenceHeuristics] = None,
               label: str = "filter") -> Frontier:
        self._pre_kernel("filter")
        out = _filter(self.problem, frontier, functor, heuristics=heuristics,
                      iteration=self.iteration)
        self._trace(label, frontier, out)
        return out

    def compute(self, frontier: Frontier, functor: Functor) -> Frontier:
        self._pre_kernel("compute")
        out = _compute(self.problem, frontier, functor, iteration=self.iteration)
        self._trace("compute", frontier, out)
        return out

    def _pre_kernel(self, op: str) -> None:
        """Fault window: injected kernel faults fire before the operator
        touches any state, so a step that has completed zero operators is
        always safe to retry in place."""
        if self.injector is not None:
            self.injector.on_kernel(op, self.iteration, self.problem)

    def _trace(self, op: str, before: Frontier, after: Frontier) -> None:
        self._ops_this_step += 1
        self.stats.trace.append(
            TraceEvent(self.iteration, op, len(before), len(after)))

    # -- the loop -------------------------------------------------------------

    def _iterate(self, frontier: Frontier) -> Frontier:
        """One bulk-synchronous super-step; subclasses implement."""
        raise NotImplementedError

    def _converged(self, frontier: Frontier) -> bool:
        """Default convergence: empty frontier (Section 4.1).  Subclasses
        may add volatile-flag or residual tests."""
        return frontier.is_empty

    def enact(self, frontier: Frontier) -> Frontier:
        """Run to convergence; returns the final frontier.

        With ``sanitize=True`` (and no sanitizer already active) the whole
        run executes under a strict :func:`repro.analysis.sanitize` block,
        so a BSP-contract violation in any functor raises
        :class:`~repro.analysis.sanitizer.RaceError` at the offending
        kernel.

        With resilience configured, injected transient-kernel and
        corruption faults are recovered at the super-step barrier:
        idempotent steps whose fault fired before any operator completed
        are retried in place (restore-free replay); everything else rolls
        back to the newest checkpoint and replays.  Recovery that
        exhausts ``retry.max_retries`` consecutive attempts — or needs a
        checkpoint that was never taken — re-raises the injected fault.
        """
        ctx = sanitize(strict=True) \
            if self.sanitize and current_sanitizer() is None else nullcontext()
        with ctx:
            self.sanitizer = current_sanitizer()
            self.iteration = 0
            g = self.problem.graph
            sp = obs_span(self.primitive_name, CAT_PRIMITIVE,
                          self.problem.machine,
                          primitive=self.primitive_name, n=g.n, m=g.m)
            with sp:
                specialized = self._try_backend(frontier)
                frontier = specialized if specialized is not None \
                    else self._enact_loop(frontier)
                sp.set(iterations=self.iteration)
            self.stats.iterations = self.iteration
        return frontier

    def _try_backend(self, frontier: Frontier) -> Optional[Frontier]:
        """Dispatch through a specialized engine (fused super-steps or
        the linear-algebra backend) when one is selected and this run is
        eligible; None means "take the library loop" (the engine module
        records the fallback reason)."""
        from .engine import engine_mode
        mode = engine_mode()
        if mode == "fused":
            from .fused import try_fused
            return try_fused(self, frontier)
        if mode == "la":
            from ..la import try_la
            return try_la(self, frontier)
        return None

    def _enact_loop(self, frontier: Frontier) -> Frontier:
        consecutive_failures = 0
        while not self._converged(frontier):
            if self.max_iterations is not None and \
                    self.iteration >= self.max_iterations:
                break
            self._maybe_checkpoint(frontier)
            self._ops_this_step = 0
            sp = obs_span("superstep", CAT_SUPERSTEP, self.problem.machine,
                          iteration=self.iteration, frontier=len(frontier))
            try:
                with sp:
                    frontier = self._iterate(frontier)
                    sp.set(frontier_out=len(frontier))
            except (TransientKernelFault, DataCorruptionFault) as fault:
                consecutive_failures += 1
                if consecutive_failures > self.retry.max_retries:
                    raise
                frontier = self._recover(fault, frontier,
                                         attempt=consecutive_failures)
                continue
            consecutive_failures = 0
            self.iteration += 1
            if self.problem.machine is not None:
                self.problem.machine.counters.iterations = self.iteration
        return frontier

    # -- checkpointing and recovery -----------------------------------------

    def _maybe_checkpoint(self, frontier: Frontier) -> None:
        if self.checkpoints is None or \
                self.iteration % self.checkpoint_every != 0:
            return
        latest = self.checkpoints.latest()
        if latest is not None and latest.iteration == self.iteration:
            return  # just restored to this step; the snapshot still holds
        self.checkpoints.snapshot(self.iteration, frontier.items,
                                  frontier.kind, extra=self._snapshot_state())

    def _recover(self, fault: FaultError, frontier: Frontier,
                 attempt: int) -> Frontier:
        """Handle one recoverable fault; returns the frontier to resume
        from (current for in-place retry, checkpointed for rollback)."""
        st = self.recovery
        st.record_fault(fault.kind.value)
        st.retry_attempts += 1
        backoff = self.retry.backoff_ms(attempt - 1)
        st.backoff_ms += backoff
        if self.problem.machine is not None:
            self.problem.machine.stall_ms("retry_backoff", backoff,
                                          iteration=self.iteration)
        if isinstance(fault, TransientKernelFault) and \
                self.idempotent_replay and self._ops_this_step == 0:
            # nothing mutated this step and re-application is harmless:
            # restore-free replay of the same super-step
            st.replayed_supersteps += 1
            st.faults_recovered += 1
            obs_instant("recovery.replay_in_place", CAT_RECOVERY,
                        self.problem.machine, iteration=self.iteration,
                        kind=fault.kind.value, attempt=attempt)
            return frontier
        if self.checkpoints is None or self.checkpoints.latest() is None:
            raise fault
        ck = self.checkpoints.restore()
        obs_instant("recovery.rollback", CAT_RECOVERY, self.problem.machine,
                    iteration=self.iteration, kind=fault.kind.value,
                    attempt=attempt, to_iteration=ck.iteration)
        self.problem.restore_state(dict(ck.extra.get("problem", {})))
        self._restore_state(dict(ck.extra.get("enactor", {})))
        st.rollbacks += 1
        st.replayed_supersteps += self.iteration - ck.iteration + 1
        st.faults_recovered += 1
        self.iteration = ck.iteration
        return Frontier(ck.frontier_items.copy(), ck.frontier_kind)

    def _snapshot_state(self) -> dict:
        """Checkpoint extra state: the problem hook plus any enactor-side
        structures a subclass declares via :meth:`_enactor_state`."""
        return {"problem": self.problem.snapshot_state(),
                "enactor": self._enactor_state()}

    def _enactor_state(self) -> dict:
        """Enactor-side mutable state to checkpoint (overridable)."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Reinstall state captured by :meth:`_enactor_state`."""

    def recovery_summary(self) -> Optional[dict]:
        """Recovery statistics for reports; None when resilience is off."""
        if self.injector is None and self.checkpoints is None:
            return None
        out = self.recovery.as_dict()
        if self.checkpoints is not None:
            out.update(checkpoints_taken=self.checkpoints.snapshots_taken,
                       checkpoint_bytes=self.checkpoints.total_bytes,
                       restores=self.checkpoints.restores)
        if self.injector is not None:
            out["faults_injected"] = self.injector.injected
            out["injected_by_kind"] = self.injector.injected_by_kind()
        return out
