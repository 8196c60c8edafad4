"""Forward worklist dataflow solving over :mod:`repro.analysis.cfg`.

The solver is deliberately small: states are plain ``{key: value}``
mappings (a missing key is bottom), joined per key by a caller-supplied
value join, and transferred per CFG node by a caller-supplied transfer
function.  That is enough for every lattice the rule suite needs —

* the boolean *phase* lattice of MP001 (``threads_started`` may-state,
  joined by ``or``);
* and, through :func:`fixpoint`, the flow-insensitive binding fixpoints
  the determinism rules iterate (DET003's set-taint chains).

Exception edges (:attr:`~repro.analysis.cfg.CFG.exc_edges`) propagate the
join of the source node's pre- and post-state: an exception in flight
means the statement's effect *may not* have happened — which is exactly
why a ``close()`` that is not in a ``finally`` does not count as
guaranteed cleanup on the exceptional path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, TypeVar

from .cfg import CFG, CFGNode

__all__ = ["State", "solve_forward", "fixpoint"]

#: one dataflow state: abstract value per tracked key (missing = bottom)
State = Dict[str, object]

T = TypeVar("T")


def _join(
    a: State, b: State, join_values: Callable[[object, object], object]
) -> State:
    """Per-key join; a key present on one side only keeps its value."""
    out = dict(a)
    for key, value in b.items():
        out[key] = join_values(out[key], value) if key in out else value
    return out


def solve_forward(
    cfg: CFG,
    transfer: Callable[[CFGNode, State], State],
    initial: State,
    join_values: Callable[[object, object], object],
) -> Dict[int, State]:
    """Iterate ``transfer`` over ``cfg`` to a fixpoint.

    Returns the in-state per node index.  ``transfer`` must
    be monotone over a finite-height value lattice for termination (every
    lattice in this suite is a finite chain or a boolean).  ``transfer``
    receives a private copy of the in-state and may mutate it.
    """
    state_in: Dict[int, State] = {cfg.entry: dict(initial)}
    worklist = deque([cfg.entry])
    in_queue = {cfg.entry}
    while worklist:
        index = worklist.popleft()
        in_queue.discard(index)
        node = cfg.nodes[index]
        in_state = state_in.get(index, {})
        out_state = transfer(node, dict(in_state))
        for succ in cfg.succ[index]:
            # Exception edges carry the pre-state joined with the
            # post-state: the raising statement's effect may or may not
            # have taken place, and the same (src, dst) pair may also be
            # a normal edge (edges are deduplicated per pair).
            if (index, succ) in cfg.exc_edges:
                carried = _join(in_state, out_state, join_values)
            else:
                carried = out_state
            merged = (
                _join(state_in[succ], carried, join_values)
                if succ in state_in
                else dict(carried)
            )
            if succ not in state_in or merged != state_in[succ]:
                state_in[succ] = merged
                if succ not in in_queue:
                    worklist.append(succ)
                    in_queue.add(succ)
    return state_in


def fixpoint(step: Callable[[T], T], initial: T) -> T:
    """Iterate ``step`` from ``initial`` until the value stops changing.

    The flow-insensitive companion to :func:`solve_forward`: rules whose
    abstraction is a whole-module binding table (DET003's set-taint
    propagation through name chains) iterate it here instead of hand-
    rolling the loop.  ``step`` must be monotone on a finite domain.
    """
    current = initial
    while True:
        after = step(current)
        if after == current:
            return current
        current = after
