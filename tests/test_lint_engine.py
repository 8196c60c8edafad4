"""Tests for the shared analysis engine: the AST→CFG builder, the
forward worklist dataflow solver, and the project call graph."""

import ast
import textwrap

import pytest

from repro.analysis import (
    CallGraph,
    SourceFile,
    build_cfg,
    fixpoint,
    solve_forward,
)


def cfg_of(src: str):
    tree = ast.parse(textwrap.dedent(src))
    return build_cfg(tree.body[0])


def node_for(cfg, predicate):
    """The unique statement node whose AST matches ``predicate``."""
    matches = [
        n for n in cfg.statement_nodes() if predicate(n.stmt)
    ]
    assert len(matches) == 1, f"expected one match, got {len(matches)}"
    return matches[0]


def is_call_named(name):
    def predicate(stmt):
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == name
        )

    return predicate


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------
class TestCFGBuilder:
    def test_straight_line_reaches_exit_implicitly(self):
        cfg = cfg_of("def f():\n    a()\n    b()\n")
        b = node_for(cfg, is_call_named("b"))
        assert cfg.exit in cfg.succ[b.index]
        # No try/with anywhere: nothing can reach the raise exit.
        assert cfg.pred[cfg.raise_exit] == set()

    def test_if_branches_rejoin(self):
        cfg = cfg_of(
            """
            def f(flag):
                if flag:
                    a()
                else:
                    b()
                c()
            """
        )
        c = node_for(cfg, is_call_named("c"))
        a = node_for(cfg, is_call_named("a"))
        b = node_for(cfg, is_call_named("b"))
        assert cfg.succ[a.index] == {c.index}
        assert cfg.succ[b.index] == {c.index}

    def test_loop_has_back_edge_and_zero_iteration_exit(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    body()
                after()
            """
        )
        head = node_for(cfg, lambda s: isinstance(s, ast.For))
        body = node_for(cfg, is_call_named("body"))
        after = node_for(cfg, is_call_named("after"))
        assert head.index in cfg.succ[body.index]  # back edge
        assert after.index in cfg.succ[head.index]  # zero-iteration exit

    def test_try_body_gets_exception_edge_to_finally(self):
        cfg = cfg_of(
            """
            def f():
                risky()
                try:
                    work()
                finally:
                    cleanup()
            """
        )
        risky = node_for(cfg, is_call_named("risky"))
        work = node_for(cfg, is_call_named("work"))
        cleanup = node_for(cfg, is_call_named("cleanup"))
        fin = next(n for n in cfg.nodes if n.kind == "finally")
        # Inside the try body: an implicit exception edge to the finally.
        assert (work.index, fin.index) in cfg.exc_edges
        # Outside any try: no implicit exception edge at all.
        assert all((risky.index, s) not in cfg.exc_edges for s in cfg.succ[risky.index])
        # The completed finally continues both normally (to the exit) and
        # along the re-raise route (to the raise exit) — the latter as a
        # NORMAL edge, because the cleanup body's effects did happen.
        assert cfg.exit in cfg.succ[cleanup.index]
        assert cfg.raise_exit in cfg.succ[cleanup.index]
        assert (cleanup.index, cfg.raise_exit) not in cfg.exc_edges

    def test_except_handler_catches_body_exception(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    work()
                except ValueError:
                    handle()
                after()
            """
        )
        work = node_for(cfg, is_call_named("work"))
        handle = node_for(cfg, is_call_named("handle"))
        after = node_for(cfg, is_call_named("after"))
        dispatch = next(n for n in cfg.nodes if n.kind == "dispatch")
        assert (work.index, dispatch.index) in cfg.exc_edges
        assert handle.index in cfg.succ[dispatch.index]
        # Unmatched exceptions continue to the function's raise exit.
        assert cfg.raise_exit in cfg.succ[dispatch.index]
        # Both the body and the handler rejoin at the statement after.
        assert after.index in cfg.succ[work.index]
        assert after.index in cfg.succ[handle.index]

    def test_catch_all_handler_swallows_the_dispatch_escape(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    work()
                except BaseException:
                    handle()
            """
        )
        dispatch = next(n for n in cfg.nodes if n.kind == "dispatch")
        assert cfg.raise_exit not in cfg.succ[dispatch.index]

    def test_narrow_handler_lets_the_dispatch_escape(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    work()
                except ValueError:
                    handle()
            """
        )
        dispatch = next(n for n in cfg.nodes if n.kind == "dispatch")
        assert cfg.raise_exit in cfg.succ[dispatch.index]

    def test_with_routes_exceptions_through_with_end(self):
        cfg = cfg_of(
            """
            def f(cm):
                with cm() as h:
                    work(h)
                after()
            """
        )
        work = node_for(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and isinstance(s.value, ast.Call)
            and isinstance(s.value.func, ast.Name)
            and s.value.func.id == "work",
        )
        with_end = next(n for n in cfg.nodes if n.kind == "with_end")
        after = node_for(cfg, is_call_named("after"))
        # Body exceptions route through __exit__ (the with_end node)...
        assert (work.index, with_end.index) in cfg.exc_edges
        # ...which continues normally and along the re-raise route.
        assert after.index in cfg.succ[with_end.index]
        assert cfg.raise_exit in cfg.succ[with_end.index]
        # The with_end carries the With statement for transfer functions.
        assert isinstance(with_end.stmt, ast.With)

    def test_return_inside_finally_block_routes_through_cleanup(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    return compute()
                finally:
                    cleanup()
            """
        )
        cleanup = node_for(cfg, is_call_named("cleanup"))
        ret = node_for(cfg, lambda s: isinstance(s, ast.Return))
        fin = next(n for n in cfg.nodes if n.kind == "finally")
        # The return detours through the finally, which then reaches exit.
        assert cfg.succ[ret.index] == {fin.index}
        assert cfg.exit in cfg.succ[cleanup.index]

    def test_break_through_finally_reaches_loop_exit(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    try:
                        break
                    finally:
                        cleanup()
                after()
            """
        )
        cleanup = node_for(cfg, is_call_named("cleanup"))
        after = node_for(cfg, is_call_named("after"))
        assert after.index in cfg.succ[cleanup.index]

    def test_evaluated_exprs_of_compound_heads(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    if x:
                        work(x)
            """
        )
        head = node_for(cfg, lambda s: isinstance(s, ast.For))
        test = node_for(cfg, lambda s: isinstance(s, ast.If))
        exprs = cfg.evaluated_exprs(head)
        # The loop head evaluates its iterable and target, not its body.
        assert not any(
            isinstance(e, ast.Call)
            for expr in exprs
            for e in ast.walk(expr)
        )
        assert cfg.evaluated_exprs(test) == [test.stmt.test]


# ---------------------------------------------------------------------------
# Dataflow solving
# ---------------------------------------------------------------------------
def make_tracker():
    """A transfer tracking `x = create()` -> created, `x.close()` -> closed."""

    def transfer(node, state):
        stmt = node.stmt
        if node.kind != "stmt":
            return state
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == "create"
        ):
            state["x"] = "created"
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "close"
        ):
            if state.get("x") == "created":
                state["x"] = "closed"
        return state

    order = {"created": 0, "closed": 1}

    def join(a, b):
        return a if order.get(a, 0) <= order.get(b, 0) else b

    return transfer, join


class TestSolver:
    def test_close_in_finally_is_visible_at_both_exits(self):
        cfg = cfg_of(
            """
            def f(name):
                x = create(name)
                try:
                    fill(x)
                finally:
                    x.close()
            """
        )
        transfer, join = make_tracker()
        state_in = solve_forward(cfg, transfer, {}, join)
        assert state_in[cfg.exit]["x"] == "closed"
        assert state_in[cfg.raise_exit]["x"] == "closed"

    def test_close_in_try_body_is_not_guaranteed(self):
        cfg = cfg_of(
            """
            def f(name):
                x = create(name)
                try:
                    fill(x)
                    x.close()
                except ValueError:
                    pass
            """
        )
        transfer, join = make_tracker()
        state_in = solve_forward(cfg, transfer, {}, join)
        # The except arm skipped the close; the join keeps the leak.
        assert state_in[cfg.exit]["x"] == "created"
        # An exception before the close leaves the function un-closed.
        assert state_in[cfg.raise_exit]["x"] == "created"

    def test_loop_reaches_fixpoint_with_branch_join(self):
        cfg = cfg_of(
            """
            def f(xs, name):
                x = create(name)
                for item in xs:
                    if item:
                        x.close()
                done()
            """
        )
        transfer, join = make_tracker()
        state_in = solve_forward(cfg, transfer, {}, join)
        # Zero iterations (or the false arm) never closes: the join at
        # the loop head must keep "created" despite the closing path.
        assert state_in[cfg.exit]["x"] == "created"

    def test_no_try_means_raise_exit_unreachable(self):
        cfg = cfg_of("def f(name):\n    x = create(name)\n    x.close()\n")
        transfer, join = make_tracker()
        state_in = solve_forward(cfg, transfer, {}, join)
        assert cfg.raise_exit not in state_in
        assert state_in[cfg.exit]["x"] == "closed"


class TestFixpoint:
    def test_converges(self):
        assert fixpoint(lambda n: min(n + 1, 7), 0) == 7

    def test_identity_on_stable_input(self):
        calls = []

        def step(v):
            calls.append(v)
            return v

        assert fixpoint(step, "stable") == "stable"
        assert calls == ["stable"]


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------
def graph_of(*texts):
    sources = [
        SourceFile.from_text(text, display_path=f"dist/m{i}.py")
        for i, text in enumerate(texts)
    ]
    return CallGraph.build(sources)


class TestCallGraph:
    def test_reachable_follows_cross_file_name_edges(self):
        graph = graph_of(
            "def a():\n    b()\n",
            "def b():\n    c()\n\ndef unrelated():\n    pass\n",
        )
        reached = graph.reachable({"a"})
        assert {"a", "b", "c"} <= reached
        assert "unrelated" not in reached

    def test_reachable_resolves_every_same_named_definition(self):
        graph = graph_of(
            "def go():\n    run()\n",
            "def run():\n    left()\n",
            "def run():\n    right()\n",
        )
        reached = graph.reachable({"go"})
        assert {"left", "right"} <= reached

    def test_reaches_call_is_the_reverse_closure(self):
        graph = graph_of(
            "def spawn():\n    Process()\n",
            "def restart():\n    spawn()\n",
            "def monitor():\n    restart()\n",
            "def bystander():\n    log()\n",
        )
        reaching = graph.reaches_call({"Process"})
        assert reaching == {"spawn", "restart", "monitor"}

    def test_method_calls_resolve_by_terminal_name(self):
        graph = graph_of(
            "class C:\n"
            "    def serve(self):\n"
            "        self._spawn()\n"
            "    def _spawn(self):\n"
            "        Process()\n"
        )
        assert "serve" in graph.reaches_call({"Process"})

    def test_nested_function_calls_attributed_to_inner_decl(self):
        graph = graph_of(
            "def outer():\n"
            "    def inner():\n"
            "        target()\n"
            "    return inner\n"
        )
        # outer's own call set does not contain target...
        assert "target" not in graph.calls_of("outer")
        # ...but inner is still a declaration that reaches it.
        assert "inner" in graph.reaches_call({"target"})
