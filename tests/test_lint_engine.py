"""Tests for the lint suite's shared helpers: the project call graph
(THR001) and the binding-table fixpoint (DET003)."""

from repro.analysis import CallGraph, SourceFile
from repro.analysis.determinism import fixpoint


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
        SourceFile.from_text(text, display_path=f"serving/m{i}.py")
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

    def test_method_calls_resolve_by_terminal_name(self):
        graph = graph_of(
            "class C:\n"
            "    def serve(self):\n"
            "        self._flush()\n"
            "    def _flush(self):\n"
            "        write()\n"
        )
        assert graph.calls_of("serve") == {"_flush"}
        assert {"serve", "_flush", "write"} <= graph.reachable({"serve"})

    def test_nested_function_calls_attributed_to_inner_decl(self):
        graph = graph_of(
            "def outer():\n"
            "    def inner():\n"
            "        target()\n"
            "    return inner\n"
        )
        # outer's own call set does not contain target...
        assert "target" not in graph.calls_of("outer")
        assert "target" not in graph.reachable({"outer"})
        # ...inner is the declaration that calls it.
        assert graph.calls_of("inner") == {"target"}
        assert "target" in graph.reachable({"inner"})
