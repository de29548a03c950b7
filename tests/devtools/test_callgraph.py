"""The shared interprocedural call graph (repro.devtools.callgraph)."""

import ast
import textwrap

from repro.devtools.callgraph import build_program
from repro.devtools.lockmodel import classify_site


class FakeContext:
    """The duck the engine hands build_program: path, module, tree."""

    def __init__(self, module, source):
        self.module = module
        self.path = module.replace(".", "/") + ".py"
        self.tree = ast.parse(textwrap.dedent(source))


def program_of(**modules):
    return build_program(
        FakeContext(module, source) for module, source in modules.items()
    )


def calls_of(program, key, classify=None):
    summary = program.summaries(classify)[key]
    return [site.callee for site in summary.calls]


class TestCrossModuleResolution:
    def test_from_import_resolves_to_the_defining_module(self):
        program = program_of(**{
            "repro.a": """
                def helper():
                    return 1
                """,
            "repro.b": """
                from repro.a import helper

                def caller():
                    return helper()
                """,
        })
        assert calls_of(program, "repro.b.caller") == ["repro.a.helper"]

    def test_import_alias_resolves_module_attribute_calls(self):
        program = program_of(**{
            "repro.a": """
                def helper():
                    return 1
                """,
            "repro.b": """
                import repro.a as a

                def caller():
                    return a.helper()
                """,
        })
        assert calls_of(program, "repro.b.caller") == ["repro.a.helper"]

    def test_renamed_from_import_resolves(self):
        program = program_of(**{
            "repro.a": """
                def helper():
                    return 1
                """,
            "repro.b": """
                from repro.a import helper as h

                def caller():
                    return h()
                """,
        })
        assert calls_of(program, "repro.b.caller") == ["repro.a.helper"]

    def test_constructor_call_resolves_to_init(self):
        program = program_of(**{
            "repro.a": """
                class Widget:
                    def __init__(self):
                        pass
                """,
            "repro.b": """
                from repro.a import Widget

                def build():
                    return Widget()
                """,
        })
        assert calls_of(program, "repro.b.build") == ["repro.a.Widget.__init__"]


class TestMethodBinding:
    def test_self_call_binds_through_the_enclosing_class(self):
        program = program_of(**{
            "repro.a": """
                class Service:
                    def step(self):
                        return self.helper()

                    def helper(self):
                        return 1
                """,
        })
        assert calls_of(program, "repro.a.Service.step") == [
            "repro.a.Service.helper"
        ]

    def test_self_call_binds_through_a_resolvable_base(self):
        program = program_of(**{
            "repro.a": """
                class Base:
                    def helper(self):
                        return 1
                """,
            "repro.b": """
                from repro.a import Base

                class Child(Base):
                    def step(self):
                        return self.helper()
                """,
        })
        assert calls_of(program, "repro.b.Child.step") == [
            "repro.a.Base.helper"
        ]

    def test_constructed_attribute_types_bind_method_calls(self):
        # ``self._evaluator = Evaluator(...)`` in __init__ types the
        # attribute; ``self._evaluator.run()`` then binds to the class.
        program = program_of(**{
            "repro.a": """
                class Evaluator:
                    def run(self):
                        return 1
                """,
            "repro.b": """
                from repro.a import Evaluator

                class Registry:
                    def __init__(self):
                        self._evaluator = Evaluator()

                    def advance(self):
                        return self._evaluator.run()
                """,
        })
        assert "repro.a.Evaluator.run" in calls_of(
            program, "repro.b.Registry.advance"
        )

    def test_local_constructor_variable_binds_method_calls(self):
        program = program_of(**{
            "repro.a": """
                class Evaluator:
                    def run(self):
                        return 1

                def drive():
                    evaluator = Evaluator()
                    return evaluator.run()
                """,
        })
        assert "repro.a.Evaluator.run" in calls_of(program, "repro.a.drive")


class TestUnknownDegradation:
    def test_dynamic_receiver_resolves_to_none(self):
        program = program_of(**{
            "repro.a": """
                def caller(handler):
                    return handler.anything(1)
                """,
        })
        assert calls_of(program, "repro.a.caller") == [None]

    def test_unknown_callees_contribute_no_acquisitions(self):
        # The fixpoint never conjures a lock out of an unresolvable call.
        program = program_of(**{
            "repro.continuous.a": """
                def mystery(handler):
                    return handler.evaluate()
                """,
            "repro.continuous.b": """
                def locked():
                    with _mutex:
                        return 1
                """,
        })
        summaries = program.summaries(classify_site)
        may = program.transitive_acquisitions(summaries)
        assert may["repro.continuous.a.mystery"] == set()
        assert may["repro.continuous.b.locked"] == {"registry"}


class TestCycles:
    def test_recursive_call_graph_reaches_a_fixpoint(self):
        # a -> b -> a: the transitive-acquisition fixpoint terminates
        # and both ends see both locks.
        program = program_of(**{
            "repro.continuous.a": """
                from repro.continuous.b import pong

                def ping(depth):
                    with _mutex:
                        return pong(depth - 1)
                """,
            "repro.continuous.b": """
                from repro.continuous.a import ping

                def pong(depth):
                    with _advance_gate:
                        return ping(depth - 1)
                """,
        })
        summaries = program.summaries(classify_site)
        may = program.transitive_acquisitions(summaries)
        assert may["repro.continuous.a.ping"] == {"registry", "advance-gate"}
        assert may["repro.continuous.b.pong"] == {"registry", "advance-gate"}

    def test_inheritance_cycle_does_not_recurse_forever(self):
        program = program_of(**{
            "repro.a": """
                class A(B):
                    def step(self):
                        return self.missing()

                class B(A):
                    pass
                """,
        })
        assert calls_of(program, "repro.a.A.step") == [None]


class TestGuardThunks:
    def test_named_thunk_passed_to_guard_call_gets_an_edge(self):
        program = program_of(**{
            "repro.cluster.a": """
                def dispatch(guard, shard, query):
                    def run():
                        return shard.tree.query(query)

                    return guard.call("query", run)
                """,
        })
        summary = program.summaries()["repro.cluster.a.dispatch"]
        thunks = [site.callee for site in summary.calls if site.via_thunk]
        assert thunks == ["repro.cluster.a.dispatch.run"]
