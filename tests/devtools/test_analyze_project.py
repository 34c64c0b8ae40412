"""Tests for the analyzer's project index and call graph."""

import pathlib

from repro.devtools.analyze.callgraph import CallGraph
from repro.devtools.analyze.project import ProjectIndex, module_name


class TestModuleNaming:
    def test_source_layout(self):
        assert module_name("src/repro/sim/runner.py") == "repro.sim.runner"

    def test_package_init(self):
        assert module_name("src/repro/obs/__init__.py") == "repro.obs"


class TestProjectIndex:
    def test_functions_classes_and_mutables(self, make_tree):
        root = make_tree({
            "src/repro/sim/mod.py": """\
                from dataclasses import dataclass

                _CACHE = {}
                FROZEN = ("a", "b")

                @dataclass(frozen=True)
                class Spec:
                    device: str
                    rounds: int = 3

                    def key(self):
                        return (self.device, self.rounds)

                def top():
                    return Spec("cpu").key()
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        module = project.modules["repro.sim.mod"]
        assert module.mutables == {"_CACHE": 3}
        assert "repro.sim.mod.top" in project.functions
        spec = project.classes["repro.sim.mod.Spec"]
        assert spec.is_dataclass
        assert [f.name for f in spec.fields] == ["device", "rounds"]
        assert project.resolve_method("repro.sim.mod.Spec", "key") == (
            "repro.sim.mod.Spec.key"
        )

    def test_key_exempt_markers_parsed(self, make_tree):
        root = make_tree({
            "src/repro/sim/mod.py": """\
                from dataclasses import dataclass

                @dataclass
                class Spec:
                    device: str
                    label: str = ""  # key_exempt: display only
                    tag: str = ""  # key_exempt
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        fields = {
            f.name: f for f in project.classes["repro.sim.mod.Spec"].fields
        }
        assert not fields["device"].has_marker
        assert fields["label"].has_marker
        assert fields["label"].exempt_reason == "display only"
        assert fields["tag"].has_marker
        assert fields["tag"].exempt_reason is None

    def test_parse_failure_recorded_not_raised(self, make_tree):
        root = make_tree({"src/repro/bad.py": "def broken(:\n"})
        project = ProjectIndex.load([root / "src"], root)
        assert project.modules == {}
        assert len(project.parse_failures) == 1
        assert project.parse_failures[0][0] == "src/repro/bad.py"


class TestCallGraph:
    def test_edges_through_aliases_and_annotations(self, make_tree):
        root = make_tree({
            "src/repro/a.py": """\
                def helper():
                    return 1
            """,
            "src/repro/b.py": """\
                from repro.a import helper as h
                from repro import a

                class Spec:
                    def run(self):
                        return h() + a.helper()

                def drive(spec: Spec):
                    return spec.run()
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        graph = CallGraph.build(project)
        assert graph.edges["repro.b.Spec.run"] == ("repro.a.helper",)
        assert graph.edges["repro.b.drive"] == ("repro.b.Spec.run",)

    def test_relative_import_resolves_to_edge(self, make_tree):
        root = make_tree({
            "src/repro/pkg/inner.py": """\
                def leaf():
                    return 0
            """,
            "src/repro/pkg/outer.py": """\
                from .inner import leaf

                def caller():
                    return leaf()
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        graph = CallGraph.build(project)
        assert graph.edges["repro.pkg.outer.caller"] == ("repro.pkg.inner.leaf",)

    def test_package_reexports_resolve_to_edges(self, make_tree):
        root = make_tree({
            "src/repro/sim/__init__.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.sim.runner import Oracle, run_campaign

                __all__ = ["Oracle", "run_campaign"]
            """,
            "src/repro/sim/runner.py": """\
                class Oracle:
                    def __init__(self):
                        self.front = []

                def run_campaign():
                    return Oracle()
            """,
            "src/repro/cli.py": """\
                from repro import sim
                from repro.sim import Oracle

                def main():
                    from repro.sim import run_campaign

                    return run_campaign(), sim.run_campaign(), Oracle()
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        graph = CallGraph.build(project)
        assert graph.edges["repro.cli.main"] == (
            "repro.sim.runner.Oracle.__init__",
            "repro.sim.runner.run_campaign",
        )

    def test_reachability_with_witness_chain(self, make_tree):
        root = make_tree({
            "src/repro/m.py": """\
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 1

                def island():
                    return 2
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        graph = CallGraph.build(project)
        parents = graph.reachable(["repro.m.a"])
        assert set(parents) == {"repro.m.a", "repro.m.b", "repro.m.c"}
        assert graph.chain(parents, "repro.m.c") == [
            "repro.m.a", "repro.m.b", "repro.m.c",
        ]

    def test_attr_loads_closure(self, make_tree):
        root = make_tree({
            "src/repro/m.py": """\
                def key(spec):
                    return (spec.device, extra(spec))

                def extra(spec):
                    return spec.rounds
            """,
        })
        project = ProjectIndex.load([root / "src"], root)
        graph = CallGraph.build(project)
        loads = graph.attr_loads_closure(["repro.m.key"])
        assert {"device", "rounds"} <= loads

    def test_real_tree_worker_chain_resolves(self):
        repo = pathlib.Path(__file__).resolve().parents[2]
        project = ProjectIndex.load([repo / "src" / "repro"], repo)
        graph = CallGraph.build(project)
        parents = graph.reachable(["repro.sim.executor._compute_spec"])
        # The from-import hop: _compute_spec -> the executor's module-level
        # ``run_campaign`` -> repro.sim.runner.run_campaign.
        assert "repro.sim.runner.run_campaign" in parents

    def test_real_tree_calls_through_packages_resolve(self):
        repo = pathlib.Path(__file__).resolve().parents[2]
        project = ProjectIndex.load([repo / "src" / "repro"], repo)
        graph = CallGraph.build(project)
        assert "repro.sim.fleet.prepare_fleet" in graph.edges["repro.cli._cmd_fleet"]
        assert "repro.baselines.oracle.OracleController.__init__" in (
            graph.edges["repro.sim.runner.make_controller"]
        )
        # ``obs.render_view`` reaches ``repro.obs.trace`` only through the
        # package's declared re-exports.
        assert "repro.obs.trace.render_view" in graph.edges["repro.cli._cmd_trace"]
