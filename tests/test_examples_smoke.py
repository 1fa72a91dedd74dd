"""Smoke tests: every shipped example must run end-to-end.

Each example module is imported and its ``main`` invoked at a tiny scale
with stdout captured, so examples cannot silently rot as the library
evolves.
"""

import importlib.util
import pathlib

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "BFS levels" in out
        assert "adaptive" in out

    def test_road_navigation(self, capsys):
        load_example("road_navigation").main(scale=0.01)
        out = capsys.readouterr().out
        assert "serial CPU Dijkstra" in out
        assert "adaptive" in out
        assert "longest shortest route" in out

    def test_social_reachability(self, capsys):
        load_example("social_reachability").main(scale=0.005)
        out = capsys.readouterr().out
        assert "degrees of separation" in out
        assert "BFS comparison" in out

    def test_webgraph_exploration(self, capsys):
        load_example("webgraph_exploration").main(scale=0.01)
        out = capsys.readouterr().out
        assert "outdegree distribution" in out
        assert "SIMT" in out

    def test_device_comparison(self, capsys):
        load_example("device_comparison").main()
        out = capsys.readouterr().out
        assert "Tesla C2070" in out
        assert "Quadro" in out

    def test_component_analysis(self, capsys):
        mod = load_example("component_analysis")
        # The example hardcodes its scales; run its two halves directly.
        mod.analyze_components()
        mod.analyze_road_routing()
        out = capsys.readouterr().out
        assert "components" in out
        assert "hybrid" in out

    def test_algorithm_zoo(self, capsys):
        load_example("algorithm_zoo").main(scale=0.005)
        out = capsys.readouterr().out
        assert "five algorithms" in out
        assert "k-core" in out
        assert "working-set trajectories" in out
