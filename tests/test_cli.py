"""Tests for the command-line tools (repro.tools.cli)."""

import argparse
import re

import numpy as np
import pytest

from repro.core import autotune
from repro.ir import GraphBuilder, load_model, save_model
from repro.models import MODEL_REGISTRY, squeezenet_v1_1
from repro.tools import cli
from repro.tools.cli import main

#: Every subcommand option as (command, option strings or positional dest,
#: default, required, nargs, choices, type name), read from the parser as
#: it stood before the command table replaced the per-command blocks.
PARSER_SURFACE = [
    ('info', ('model',), None, True, None, None, None),
    ('build', ('model_name',), None, True, None, None, None),
    ('build', ('-o', '--output'), None, True, None, None, None),
    ('build', ('--input-size',), 224, False, None, None, 'int'),
    ('build', ('--seed',), 0, False, None, None, 'int'),
    ('lint', ('model',), None, True, None, None, None),
    ('lint', ('--strict',), False, False, 0, None, None),
    ('lint', ('--no-memcheck',), False, False, 0, None, None),
    ('optimize', ('model',), None, True, None, None, None),
    ('optimize', ('-o', '--output'), None, True, None, None, None),
    ('optimize', ('--verify',), False, False, 0, None, None),
    ('quantize', ('model',), None, True, None, None, None),
    ('quantize', ('-o', '--output'), None, True, None, None, None),
    ('quantize', ('--calibration-batches',), 4, False, None, None, 'int'),
    ('prune', ('model',), None, True, None, None, None),
    ('prune', ('-o', '--output'), None, True, None, None, None),
    ('prune', ('--sparsity',), 0.5, False, None, None, 'float'),
    ('fp16', ('model',), None, True, None, None, None),
    ('fp16', ('-o', '--output'), None, True, None, None, None),
    ('benchmark', ('model',), None, True, None, None, None),
    ('benchmark', ('--repeats',), 10, False, None, None, 'int'),
    ('benchmark', ('--profile',), 0, False, None, None, 'int'),
    ('trace', ('model',), None, True, None, None, None),
    ('trace', ('-o', '--output'), 'trace.json', False, None, None, None),
    ('trace', ('--runs',), 1, False, None, None, 'int'),
    ('trace', ('--top',), 10, False, None, None, 'int'),
    ('trace', ('--waterfall',), False, False, 0, None, None),
    ('trace', ('--waterfall-min-ms',), 0.05, False, None, None, 'float'),
    ('metrics', ('model',), None, False, '?', None, None),
    ('metrics', ('--runs',), 10, False, None, None, 'int'),
    ('metrics', ('-o', '--output'), None, False, None, None, None),
    ('metrics', ('--sanitize',), False, False, 0, None, None),
    ('metrics', ('--prom',), False, False, 0, None, None),
    ('warm', ('model',), None, True, None, None, None),
    ('warm', ('--cache-dir',), None, False, None, None, None),
    ('serve', ('model',), None, True, None, None, None),
    ('serve', ('--requests',), 32, False, None, None, 'int'),
    ('serve', ('--clients',), 4, False, None, None, 'int'),
    ('serve', ('--pool',), 2, False, None, None, 'int'),
    ('serve', ('--batch',), 0, False, None, None, 'int'),
    ('serve', ('--cache-dir',), None, False, None, None, None),
    ('serve', ('--no-cache',), False, False, 0, None, None),
    ('serve', ('--trace',), None, False, None, None, None),
    ('cluster', ('model',), None, False, '?', None, None),
    ('cluster', ('--workers',), 2, False, None, None, 'int'),
    ('cluster', ('--requests',), 32, False, None, None, 'int'),
    ('cluster', ('--clients',), 4, False, None, None, 'int'),
    ('cluster', ('--queue-depth',), 8, False, None, None, 'int'),
    ('cluster', ('--dwell-ms',), 2.0, False, None, None, 'float'),
    ('cluster', ('--prom',), False, False, 0, None, None),
    ('estimate', ('model',), None, True, None, None, None),
    ('estimate', ('--device',), 'Mate20', False, None, None, None),
    ('estimate', ('--engine',), 'MNN', False, None, None, None),
    ('estimate', ('--backend',), 'cpu', False, None, None, None),
    ('estimate', ('--threads',), 4, False, None, None, 'int'),
    ('chaos', ('model',), None, False, '?', None, None),
    ('chaos', ('--seed',), 0, False, None, None, 'int'),
    ('chaos', ('--faults',), 200, False, None, None, 'int'),
    ('chaos', ('--events',), False, False, 0, None, None),
    ('chaos', ('--sanitize',), False, False, 0, None, None),
    ('chaos', ('--postmortem-dir',), None, False, None, None, None),
    ('chaos', ('--kv-dtype',), 'float32', False, None, ('float32', 'int8'), None),
    ('regress', ('files',), None, True, '+', None, None),
    ('regress', ('--threshold',), 0.5, False, None, None, 'float'),
    ('regress', ('--min-history',), 1, False, None, None, 'int'),
    ('sanitize', ('--root',), None, False, None, None, None),
    ('sanitize', ('--strict',), False, False, 0, None, None),
    ('generate', ('--prompts',), 4, False, None, None, 'int'),
    ('generate', ('--max-tokens',), 12, False, None, None, 'int'),
    ('generate', ('--max-seq',), 48, False, None, None, 'int'),
    ('generate', ('--d-model',), 32, False, None, None, 'int'),
    ('generate', ('--heads',), 2, False, None, None, 'int'),
    ('generate', ('--layers',), 2, False, None, None, 'int'),
    ('generate', ('--batch',), 4, False, None, None, 'int'),
    ('generate', ('--page-tokens',), 8, False, None, None, 'int'),
    ('generate', ('--temperature',), 0.0, False, None, None, 'float'),
    ('generate', ('--top-k',), 0, False, None, None, 'int'),
    ('generate', ('--seed',), 0, False, None, None, 'int'),
    ('generate', ('--prefix-cache',), False, False, 0, None, None),
    ('generate', ('--shared-prefix',), 0, False, None, None, 'int'),
    ('generate', ('--trace',), None, False, None, None, None),
    ('schemes', ('model',), None, True, None, None, None),
    ('dot', ('model',), None, True, None, None, None),
    ('dot', ('-o', '--output'), None, False, None, None, None),
    ('dot', ('--schemes',), False, False, 0, None, None),
]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "model.rmnn")
    save_model(squeezenet_v1_1(input_size=64, classes=10), path)
    return path


class TestCli:
    def test_info(self, model_path, capsys):
        assert main(["info", model_path]) == 0
        out = capsys.readouterr().out
        assert "Conv2D" in out and "multiplications" in out

    def test_build(self, tmp_path, capsys):
        out_path = str(tmp_path / "m.rmnn")
        assert main(["build", "mobilenet_v1", "-o", out_path,
                     "--input-size", "64"]) == 0
        graph = load_model(out_path)
        assert graph.desc(graph.inputs[0]).shape == (1, 3, 64, 64)

    def test_build_unknown_model(self, tmp_path):
        assert main(["build", "vgg99", "-o", str(tmp_path / "x.rmnn")]) == 1

    def test_optimize(self, model_path, tmp_path, capsys):
        out_path = str(tmp_path / "opt.rmnn")
        assert main(["optimize", model_path, "-o", out_path]) == 0
        before = load_model(model_path)
        after = load_model(out_path)
        assert len(after.nodes) < len(before.nodes)

    def test_quantize(self, model_path, tmp_path, capsys):
        out_path = str(tmp_path / "q.rmnn")
        assert main(["quantize", model_path, "-o", out_path,
                     "--calibration-batches", "2"]) == 0
        quantized = load_model(out_path)
        assert any(v.dtype == np.int8 for v in quantized.constants.values())

    def test_prune(self, model_path, tmp_path, capsys):
        out_path = str(tmp_path / "p.rmnn")
        assert main(["prune", model_path, "-o", out_path, "--sparsity", "0.6"]) == 0
        assert "60.0% sparsity" in capsys.readouterr().out

    def test_fp16(self, model_path, tmp_path, capsys):
        out_path = str(tmp_path / "h.rmnn")
        assert main(["fp16", model_path, "-o", out_path]) == 0
        converted = load_model(out_path)
        assert any(v.dtype == np.float16 for v in converted.constants.values())

    def test_benchmark_reports_faults_and_arena_binding(self, model_path, capsys):
        assert main(["benchmark", model_path, "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        bound, planned = map(int, re.search(
            r"(\d+) of (\d+) planned tensors written there", out).groups())
        assert 0 < bound <= planned
        assert re.search(r"; \d+ minor page faults per run", out)

    def test_benchmark_with_profile(self, model_path, capsys):
        assert main(["benchmark", model_path, "--repeats", "2",
                     "--profile", "8"]) == 0
        out = capsys.readouterr().out
        assert "latency:" in out and "slowest operators:" in out
        # Each conv row names the scheme the selector chose; no other row does.
        rows = out.split("slowest operators:\n")[1].split("time by operator type:")[0]
        convs = 0
        for row in rows.splitlines():
            scheme = row.split(" ms", 1)[1].strip()
            if " Conv2D " in row:
                assert re.fullmatch(r"winograd n=\d+(?:x\d+)?|gemm1x1|sliding",
                                    scheme), row
                convs += 1
            else:
                assert scheme == "", row
        assert convs >= 1
        # One row per operator type of the run, largest share first.
        totals = out.split("time by operator type:\n")[1].splitlines()
        shares = [float(line.split()[-1].rstrip("%")) for line in totals]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(100.0, abs=0.5)
        graph = load_model(model_path)
        assert {line.split()[0] for line in totals} == {n.op_type for n in graph.nodes}

    def test_estimate(self, model_path, capsys):
        assert main(["estimate", model_path, "--device", "Mate20",
                     "--engine", "NCNN"]) == 0
        assert "ms modeled" in capsys.readouterr().out

    def test_estimate_unknown_device(self, model_path):
        assert main(["estimate", model_path, "--device", "Nokia"]) == 1

    def test_estimate_unknown_engine(self, model_path):
        assert main(["estimate", model_path, "--engine", "Caffe"]) == 1

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Mate20" in out and "Adreno" in out

    def test_schemes(self, model_path, capsys):
        assert main(["schemes", model_path]) == 0
        out = capsys.readouterr().out
        assert "gemm1x1" in out or "winograd" in out

    def test_missing_file(self):
        assert main(["info", "/nonexistent/model.rmnn"]) == 1

    def test_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.rmnn"
        bad.write_bytes(b"not a model at all")
        assert main(["info", str(bad)]) == 1

    def test_transformer_build_ignores_input_size(self, tmp_path):
        out_path = str(tmp_path / "t.rmnn")
        assert main(["build", "tiny_transformer", "-o", out_path]) == 0
        graph = load_model(out_path)
        assert graph.desc(graph.inputs[0]).dtype.value == "int32"

    def test_benchmark_int_input_model(self, tmp_path, capsys):
        out_path = str(tmp_path / "l.rmnn")
        assert main(["build", "lstm_classifier", "-o", out_path]) == 0
        assert main(["benchmark", out_path, "--repeats", "1"]) == 0

    def test_dot_export(self, model_path, tmp_path, capsys):
        out_path = str(tmp_path / "g.dot")
        assert main(["dot", model_path, "-o", out_path, "--schemes"]) == 0
        text = open(out_path).read()
        assert text.startswith("digraph")
        assert "Conv2D" in text and "->" in text
        assert "[sliding" in text or "[gemm1x1" in text or "[winograd" in text

    def test_dot_to_stdout(self, model_path, capsys):
        assert main(["dot", model_path]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_benchmark_gather_model(self, tmp_path):
        # Integer feeds must index inside tiny_decoder's 64-row pos_embed.
        out_path = str(tmp_path / "t.rmnn")
        assert main(["build", "tiny_decoder", "-o", out_path]) == 0
        assert main(["benchmark", out_path, "--repeats", "1"]) == 0


def test_rectangular_tiles_share_the_one_label(tmp_path, capsys, monkeypatch):
    """schemes and dot render a rectangular tile as ``winograd n=1x4``,
    and schemes marks a conv whose measured pick differs from the Eq. 2
    one, rectangular tiles included."""
    b = GraphBuilder("rect", seed=0)
    x = b.input("in", (1, 64, 17, 17))
    x = b.conv(x, oc=64, kernel=(1, 7), name="c17")
    b.output(b.conv(x, oc=64, kernel=3, name="c33"))
    path = str(tmp_path / "rect.rmnn")
    save_model(b.finish(), path)

    # A fake probe: this host times the 1x7 conv's Winograd faster than
    # sliding window, and the 3x3 conv's slower.
    monkeypatch.setattr(autotune, "_VERDICTS", {})
    monkeypatch.setattr(autotune, "bound_runner",
                        lambda node, graph, scheme: (node.name, scheme.kind))
    monkeypatch.setattr(autotune, "_measure", lambda runner, x, repeats: {
        ("c17", "winograd"): 1.0, ("c33", "winograd"): 2.0}.get(runner, 1.5))

    assert main(["schemes", path]) == 0
    out = capsys.readouterr().out
    assert "c17                      -> winograd n=1x4\n" in out
    assert "c33                      -> sliding   <- Eq. 2 picks winograd n=4\n" in out
    assert main(["dot", path, "--schemes"]) == 0
    out = capsys.readouterr().out
    assert "[winograd n=1x4]" in out and "[sliding]" in out


def _surface(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (cmd, tuple(a.option_strings) or (a.dest,), a.default, a.required,
         a.nargs, a.choices, getattr(a.type, "__name__", None))
        for cmd, p in sub.choices.items()
        for a in p._actions
        if not isinstance(a, argparse._HelpAction)
    ]


def test_parser_surface_is_pinned():
    assert _surface(cli.build_parser()) == PARSER_SURFACE


def test_usage_block_lists_every_command():
    usage = cli.__doc__.split("Usage::")[1].split("\n\n", 2)[1]
    listed = [line.split()[3] for line in usage.splitlines()]
    assert listed == [name for name, *_ in cli.COMMANDS]


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_zoo_model_builds_and_lints_strict(name, tmp_path, capsys):
    """Every registered model, built fresh, passes ``lint --strict`` (so
    warnings fail too) with the memory-plan sanitizer on.
    ``scripts/check.sh`` stage 2 runs this test by node id."""
    path = str(tmp_path / f"{name}.rmnn")
    assert main(["build", name, "-o", path]) == 0
    assert main(["lint", "--strict", path]) == 0, capsys.readouterr().out
