"""Tests for the command-line tools (repro.tools.cli)."""

import numpy as np
import pytest

from repro.ir import load_model, save_model
from repro.models import squeezenet_v1_1
from repro.tools.cli import main


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

    def test_benchmark_with_profile(self, model_path, capsys):
        assert main(["benchmark", model_path, "--repeats", "2",
                     "--profile", "3"]) == 0
        out = capsys.readouterr().out
        assert "latency:" in out and "slowest operators:" in out
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

    def test_autotune(self, model_path, capsys):
        assert main(["autotune", model_path, "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "auto-tuned" in out and "agreement" in out

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
