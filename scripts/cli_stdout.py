#!/usr/bin/env python3
"""Run every CLI subcommand once and print its stdout, masked, for diffs.

    python scripts/cli_stdout.py [SRC] > after.txt
    diff <(python scripts/cli_stdout.py OLD/src) <(python scripts/cli_stdout.py)

SRC is the ``src`` directory of the tree to drive (default: this
checkout's).  The cases use squeezenet_v1.1, the built-in chaos graph and
fresh ``cli build`` outputs (inception_v3 at 139 px, the smallest input
at which its 1x7/7x1 convs select rectangular Winograd tiles; and
mobilenet_v1, whose BatchNorms show the converter's fusion and the
output names it keeps).  Each case prints ``$ cli ARGV``, its stdout and
``[exit N]`` (with the last stderr line when N is not 0), then the name
and sha256 of every file a ``--postmortem-dir`` case wrote.  Lines that
carry wall-clock numbers or pids read ``<timed>`` after their ``label:``
(trace-waterfall rows are dropped), a ``schemes`` row whose Eq. 2 pick
is Winograd reads ``<timed>`` before that pick (its measured verdict
against sliding can be a near tie), and the scratch and source paths
read ``<tmp>`` and ``<src>``, so two runs of one tree diff empty and a
diff against another tree shows only what changed.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

CASES = """
build squeezenet_v1.1 -o sq.rmnn --input-size 64
build tiny_decoder -o dec.rmnn
build lstm_classifier -o lstm.rmnn
build vgg99 -o x.rmnn
build inception_v3 -o inc.rmnn --input-size 139
build mobilenet_v1 -o mb.rmnn --input-size 64
info sq.rmnn
info chaos.rmnn
info missing.rmnn
lint sq.rmnn
lint --strict chaos.rmnn
lint dec.rmnn --no-memcheck
optimize sq.rmnn -o opt.rmnn --verify
optimize mb.rmnn -o mbo.rmnn --verify
info mbo.rmnn
quantize sq.rmnn -o q.rmnn --calibration-batches 2
quantize
prune sq.rmnn -o p.rmnn --sparsity 0.6
fp16 sq.rmnn -o h.rmnn
benchmark sq.rmnn --repeats 2 --profile 3
benchmark dec.rmnn --repeats 2
benchmark lstm.rmnn --repeats 1
trace sq.rmnn -o t.json --runs 2 --top 5 --waterfall
trace dec.rmnn -o t2.json
metrics sq.rmnn --runs 2 -o m.json --prom
metrics chaos.rmnn --runs 2 --sanitize
metrics --prom
warm sq.rmnn --cache-dir cache
warm sq.rmnn --cache-dir cache
serve sq.rmnn --requests 8 --clients 2 --cache-dir cache --trace s.json
serve chaos.rmnn --requests 8 --clients 2 --batch 4 --no-cache
serve dec.rmnn --requests 4 --clients 2 --pool 1 --no-cache
cluster --requests 4 --clients 2
cluster chaos.rmnn --requests 8 --clients 2 --dwell-ms 0 --queue-depth 4 --prom
estimate sq.rmnn --device Mate20 --engine MNN
estimate sq.rmnn --device Nokia
estimate sq.rmnn --engine Caffe --backend cpu --threads 2
devices
schemes sq.rmnn
schemes inc.rmnn
dot sq.rmnn --schemes -o g.dot
dot chaos.rmnn
chaos --seed 0 --faults 50 --events
chaos --seed 0 --faults 50 --events --kv-dtype int8
chaos --seed 3 --faults 30 --postmortem-dir pm
sanitize --strict
regress bench.json --threshold 0.5 --min-history 1
generate --prompts 4 --max-tokens 8 --trace g.json
generate --prompts 3 --temperature 0.8 --top-k 5 --prefix-cache --shared-prefix 6 --seed 3
"""

#: A line matching any of these carries a wall-clock reading or a pid.
TIMED = re.compile(
    r"\d\s*ms\b|_ms\b|_ms[_{]|\bms\)|req/s|tok/s|tokens/s|per_sec|_us\b"
    r"|\bQPS\b|\bpid\b|prepare:|throughput|latency|elapsed|seconds",
)
LABEL = re.compile(r"\s*[A-Za-z][\w ]*:\s*")
#: A ``schemes`` row whose Eq. 2 pick is Winograd, kept or overruled by
#: a measured verdict: ``conv_84  -> sliding   <- Eq. 2 picks winograd n=4``.
WINOGRAD_ROW = re.compile(
    r"(\s*\S+\s+-> )(?:winograd (n=\S+)|\S+\s+<- Eq\. 2 picks winograd (n=\S+))"
)


def _mask(line: str, tmp: str, src: str) -> Optional[str]:
    """``line`` with the scratch and source paths and any timing masked.

    A timed line keeps only its ``label:`` prefix, since which rows a
    timing-ordered list shows varies too, and a Winograd ``schemes`` row
    keeps its conv and its Eq. 2 pick; ``None`` drops a trace-waterfall
    row, since how many spans clear its cut-off varies.
    """
    line = line.replace(tmp, "<tmp>").replace(src, "<src>")
    row = WINOGRAD_ROW.fullmatch(line)
    if row:
        return f"{row.group(1)}<timed> (Eq. 2: winograd {row.group(2) or row.group(3)})"
    if not TIMED.search(line):
        return line
    if "|" in line:
        return None
    label = LABEL.match(line)
    return (label.group(0) if label else "") + "<timed>"


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else repo / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, "-c",
             "from repro.faults.chaos import default_chaos_graph\n"
             "from repro.ir import save_model\n"
             "save_model(default_chaos_graph(), 'chaos.rmnn')"],
            cwd=tmp, env=env, check=True,
        )
        bench = repo / "BENCH_test_concurrent_throughput.json"
        Path(tmp, "bench.json").write_bytes(bench.read_bytes())
        for case in CASES.strip().splitlines():
            argv = shlex.split(case)
            proc = subprocess.run(
                [sys.executable, "-m", "repro.tools.cli", *argv],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            print(f"$ cli {case}")
            for line in proc.stdout.splitlines():
                masked = _mask(line, tmp, str(src))
                if masked is not None:
                    print(masked)
            tail = ""
            if proc.returncode and proc.stderr.strip():
                tail = " " + proc.stderr.strip().splitlines()[-1].replace(tmp, "<tmp>")
            print(f"[exit {proc.returncode}]{tail}")
            if "--postmortem-dir" in argv:
                out = Path(tmp, argv[argv.index("--postmortem-dir") + 1])
                for path in sorted(out.glob("*")):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{out.name}/{path.name} {digest}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
