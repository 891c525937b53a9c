"""g2tori benchmark: seeded closed-loop workloads with output checks.

    python3 bench/run.py --workload grid --seed 1 --seconds 28 --trace 0

One client drives g2tori's public API (or, for ``cli``, its command line)
and waits for each reply before sending the next input.  Every output is
checked against an oracle in ``oracles.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, where the metrics are the end-to-end ones with ``--trace 0``
and the per-layer ones, from a run under the span recorder, with
``--trace 1``.  Times and rates there are scaled to a reference machine
speed by the yardsticks of ``yardstick.py``; the printed lines also show
the raw values.  A full report (provenance, all seven end-to-end figures,
raw and scaled, span totals, the first check failures) is written to
``bench/out/<workload>-seed<n>-trace<t>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from tracer import Recorder, cache_counters, install
from yardstick import ARITHMETIC, INTEGER_LOOP, INTERPRETER_START, Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "decide-fresh", "invariants", "cli")
SETUP_REPEATS = 7
# the set-up child reads the arithmetic yardstick itself, after the timed part
SETUP_CODE = (
    "import statistics, sys, time; t = time.perf_counter(); import g2tori, g2tori.weyl; "
    "g2tori.weyl.lattice_catalog(); took = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); from yardstick import arithmetic; "
    "print(took, statistics.median(arithmetic() for _ in range(3)))"
)
EXIT_BY_DECISION = {"YES": 0, "NO": 3, "INCONCLUSIVE": 4}
# the yardstick that scales each workload's window: the one whose drift
# with the host's load follows that of the workload's dominant work
# (grid: lambda searches; decide-fresh, invariants: trial division and
# Fraction arithmetic; cli: interpreter start)
WINDOW_YARDSTICK = {
    "grid": INTEGER_LOOP, "decide-fresh": ARITHMETIC, "invariants": ARITHMETIC, "cli": INTERPRETER_START,
}
# inputs answered when peak RSS, the cache sizes and the digest of the
# first inputs are read: well inside every run today, and away from the
# sizes where the Hilbert-symbol cache doubles its table
MARK = {"grid": 150, "decide-fresh": 1000, "invariants": 1500, "cli": 30}


def _run(cmd, env, timeout=60.0):
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _wall(cmd, env) -> float:
    start = time.perf_counter()
    proc = _run(cmd, env)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def measure_setup(env, trace: bool, stick: Yardstick) -> dict:
    """setup_s: median over fresh interpreters of importing g2tori and
    building the lattice catalog, each scaled by the yardstick read in the
    same interpreter.  With tracing, also the interpreter's bare start and
    the CLI import (cli.interpreter_s, cli.import_s), with the benchmark's
    own yardstick read before each pair."""
    py = sys.executable
    _run([py, "-c", SETUP_CODE], env)  # compiles bytecode once
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = _run([py, "-c", SETUP_CODE], env)
        if proc.returncode != 0:
            raise RuntimeError(f"g2tori does not import: {proc.stderr.strip()}")
        took, reading = map(float, proc.stdout.split())
        raw.append(took)
        scaled.append(took * ARITHMETIC[1] / reading)
    out = {"setup_s": statistics.median(scaled), "setup_s_raw": statistics.median(raw), "setup_samples": raw}
    stick.tick(force=True)
    if trace:
        bare, imported = [], []
        for _ in range(SETUP_REPEATS):
            stick.tick(force=True)
            bare.append(_wall([py, "-c", "pass"], env))
            imported.append(_wall([py, "-c", "import g2tori.cli"], env))
        out["cli.interpreter_s"] = statistics.median(bare)
        out["cli.import_s"] = statistics.median(imported) - out["cli.interpreter_s"]
    return out


class Context:
    """What the calls and the checks share: the catalog, subgroups, the
    subprocess environment and, in trace mode, the recorder."""

    def __init__(self, env, recorder):
        from g2tori import weyl

        self.env = env
        self.recorder = recorder
        self.catalog = weyl.lattice_catalog()
        self.subgroups = weyl.all_subgroups()
        self.cli_command_s: list[float] = []  # time inside cli.main, traced runs
        self.cli_cache_sizes: dict[str, list[int]] = {}  # per traced CLI run
        self._h1 = {}

    def call(self, op):
        return workloads.run_op(op, self.subgroups, self.catalog)

    def cli_call(self, op):
        argv = workloads.cli_argv(op, self.subgroups)
        if self.recorder is None:
            cmd = [sys.executable, "-m", "g2tori.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
        proc = _run(cmd, self.env)
        if self.recorder is not None:
            self._merge_spans(proc.stderr)
        return {"code": proc.returncode, "stdout": proc.stdout}

    def _merge_spans(self, stderr: str):
        for line in stderr.splitlines():
            if line.startswith("BENCH-SPANS "):
                data = json.loads(line[len("BENCH-SPANS "):])
                self.recorder.merge(data)
                self.cli_command_s.append(data["command_s"])
                for name, c in data["caches"].items():
                    self.recorder.bump(f"{name}.hits", c["hits"])
                    self.recorder.bump(f"{name}.misses", c["misses"])
                    self.cli_cache_sizes.setdefault(name, []).append(c["size"])

    def h1_expected(self, op):
        key = (op["group"], op["lattice"])
        if key not in self._h1:
            lattice = self.catalog.lattices[op["lattice"]]
            mats = [lattice.act(g) for g in self.subgroups[op["group"]]]
            self._h1[key] = oracles.h1_expected(mats, lattice.rank)
        return self._h1[key]


def input_blocks(workload: str, rng: random.Random, ctx: Context):
    """The workload's inputs, in blocks that each hold its whole mix once,
    made from the seed as they are needed, so a run never runs out of
    them: ``grid`` repeats its 200 instances pass after pass; the others
    never repeat an input on purpose."""
    if workload == "grid":
        yield from itertools.repeat(workloads.grid_pool(rng))
    lattices = sorted(ctx.catalog.lattices)
    while True:
        if workload == "decide-fresh":
            yield [workloads.fresh_instance(rng)]
        elif workload == "invariants":
            yield workloads.invariants_block(rng, len(ctx.subgroups), lattices)
        else:
            yield workloads.cli_block(rng, len(ctx.subgroups), lattices)


def timed_loop(blocks, call, seconds: float, mark: int, rss_who: int, stick: Yardstick) -> dict:
    """Closed loop, one client: each input is sent when the last reply is in.
    Peak RSS and the cache sizes are read once ``mark`` inputs are answered
    (or at the end of a shorter run), so they measure the same work however
    fast the program is.  ``whole`` counts the inputs of the blocks answered
    in full.  Making an input and reading the yardstick happen between
    inputs; their time is not the program's."""
    latencies, moments, outputs, at_mark = [], [], [], None
    digest = hashlib.sha256()
    block, left, whole = [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        stick.tick()
        if not left:
            block = next(blocks)
            left = len(block)
        op = block[len(block) - left]
        left -= 1
        digest.update(json.dumps(op, sort_keys=True).encode())
        t0 = time.perf_counter()
        try:
            out, err = call(op), None
        except Exception as exc:  # noqa: BLE001 -- recorded and checked
            out, err = None, type(exc).__name__
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        moments.append((t0 + t1) / 2)
        outputs.append((op, out, err))
        if not left:
            whole = len(outputs)
        if len(outputs) == mark or (t1 >= deadline and at_mark is None):
            at_mark = {
                "inputs": len(outputs),
                "rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
                "cache_sizes": {name: c["size"] for name, c in cache_counters().items()},
                "inputs_sha256": digest.hexdigest(),
            }
        if t1 >= deadline:
            return {
                "latencies": latencies,
                "moments": moments,
                "outputs": outputs,
                "whole": whole,
                "mark": at_mark,
                "inputs_sha256": digest.hexdigest(),
            }


def load_golden() -> dict:
    golden = {}
    with open(HERE / "grid_golden.jsonl") as fh:
        for line in fh:
            row = json.loads(line)
            golden[_instance_key(row["instance"])] = json.dumps(row["verdict"], sort_keys=True)
    return golden


def _instance_key(op) -> tuple:
    return tuple(op["octonion"]), op["d"], op["cubic"]


def check(op, out, err, ctx: Context, cli: bool):
    """(failure reason or None, inconclusive?, overflow?) for one output."""
    if err is not None:
        if err == "FactorizationOverflow" and (
            op.get("overflow") or (op["kind"] == "transfer" and oracles.transfer_overflows(op["cubic"], op["lam"]))
        ):
            return None, False, True  # g2tori's documented error for a number beyond its bound
        return f"raised {err}", False, False
    kind = op["kind"]
    if cli:
        code, stdout = out["code"], out["stdout"]
        try:
            out = _parse_cli(kind, code, stdout)
        except (ValueError, KeyError) as exc:
            return f"cli output: {exc}", False, False
    if kind == "decide":
        expected = workloads.decision_class(op["class"], op["d"], op["delta_sign"])
        inconclusive = dict(out.get("crosschecks", [])).get("hermitian-criterion") == "INCONCLUSIVE"
        return oracles.check_decision(op, out, expected), inconclusive, False
    if kind == "h1":
        expected = ctx.h1_expected(op)
        return (None if out == expected else f"h1 {out} != {expected}"), False, False
    if kind == "transfer":
        return oracles.check_transfer(op["cubic"], op["lam"], out), False, False
    return (None if out == op["expect"] else f"{kind}: {out} != {op['expect']}"), False, False


def _parse_cli(kind, code, stdout):
    if kind == "decide":
        verdict = json.loads(stdout)
        if code != EXIT_BY_DECISION[verdict["decision"]]:
            raise ValueError(f"exit code {code} for {verdict['decision']}")
        return verdict
    if kind == "h1":
        if code != 0:
            raise ValueError(f"exit code {code}")
        return json.loads(stdout)["elementary_divisors"]
    answer = stdout.strip()
    if (answer, code) not in (("YES", 0), ("NO", 3)):
        raise ValueError(f"answer {answer!r} with exit code {code}")
    return answer == "YES"


def _quantile_summary(latencies):
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90 * 1000,
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


PER_INPUT_SPANS = (
    ("arith.squarefree_class", ("calls", "self_s")),
    ("arith.hilbert_symbol", ("calls", "self_s")),
    ("arith.relevant_places", ("self_s",)),
    ("quadforms.invariants", ("calls", "self_s")),
    ("quadforms.is_isometric", ("calls",)),
    ("quadforms.represents_subform", ("calls", "busy_s")),
    ("quadforms.gram_diagonal", ("calls", "self_s")),
    ("etale.trace_transfer_form", ("calls", "self_s")),
    ("composition.is_split", ("busy_s",)),
    ("composition.embeds_quadratic", ("calls", "busy_s")),
    ("hermitian.lambda_witness_search", ("calls", "busy_s", "self_s")),
    ("hermitian.check_condition_ii", ("calls",)),
    ("weyl.h1", ("calls", "self_s")),
    ("weyl.smith_normal_form", ("calls", "self_s")),
    ("weyl.kernel_basis", ("self_s",)),
    ("engine.decide_over_Q", ("busy_s", "self_s")),
)


def layer_metrics(
    window: dict, inputs: int, caches: dict, ctx: Context, setup: dict, catalog_s, traced_ops_per_s, share
) -> dict:
    """Per-layer figures of the traced window.  Counts and times are per
    input answered, so they measure the cost of the work, not the length
    of the window; a layer the workload never calls reads zero.  Ratios
    are over the window, cache sizes are read at the mark, and the
    ``cli`` times are medians per invocation."""
    spans, counts = window["spans"], window["counts"]

    def per_input(name, field):
        calls, busy, own = spans.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "busy_s": busy, "self_s": own}[field] / inputs

    out = {}
    for name, fields in PER_INPUT_SPANS:
        for field in fields:
            out[f"{name}.{field}"] = per_input(name, field)
    for name, cache in caches.items():
        hits = cache["hits"] + counts.get(f"{name}.hits", 0)
        misses = cache["misses"] + counts.get(f"{name}.misses", 0)
        out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
        out[f"{name}.size"] = cache["size"]
    out["arith.overflow_frac"] = share["overflow_frac"]
    out["composition.witness_search.busy_s"] = per_input("composition.common_slot", "busy_s") + per_input(
        "composition.embeds_quaternion", "busy_s"
    )
    checks = spans.get("hermitian.check_condition_ii", (0,))[0]
    out["hermitian.lambda_hit_ratio"] = _ratio(counts.get("hermitian.lambda_found", 0), checks)
    out["hermitian.lambda_exhausted"] = counts.get("hermitian.lambda_exhausted", 0) / inputs
    out["weyl.lattice_catalog.busy_s"] = catalog_s
    out["engine.is_isometric.calls"] = counts.get("engine.is_isometric", 0) / inputs
    for rule in ("R1", "R2", "R3-YES", "R3-NO"):
        out[f"engine.rule.{rule}.busy_s"] = window["rule_busy"].get(rule, 0.0) / inputs
    out["engine.golden_mismatch"] = share["golden_mismatch"]
    out["engine.inconclusive_frac"] = share["inconclusive_frac"]
    out["cli.interpreter_s"] = setup["cli.interpreter_s"]
    out["cli.import_s"] = setup["cli.import_s"]
    out["cli.command_s"] = statistics.median(ctx.cli_command_s) if ctx.cli_command_s else 0.0
    out["trace.ops_per_s"] = traced_ops_per_s
    return out


def provenance(seed, window: dict) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(
        1 for path in sorted((SRC / "g2tori").glob("*.py")) for line in path.read_text().splitlines() if line.strip()
    )
    return {
        "seed": seed,
        # SHA-256 over the inputs' JSON (sorted keys), one after another:
        # of the inputs answered, and of the first ones, up to the mark,
        # which the same seed gives on every run that reaches the mark
        "inputs_sha256": window["inputs_sha256"],
        "inputs": len(window["outputs"]),
        "first_inputs_sha256": window["mark"]["inputs_sha256"],
        "first_inputs": window["mark"]["inputs"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


SETUP_PHASE = {"cli.interpreter_s", "cli.import_s", "weyl.lattice_catalog.busy_s"}


def at_reference(values: dict, units: dict, setup_scale: float, window_scale: float) -> dict:
    """Per-layer times and rates at the yardstick's reference speed, each
    phase scaled by its median reading."""
    out = {}
    for name, value in values.items():
        scale = setup_scale if name in SETUP_PHASE else window_scale
        unit = units.get(name, "")
        out[name] = value * scale if unit.split("/")[0] in ("s", "ms") else value / scale if unit == "1/s" else value
    return out


def by_kind(outputs, latencies) -> dict:
    """Count, median, p90 and total seconds per input kind."""
    groups = {}
    for (op, _, _), lat in zip(outputs, latencies):
        groups.setdefault(op["kind"], []).append(lat)
    return {
        kind: {
            "count": len(lats),
            "median_ms": statistics.median(lats) * 1000,
            "p90_ms": (statistics.quantiles(lats, n=10)[8] if len(lats) > 1 else lats[0]) * 1000,
            "total_s": sum(lats),
        }
        for kind, lats in sorted(groups.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "g2tori" / "__init__.py").is_file():
        print(f"bench: no g2tori sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    cli = args.workload == "cli"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    setup_stick, window_stick = Yardstick(), Yardstick(WINDOW_YARDSTICK[args.workload])
    setup = measure_setup(env, trace, setup_stick)
    recorder = Recorder() if trace else None
    if trace:
        install(recorder)
    ctx = Context(env, recorder)
    catalog_s = None
    if trace:
        catalog_s = recorder.spans["weyl.lattice_catalog"][1]  # the build, in Context
        recorder.zero()
    blocks = input_blocks(args.workload, random.Random(args.seed), ctx)

    before = cache_counters()
    rss_who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    window = timed_loop(
        blocks, ctx.cli_call if cli else ctx.call, args.seconds, MARK[args.workload], rss_who, window_stick
    )
    spans = recorder.export() if trace else None  # the window's alone: the checks call no g2tori code
    after = cache_counters()
    caches = {}
    for name in after:
        size = statistics.median(ctx.cli_cache_sizes[name]) if cli and trace else window["mark"]["cache_sizes"][name]
        caches[name] = {k: after[name][k] - before[name][k] for k in ("hits", "misses")} | {"size": size}

    golden = load_golden() if args.workload == "grid" else {}
    failures, inconclusive, overflow, mismatched = [], 0, 0, set()
    for op, out, err in window["outputs"]:
        reason, inc, ovf = check(op, out, err, ctx, cli)
        inconclusive += inc
        overflow += ovf
        if reason is not None:
            failures.append({"input": op, "reason": reason})
        if golden and err is None and json.dumps(out, sort_keys=True) != golden[_instance_key(op)]:
            mismatched.add(_instance_key(op))
    attempted = len(window["outputs"])
    # latency and rate come from the whole blocks answered, so that every
    # run measures the same mix (for grid, whole passes of the 200)
    measured = window["whole"] or attempted
    latencies, moments = window["latencies"][:measured], window["moments"][:measured]
    decisions = sum(1 for op, _, _ in window["outputs"] if op["kind"] == "decide")
    share = {
        # an input that raised g2tori's documented overflow error got no
        # answer: it counts here, though the answer it gave is the right one
        "failed_frac": (len(failures) + overflow) / attempted,
        "inconclusive_frac": _ratio(inconclusive, decisions),
        "overflow_frac": overflow / attempted,
        "golden_mismatch": len(mismatched),
    }
    summary = _quantile_summary(latencies)
    scaled = [lat * window_stick.scale_at(m) for lat, m in zip(latencies, moments)]
    scaled_summary = _quantile_summary(scaled)
    end_to_end_raw = {
        "ops_per_s": measured / sum(latencies),
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p90_ms": summary["latency_p90_ms"],
        "failed_frac": share["failed_frac"],
        "inconclusive_frac": share["inconclusive_frac"],
        "peak_rss_mb": window["mark"]["rss_mb"],
        "setup_s": setup["setup_s_raw"],
    }
    end_to_end = end_to_end_raw | {
        "ops_per_s": measured / sum(scaled),
        "latency_p50_ms": scaled_summary["latency_p50_ms"],
        "latency_p90_ms": scaled_summary["latency_p90_ms"],
        "setup_s": setup["setup_s"],
    }

    per_layer = {}
    if trace:
        per_layer = layer_metrics(spans, attempted, caches, ctx, setup, catalog_s, end_to_end_raw["ops_per_s"], share)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    scales = (setup_stick.scale(), window_stick.scale())
    ref_per_layer = at_reference(per_layer, units, *scales)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = ref_per_layer if trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, window),
        "samples": summary["samples"],
        "attempted": attempted,
        "samples_beyond_p90": summary["samples_beyond_p90"],
        "mark_inputs": window["mark"]["inputs"],
        "end_to_end": end_to_end,
        "per_layer": ref_per_layer,
        "end_to_end_raw": end_to_end_raw,
        "per_layer_raw": per_layer,
        "yardstick": {
            phase: {"readings": len(stick.readings), "median_s": statistics.median(stick.readings), "scale": scale}
            for phase, stick, scale in (("setup", setup_stick, scales[0]), ("window", window_stick, scales[1]))
        },
        "caches_start_cold": {name: before[name]["size"] == 0 for name in before},
        "caches": caches,
        "setup_samples": setup["setup_samples"],
        "spans": spans,
        "by_kind": by_kind(window["outputs"], latencies),
        "failures": failures[:20],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    raw = end_to_end_raw | per_layer
    for name, value in (end_to_end | ref_per_layer).items():
        unit = units.get(name, "ratio")
        note = f" (raw {raw[name]:.6g} {unit})" if raw[name] != value else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"machine speed: yardstick scale {scales[0]:.4g} in set-up, {scales[1]:.4g} in the window")
    for kind, row in report["by_kind"].items():
        print(
            f"{kind}: {row['count']} inputs, median {row['median_ms']:.3g} ms, "
            f"p90 {row['p90_ms']:.3g} ms, {row['total_s']:.3g} s in all"
        )
    print(
        f"samples = {summary['samples']} of {attempted} inputs answered ({summary['samples_beyond_p90']} beyond p90), "
        f"wrong answers = {len(failures)}, overflow errors = {overflow} (in failed_frac), "
        f"golden mismatches = {len(mismatched)}"
    )
    for failure in failures[:3]:
        print(f"check failed: {failure['reason']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
