"""Seeded end-to-end benchmark of the revkit command line.

Run from the repository root:

    python3 perfbench/run.py --workload c40 --seed 1 --seconds 40 --trace 0

Each workload generates its inputs from the seed (perfbench/gen.py),
then runs its commands one after another (a closed loop, one client),
each in a fresh interpreter calling ``revkit.cli.main(argv)`` with BLAS
and OpenMP pinned to one thread.  Passes over the command list repeat
until ``--seconds`` is spent; every output of every pass is checked.

``--trace 0`` prints the end-to-end metrics: medians over the run.
``--trace 1`` makes one untraced pass and two traced passes (``--jobs 1``
only, since spans in forked pool workers would be lost), runs the
untimed probes, and prints the per-layer metrics of the first traced
pass.  Exact counts must repeat across the two traced passes.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the metric definitions.

Maintenance modes: ``--record-golden`` stores the SHA-256 digests of
every output for a range of seeds in perfbench/golden.json, and
``--self-test`` runs each workload at tiny size and checks that every
metric of BENCHMARK.json is printed with its unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("c40", "long_docs", "edits")
GOLDEN = os.path.join(HERE, "golden.json")
WORK_ROOT = ".perfbench_work"
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)
STATS_FILES = (
    "summary.json", "update_ratios.csv", "positions_inserted.csv",
    "positions_deleted.csv", "positions_revised.csv", "composition.csv",
)
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))
# Time of the reference job (child.py) on a quiet host.  Each command's
# times are scaled by REFERENCE_NOMINAL_S / (its own reference time), so
# that drift in the speed of a shared host cancels.
REFERENCE_NOMINAL_S = 0.1


@dataclass
class Cmd:
    key: str        # output directory or file stem under the pass directory
    metric: str     # per-command metric the time adds to
    argv: list
    traced: bool = True


@dataclass
class Workload:
    gen: gen.Generated
    cmds: list
    expected: dict = field(default_factory=dict)  # output name -> producing command key


def _pair_file(arxiv_id: str, src_v: int, tgt_v: int) -> str:
    return f"{arxiv_id.replace('/', '_')}.v{src_v}-v{tgt_v}.json"


def build_workload(name: str, g: gen.Generated, out: str) -> Workload:
    """Commands of one pass, writing under ``out``."""
    c = g.corpus
    if name in ("c40", "long_docs"):
        second = (
            Cmd("align_jobs2", "align_jobs2_s",
                ["align", "--corpus", c, "--out", f"{out}/align_jobs2", "--jobs", "2"], traced=False)
            if name == "c40" else
            Cmd("align_tfidf", "align_tfidf_s",
                ["align", "--corpus", c, "--out", f"{out}/align_tfidf", "--metric", "tfidf", "--jobs", "1"])
        )
        cmds = [
            Cmd("align", "align_s", ["align", "--corpus", c, "--out", f"{out}/align", "--jobs", "1"]),
            second,
            Cmd("stats", "stats_s",
                ["stats", "--corpus", c, "--alignments", f"{out}/align", "--out", f"{out}/stats", "--jobs", "1"]),
        ]
        w = Workload(g, cmds)
        for key in ("align", second.key):
            for pair in g.shared:
                w.expected[f"{key}/{_pair_file(*pair)}"] = key
        for f in STATS_FILES:
            w.expected[f"stats/{f}"] = "stats"
        return w
    f = g.files
    base = ["extract-edits", "--corpus", c, "--alignment", f["alignment.json"]]
    wa = ["--word-alignments", f["pharaoh.txt"]]
    trees = ["--trees-src", f["trees_src.txt"], "--trees-tgt", f["trees_tgt.txt"]]
    cmds = [
        Cmd("extract_diff", "extract_diff_s", base + ["--out", f"{out}/extract_diff.json", "--method", "diff"]),
        Cmd("extract_simple", "extract_simple_s",
            base + ["--out", f"{out}/extract_simple.json", "--method", "simple"] + wa),
        Cmd("extract_parse", "extract_parse_s",
            base + ["--out", f"{out}/extract_parse.json", "--method", "parse", "--max-level", "2"] + wa + trees),
    ]
    for m in ("diff", "simple", "parse"):
        cmds.append(Cmd(f"eval_edits_{m}", "eval_s",
                        ["eval", "--task", "edits", "--pred", f"{out}/extract_{m}.json",
                         "--gold", f["gold_edits.json"], "--out", f"{out}/eval_edits_{m}.json"]))
    cmds.append(Cmd("eval_intention", "eval_s",
                    ["eval", "--task", "intention", "--pred", f["intentions.jsonl"],
                     "--gold", f["gold_edits.json"], "--out", f"{out}/eval_intention.json"]))
    cmds.append(Cmd("eval_alignment", "eval_s",
                    ["eval", "--task", "alignment", "--pred", f["alignment_pred.json"],
                     "--gold", f["alignment.json"], "--corpus", c, "--out", f"{out}/eval_alignment.json"]))
    w = Workload(g, cmds)
    for cmd in cmds:
        w.expected[f"{cmd.key}.json"] = cmd.key
    return w


# ---------------------------------------------------------------------------
# running commands


class Runner:
    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.work = work
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.env["PYTHONPATH"] = self.src
        # commands import cached bytecode, as an installed package does
        for var in ("REVKIT_BACKEND", "REVKIT_LOG", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self.calls = 0

    def child(self, mode: str, argv: list, trace: bool = False, reference: bool = False) -> dict:
        self.calls += 1
        result = os.path.join(self.work, f"child-{self.calls}.json")
        errors = os.path.join(self.work, f"child-{self.calls}.err")
        spec = {"mode": mode, "argv": argv, "trace": trace, "reference": reference,
                "src": self.src, "result": result}
        with open(errors, "w") as err:
            spec["t_spawn"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = -9
        out = {"rc": code}
        if code == 0 and os.path.exists(result):
            with open(result, encoding="utf-8") as fh:
                out = json.load(fh)
            os.unlink(result)
        with open(errors, encoding="utf-8", errors="replace") as fh:
            out["stderr"] = fh.read()[-2000:]
        os.unlink(errors)
        return out


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checker:
    """Checks every output of every pass; a failed check fails the output."""

    def __init__(self, name: str, w: Workload, golden: dict | None) -> None:
        self.name = name
        self.w = w
        self.golden = golden
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, output: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{output}: {why}")

    def check(self, out_dir: str, rcs: dict) -> None:
        digests = {}
        for output, key in sorted(self.w.expected.items()):
            if key not in rcs:
                continue  # command not part of this pass
            self.attempted += 1
            path = os.path.join(out_dir, output)
            if rcs[key] != 0:
                self.fail(output, f"command exited {rcs[key]}")
                continue
            if not os.path.exists(path):
                self.fail(output, "missing")
                continue
            digest = digests[output] = sha256(path)
            why = self._content_problem(output, path, digest, digests)
            if why:
                self.fail(output, why)
        for output, digest in digests.items():
            self.first.setdefault(output, digest)

    def _content_problem(self, output: str, path: str, digest: str, digests: dict) -> str | None:
        if self.first.get(output, digest) != digest:
            return "differs from the first pass of this run"
        if output.startswith("align_jobs2/"):
            twin = "align/" + output.split("/", 1)[1]
            if twin in digests and digests[twin] != digest:
                return "--jobs 2 output differs from --jobs 1"
        elif self.golden is not None and self.golden.get(output) != digest:
            return "differs from the golden digest for this seed"
        if output.startswith("align") and self.name != "edits":
            arxiv_id, versions = os.path.basename(output)[:-5].rsplit(".v", 1)
            src_v, tgt_v = (int(v.lstrip("v")) for v in versions.split("-"))
            with open(path, encoding="utf-8") as fh:
                pairs = json.load(fh)["pairs"]
            if self.w.gen.shared.get((arxiv_id, src_v, tgt_v), 0) > 0 and not pairs:
                return "no aligned pairs although the versions share sentences"
        if output == "stats/summary.json":
            with open(path, encoding="utf-8") as fh:
                if json.load(fh)["pairs"] != self.w.gen.facts["version_pairs"]:
                    return "summary does not cover every version pair"
        return None


def run_pass(runner: Runner, w: Workload, out: str, trace: bool = False, reference: bool = False) -> dict:
    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)
    started = time.monotonic()
    results = {}
    for cmd in w.cmds:
        if trace and not cmd.traced:
            continue
        results[cmd.key] = runner.child("cli", cmd.argv, trace=trace, reference=reference)
    return {"results": results, "wall_s": time.monotonic() - started}


# ---------------------------------------------------------------------------
# statistics


def tail(values: list) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples
    beyond it, and its value; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * n))
    return q, ordered[rank - 1]


def describe(values: list) -> str:
    t = tail(values)
    median = statistics.median(values)
    tail_text = f"p{t[0]}={t[1]:.4f}" if t else "tail n/a (n<20)"
    return f"median={median:.4f} {tail_text} n={len(values)}"


# ---------------------------------------------------------------------------
# workloads


def environment() -> dict:
    def version(mod: str) -> str:
        try:
            return __import__(mod).__version__
        except ImportError:
            return "absent"

    import importlib.util

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "threads_pinned": ",".join(THREAD_VARS),
    }


def load_golden(workload: str, size: str, seed: int) -> dict | None:
    if size != "full" or not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def timed_run(runner, w, checker, seconds, report) -> dict:
    """Passes until the budget is spent; end-to-end metrics are medians.

    Every command runs the fixed reference job right after its work, in
    the same process.  Its set-up and command times are scaled by
    REFERENCE_NOMINAL_S over that reference time, which states them at
    the nominal host speed; medians are taken over the scaled values.
    The raw medians are printed too."""
    setup, setup_adj, ref, pass_s, pass_adj, pass_rss, walls = [], [], [], [], [], [], []
    per_cmd: dict = {}
    per_cmd_adj: dict = {}
    out = os.path.join(runner.work, "out")
    started = time.monotonic()
    while True:
        p = run_pass(runner, w, out, reference=True)
        checker.check(out, {k: r["rc"] for k, r in p["results"].items()})
        ok = [(cmd, p["results"][cmd.key]) for cmd in w.cmds if p["results"][cmd.key]["rc"] == 0]
        sums: dict = {}
        sums_adj: dict = {}
        for cmd, r in ok:
            speed = REFERENCE_NOMINAL_S / r["reference_s"]
            ref.append(r["reference_s"])
            setup.append(r["setup_s"])
            setup_adj.append(r["setup_s"] * speed)
            sums[cmd.metric] = sums.get(cmd.metric, 0.0) + r["cmd_s"]
            sums_adj[cmd.metric] = sums_adj.get(cmd.metric, 0.0) + r["cmd_s"] * speed
        for metric, value in sums.items():
            per_cmd.setdefault(metric, []).append(value)
            per_cmd_adj.setdefault(metric, []).append(sums_adj[metric])
        if len(ok) == len(w.cmds):
            pass_s.append(sum(sums.values()))
            pass_adj.append(sum(sums_adj.values()))
            pass_rss.append(max(r["rss_mb"] for _, r in ok))
        walls.append(p["wall_s"])
        if time.monotonic() - started + statistics.median(walls) > seconds:
            break
    if not pass_s:
        raise RuntimeError("no pass completed without a failing command")
    report.append(f"passes: {len(walls)} in {time.monotonic() - started:.1f} s; "
                  "raw times, then the median scaled to nominal host speed")
    report.append(f"  reference [s]: {describe(ref)}")
    report.append(f"  setup_s [s]: {describe(setup)}; scaled {statistics.median(setup_adj):.4f}")
    for metric, values in per_cmd.items():
        report.append(f"  {metric} [s]: {describe(values)}; scaled {statistics.median(per_cmd_adj[metric]):.4f}")
    report.append(f"  pass_s [s]: {describe(pass_s)}; scaled {statistics.median(pass_adj):.4f}; passes: "
                  + " ".join(f"{v:.3f}" for v in pass_s))
    report.append(f"  peak_rss_mb [MB]: {describe(pass_rss)}")
    return {
        "setup_s": statistics.median(setup_adj),
        "pass_s": statistics.median(pass_adj),
        "peak_rss_mb": statistics.median(pass_rss),
        "_per_cmd": {m: statistics.median(v) for m, v in per_cmd.items()},
    }


def traced_run(runner, name, w, checker, report) -> dict:
    out = os.path.join(runner.work, "out")
    untraced = run_pass(runner, w, out, reference=True)
    checker.check(out, {k: r["rc"] for k, r in untraced["results"].items()})
    passes = []
    for _ in range(2):
        p = run_pass(runner, w, out, trace=True, reference=True)
        checker.check(out, {k: r["rc"] for k, r in p["results"].items()})
        if name == "edits":
            # rule-based intentions over the simple method's edits; no command reaches them
            probe = runner.child("intention", [w.gen.corpus, os.path.join(out, "extract_simple.json")],
                                 trace=True)
            checker.attempted += 1
            if probe["rc"] != 0:
                checker.fail("intention probe", probe["stderr"][-300:])
            p["results"]["intention_probe"] = probe
        passes.append(p)
    (times, counts, pair_s), (_, counts2, pair_s2) = (layer_view(p) for p in passes)

    def exact(c: dict) -> dict:
        return {k: v for k, v in c.items() if not k.startswith("~") and not k.endswith("_s")}

    checker.attempted += 1
    if exact(counts) != exact(counts2):
        diff = sorted(k for k in set(counts) | set(counts2) if counts.get(k) != counts2.get(k))
        checker.fail("trace counts", f"differ between the two traced passes: {diff}")

    payload = runner.child("payload", [w.gen.corpus])
    checker.attempted += 1
    if payload["rc"] != 0:
        checker.fail("payload probe", payload["stderr"][-300:])

    # degenerate inputs, untimed: each one that aborts a whole command counts
    aborts = 0
    for case, corpus in gen.generate_degenerate(runner.work).items():
        d = os.path.join(runner.work, "degenerate", case)
        rc = runner.child("cli", ["align", "--corpus", corpus, "--out", f"{d}/align"])["rc"]
        if rc == 0:
            rc = runner.child("cli", ["stats", "--corpus", corpus, "--alignments", f"{d}/align",
                                      "--out", f"{d}/stats"])["rc"]
        aborts += rc != 0
        report.append(f"degenerate input {case}: {'aborts the whole run' if rc else 'handled'}")

    def cmd_time(p, keys) -> float:
        """Command time at nominal host speed, as in timed_run."""
        return sum(r["cmd_s"] * REFERENCE_NOMINAL_S / r["reference_s"]
                   for r in (p["results"][k] for k in keys) if r["rc"] == 0)

    traced_keys = [c.key for c in w.cmds if c.traced]
    base = cmd_time(untraced, traced_keys)
    overhead = (cmd_time(passes[0], traced_keys) + cmd_time(passes[1], traced_keys)) / 2 - base
    report.append(f"traced commands: {', '.join(traced_keys)}; untraced time {base:.3f} s, "
                  f"tracing overhead {overhead:.3f} s")
    pair_ms = [1000 * s for s in pair_s + pair_s2]
    pt = tail(pair_ms)
    sentences = counts.get("corpus.sentences", 0)
    forward = counts.get("sent_align.forward", 0)
    u = untraced["results"]
    m = dict.fromkeys(per_layer_units(), 0)
    m.update(times)
    m.update((k, v) for k, v in counts.items() if k in m)
    m.update({
        "corpus.load_rss_mb": counts.get("~corpus.load_rss_mb", 0.0),
        "corpus.alignable_share": counts.get("corpus.alignable", 0) / sentences if sentences else 0.0,
        "sent_align.kept_share": counts.get("sent_align.pairs", 0) / forward if forward else 0.0,
        "align.pair_ms_p50": statistics.median(pair_ms) if pair_ms else 0.0,
        "align.pair_ms_tail": pt[1] if pt else 0.0,
        "align.pair_ms_tail_pct": pt[0] if pt else 0,
        "align.pair_n": len(pair_ms),
        "cli.payload_mb": payload.get("payload_mb", 0.0),
        "cli.jobs2_speedup": (cmd_time(untraced, ["align"]) / cmd_time(untraced, ["align_jobs2"])
                              if "align_jobs2" in u else 0.0),
        "cli.degenerate_aborts": aborts,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / base if base else 0.0,
    })
    return m


def layer_view(p: dict) -> tuple[dict, dict, list]:
    """Self times, counts and per-pair align times of one traced pass,
    summed over its steps; failed steps are already counted as failures."""
    times: dict = {}
    counts: dict = {}
    pair_s: list = []
    for key, r in p["results"].items():
        if r["rc"] != 0:
            continue
        t, c, ps = tracer.summarize(r["spans"])
        for k, v in t.items():
            times[k] = times.get(k, 0.0) + v
        for k, v in c.items():
            if k == "edits.emitted":
                k = f"edits.emitted.{key.split('_', 1)[1]}"
            elif k == "edits.links" and key != "extract_simple":
                continue  # the parse method reads the same file again
            counts[k] = max(counts.get(k, 0.0), v) if k.startswith("~") else counts.get(k, 0) + v
        pair_s.extend(ps)
    return times, counts, pair_s


def prepare(root: str, name: str, seed: int, size: str, work: str) -> tuple[Runner, Workload]:
    """A fresh work directory with the seed's inputs, and the runner."""
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    g = gen.generate(name, seed, size, os.path.join(work, "input"))
    return Runner(root, work), build_workload(name, g, os.path.join(work, "out"))


def cleanup(root: str, work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.join(root, WORK_ROOT))
    except OSError:
        pass  # another run still uses it


def run(args, root: str) -> tuple[dict, list]:
    """Returns the result object and the human-readable report lines."""
    work = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.size}-s{args.seed}-{os.getpid()}")
    report: list[str] = []
    try:
        env = environment()
        env["loadavg_before"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
        runner, w = prepare(root, args.workload, args.seed, args.size, work)
        golden = load_golden(args.workload, args.size, args.seed)
        checker = Checker(args.workload, w, golden)
        report.append(f"workload {args.workload} seed {args.seed} size {args.size}: "
                      + ", ".join(f"{k}={v}" for k, v in w.gen.facts.items()))
        report.append("golden digests: " + ("recorded for this seed" if golden
                                             else "not recorded for this seed; checking determinism only"))
        warm = runner.child("import", [])  # compiles bytecode, warms the file cache
        if warm["rc"] != 0:
            raise RuntimeError(f"cannot import revkit: {warm.get('stderr', '')}")
        if args.trace:
            metrics = traced_run(runner, args.workload, w, checker, report)
        else:
            metrics = timed_run(runner, w, checker, args.seconds, report)
            per_cmd = metrics.pop("_per_cmd")
            if args.workload == "c40" and "align_jobs2_s" in per_cmd:
                report.append(f"  cli.jobs2_speedup [ratio]: "
                              f"{per_cmd['align_s'] / per_cmd['align_jobs2_s']:.3f}")
        env["loadavg_after"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
        report.append("env: " + json.dumps(env, sort_keys=True))
        share = checker.failed / checker.attempted if checker.attempted else 1.0
        report.append(f"failed_op_share [ratio]: {share:.4f} ({checker.failed}/{checker.attempted})")
        report.extend(f"FAILED {p}" for p in checker.problems)
        units = dict(END_TO_END) if not args.trace else per_layer_units()
        result = {
            "correct": checker.failed == 0 and checker.attempted > 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        if not args.trace:
            report.extend(f"{k} [{u}]: {metrics[k]:.4f} (host-speed adjusted)" if u == "s"
                          else f"{k} [{u}]: {metrics[k]:.4f}" for k, u in END_TO_END)
        return result, report
    finally:
        cleanup(root, work)


def per_layer_units() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# ---------------------------------------------------------------------------
# maintenance modes


def record_golden(root: str, workloads: list, seeds: list) -> int:
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    for name in workloads:
        for seed in seeds:
            work = os.path.join(root, WORK_ROOT, f"golden-{name}-{seed}-{os.getpid()}")
            try:
                runner, w = prepare(root, name, seed, "full", work)
                out = os.path.join(work, "out")
                checker = Checker(name, w, None)
                p = run_pass(runner, w, out)
                checker.check(out, {k: r["rc"] for k, r in p["results"].items()})
                if checker.failed:
                    print(f"{name} seed {seed}: {checker.problems}", file=sys.stderr)
                    return 1
                data.setdefault(name, {})[str(seed)] = {
                    o: d for o, d in sorted(checker.first.items()) if not o.startswith("align_jobs2/")
                }
                print(f"{name} seed {seed}: {len(checker.first)} outputs recorded")
            finally:
                cleanup(root, work)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def self_test(root: str) -> int:
    """Tiny-size runs through the same code path: every metric of
    BENCHMARK.json must be printed with its unit, and the benchmark must
    refuse to run where the program's sources are missing."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl["name"], "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=root, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                problems.append(f"{wl['name']} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{wl['name']} trace {trace}: outputs failed checks")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{wl['name']} trace {trace}: {m['name']} [{m['unit']}] missing")
            print(f"self-test {wl['name']} trace {trace}: {len(result['metrics'])} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    bare = os.path.join(root, WORK_ROOT, f"bare-{os.getpid()}")
    os.makedirs(bare, exist_ok=True)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", bench["workloads"][0]["name"],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the program's sources")
    finally:
        cleanup(root, bare)
    for p in problems:
        print("SELF-TEST FAILED:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-golden", metavar="SEEDS", help="seed range such as 0-24")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "revkit", "cli.py")):
        print("perfbench: run from the repository root; src/revkit is missing", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.record_golden:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return record_golden(root, names, _seed_range(args.record_golden))
    if args.workload is None:
        ap.error("--workload is required")
    result, report = run(args, root)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
