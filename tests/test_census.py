"""A census of what the commands reach.

Every command runs, in one subprocess under sys.setprofile, on inputs
that perfbench/gen.py writes:

* align under every metric, with --jobs 2, with --config and with --compat;
* stats under both kept definitions;
* extract-edits with every method, on a full-size edits input whose
  parse route merges span pairs (edits._merge);
* eval for every task, with both --classes values.

Every def in src/revkit that no command entered must be on ALLOWED,
with the reason it stays.  A def to add or delete shows up here first.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import revkit
from revkit.config import EDIT_METHODS, KEPT_DEFINITIONS
from revkit.similarity import METRIC_NAMES

PACKAGE = Path(revkit.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_BENCHMARK_HOOK = "benchmark hook: perfbench/ calls it, and no command does"
_LIBRARY = "library entry point"
_ERROR_PATH = "error path"
# (module file, qualified name) -> why no command reaches it
ALLOWED = {
    ("cli.py", "_run_share"): "runs only in a forked --jobs child, which the profile does not follow",
    ("corpus.py", "build_group"): _LIBRARY,
    ("corpus.py", "parse_corpus"): _LIBRARY,
    ("corpus.py", "parse_arxivedits_corpus"): _LIBRARY,
    ("corpus.py", "Sentence.build"): _LIBRARY,
    ("corpus.py", "DocVersion.alignable_paragraphs"): _BENCHMARK_HOOK + " (tracer.py counts paragraph blocks)",
    ("intention.py", "classify_edit_rule"): _BENCHMARK_HOOK + " (child.py's intention mode)",
    ("intention.py", "levenshtein"): _BENCHMARK_HOOK + " (a classify_edit_rule helper)",
    ("intention.py", "_is_formatting_token"): _BENCHMARK_HOOK + " (a classify_edit_rule helper)",
    ("intention.py", "_family_words"): _BENCHMARK_HOOK + " (a classify_edit_rule helper)",
    ("trees.py", "TreeNode.__init__"): _BENCHMARK_HOOK + " (tracer.py walks TreeNode.children)",
    ("trees.py", "TreeNode.label"): _BENCHMARK_HOOK + " (part of the TreeNode view)",
    ("trees.py", "TreeNode.span"): _BENCHMARK_HOOK + " (part of the TreeNode view)",
    ("trees.py", "TreeNode.children"): _BENCHMARK_HOOK + " (tracer.py walks TreeNode.children)",
    ("errors.py", "TreeParseError.__init__"): _ERROR_PATH,
    ("trees.py", "_lex"): _ERROR_PATH + " (offsets for a TreeParseError)",
    ("trees.py", "parse_tree_read.fail"): _ERROR_PATH,
}

_CENSUS = r"""
import contextlib, importlib.util, io, json, sys
perfbench, work, out, names = sys.argv[1:]
metrics, kept, methods = json.loads(names)
spec = importlib.util.spec_from_file_location("perfbench_gen", f"{perfbench}/gen.py")
gen = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = gen  # its dataclasses look their module up there
spec.loader.exec_module(gen)
corpus = gen.generate("c40", 0, "tiny", f"{work}/c40").corpus
# seed 4 is the first full-size edits input whose parse route merges span pairs
edits = gen.generate("edits", 4, "full", f"{work}/edits")
f, o = edits.files, f"{work}/out"
with open(f"{work}/run.cfg", "w") as fh:
    fh.write("tau1 = 0.5\n")
runs = [["align", "--corpus", corpus, "--out", f"{o}/{m}", "--metric", m] for m in metrics]
runs += [
    ["align", "--corpus", corpus, "--out", f"{o}/jobs2", "--jobs", "2"],
    ["align", "--corpus", corpus, "--out", f"{o}/config", "--config", f"{work}/run.cfg"],
    ["align", "--corpus", corpus, "--out", f"{o}/compat", "--compat"],
]
runs += [["stats", "--corpus", corpus, "--alignments", f"{o}/jaccard", "--out", f"{o}/stats_{k}",
          "--kept-definition", k] for k in kept]
inputs = {
    "simple": ["--word-alignments", f["pharaoh.txt"]],
    "parse": ["--word-alignments", f["pharaoh.txt"], "--trees-src", f["trees_src.txt"],
              "--trees-tgt", f["trees_tgt.txt"], "--max-level", "2"],
}
runs += [["extract-edits", "--corpus", edits.corpus, "--alignment", f["alignment.json"], "--method", m,
          "--out", f"{o}/{m}.json", *inputs.get(m, [])] for m in methods]
for classes in ("fine", "coarse"):
    runs += [
        ["eval", "--task", "alignment", "--pred", f["alignment_pred.json"], "--gold", f["alignment.json"],
         "--corpus", edits.corpus, "--classes", classes, "--out", f"{o}/alignment_{classes}.json"],
        ["eval", "--task", "edits", "--pred", f"{o}/parse.json", "--gold", f["gold_edits.json"],
         "--classes", classes, "--out", f"{o}/edits_{classes}.json"],
        ["eval", "--task", "intention", "--pred", f["intentions.jsonl"], "--gold", f["gold_edits.json"],
         "--classes", classes, "--out", f"{o}/intention_{classes}.json"],
    ]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from revkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        if main(argv) != 0:
            sys.exit(f"exit code not 0: {argv}")
sys.setprofile(None)
with open(out, "w") as fh:
    json.dump([[c.co_filename, c.co_firstlineno, c.co_name] for c in entered], fh)
"""


def _defs(path: Path) -> dict[tuple[int, str], str]:
    """Every def of a module, keyed by the first line of its code object
    (its first decorator's, if any) and its name, with its qualified name."""
    found = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[first, child.name] = prefix + child.name
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_def_is_reached_by_a_command_or_allowed(tmp_path):
    out = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    names = json.dumps([METRIC_NAMES, KEPT_DEFINITIONS, EDIT_METHODS])
    res = subprocess.run(
        [sys.executable, "-c", _CENSUS, str(PERFBENCH), str(tmp_path / "work"), str(out), names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    entered = {(Path(f).resolve(), line, name) for f, line, name in json.loads(out.read_text())}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for (line, name), qualified in _defs(path).items():
            if (path.resolve(), line, name) not in entered:
                unreached.add((path.name, qualified))
    assert all(ALLOWED.values())
    assert sorted(unreached - set(ALLOWED)) == [], "reached by no command and not allowed"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed, but reached or gone: drop from ALLOWED"
