#!/usr/bin/env python3
"""yukta-audit: compile-commands-driven determinism & layering analysis.

A second, deeper static-analysis pass that complements yukta-lint:
where the linter greps files, the auditor consumes
build/compile_commands.json, so it sees exactly the translation units
CI compiles, the flags they compile with, and the project include
graph they pull in.

Analyses:

  layering          every #include edge between project files must be
                    declared in the layer DAG (tools/analyze/
                    layers.toml).  Back-edges (including a layer that
                    is not strictly below you) and skip-layer includes
                    (a layer below you that your layer has not
                    declared as a direct dependency) are both errors.
                    The observed layer graph can be emitted as DOT
                    (--dot) and pinned against a golden edge list
                    (--graph-golden).

  determinism       fleet/sweep results are a pure function of config,
                    bit-identical for 1-vs-N workers.  Sources of
                    hidden nondeterminism are banned in simulation
                    code:
                      unordered-iter   unordered_map/unordered_set
                                       (iteration order is
                                       implementation-defined; allow()
                                       only for construct-and-lookup
                                       use that never iterates)
                      ptr-key          ordered containers keyed by
                                       pointer (ASLR-dependent order)
                      ptr-hash         std::hash of a pointer type
                      static-state     mutable function-local static /
                                       thread_local state outside
                                       core+runner
                      random-device    std::random_device (seeds must
                                       come from config)
                      getenv           environment reads outside
                                       runner+tools
                      dir-iter         directory iteration (readdir
                                       order); allow() when the result
                                       is sorted before use

  fp-reproducibility  per-TU compile flags are audited for
                    -ffast-math / -Ofast / -ffp-contract=fast /
                    -march=native drift and for a missing required
                    -ffp-contract=off (fp-flags, fp-drift), and the
                    sources for std::reduce / parallel execution
                    policies (fp-reduce) and float narrowing inside
                    the double pipeline (float-acc).

  stale-suppression every `yukta-lint: allow(...)` and
                    `yukta-audit: allow(...)` annotation must still
                    mask a live finding; an annotation that suppresses
                    nothing is itself an error, so suppressions cannot
                    outlive the code they excused.

  orphan-header     every src/**/*.h must be #included by some
                    repository file outside tests/ other than its own
                    .cpp; a header only tests reach is test support
                    and belongs under tests/support/.

Suppressions:
  // yukta-audit: allow(<rule>)        on the offending line or the
                                       line above
  // yukta-audit: allow-file(<rule>)   anywhere: whole file

Usage:
  tools/analyze/yukta_audit.py [options]
    --repo DIR           repository root (default: auto-detected)
    --compdb FILE        compile_commands.json (default:
                         <repo>/build/compile_commands.json)
    --layers FILE        layer config (default: tools/analyze/layers.toml)
    --dot FILE           write the observed layer graph as DOT
    --emit-graph         print the observed layer edge list and exit
    --graph-golden FILE  fail unless the observed layer edge list
                         matches FILE exactly
    --sarif FILE         write findings as SARIF 2.1.0
    --self-test          run against tools/analyze/fixtures/ and exit

Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

import argparse
import fnmatch
import json
import os
import re
import sys
import tomllib

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "lint"))
import yukta_lint as lint  # noqa: E402  (shared strip/FileContext/rules)

AUDIT_RULES = (
    "layering",
    "unordered-iter",
    "ptr-key",
    "ptr-hash",
    "static-state",
    "random-device",
    "getenv",
    "dir-iter",
    "fp-flags",
    "fp-drift",
    "fp-reduce",
    "float-acc",
    "stale-suppression",
    "orphan-header",
)

ALLOW_LINE_RE = re.compile(r"yukta-audit:\s*allow\(([\w,-]+)\)")
ALLOW_FILE_RE = re.compile(r"yukta-audit:\s*allow-file\(([\w,-]+)\)")

RULE_HELP = {
    "unordered-iter":
        "unordered container: iteration order is implementation-"
        "defined and breaks 1-vs-N digest identity; use std::map/"
        "std::set or a sorted vector, or annotate a construct-and-"
        "lookup-only use",
    "ptr-key":
        "ordered container keyed by pointer: ASLR makes the order "
        "differ across runs; key by a stable id instead",
    "ptr-hash":
        "std::hash of a pointer hashes the address, which differs "
        "across runs; hash a stable id instead",
    "static-state":
        "mutable static/thread_local state is hidden cross-run "
        "coupling; thread it through explicit config/state objects, "
        "or annotate a deliberate process-wide singleton",
    "random-device":
        "std::random_device draws from the OS entropy pool; all "
        "randomness must come from config-carried seeds",
    "getenv":
        "environment read outside runner/tools makes the run a "
        "function of the process environment, not the config",
    "dir-iter":
        "directory iteration order is filesystem-dependent; sort the "
        "entries before use and annotate, or enumerate from config",
    "fp-reduce":
        "std::reduce / parallel execution policies reassociate "
        "floating-point reductions nondeterministically; use "
        "std::accumulate or an explicit loop",
    "float-acc":
        "float narrowing inside the double-precision pipeline loses "
        "bits silently; keep accumulators and temporaries double",
}


class Finding:
    """One audit finding at a file/line."""

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------
# Layer configuration
# --------------------------------------------------------------------

class LayerConfig:
    """Parsed layers.toml: the layer DAG, path overrides, harness
    directories, and per-rule scoping."""

    def __init__(self, data):
        self.deps = {}
        for name, spec in data.get("layers", {}).items():
            self.deps[name] = list(spec.get("deps", []))
        for name, deps in self.deps.items():
            for d in deps:
                if d not in self.deps:
                    raise ValueError(
                        f"layer '{name}' depends on undeclared layer '{d}'")
        self.overrides = list(data.get("overrides", {}).items())
        self.harness = tuple(data.get("harness", []))
        rules = data.get("rules", {})
        self.rule_exempt = {
            name: tuple(spec.get("exempt", []))
            for name, spec in rules.items()}
        self.rule_scope = {
            name: tuple(spec.get("scope", []))
            for name, spec in rules.items() if "scope" in spec}
        self.banned_flags = tuple(
            rules.get("fp-flags", {}).get("banned", []))
        self.required_flags = tuple(
            rules.get("fp-flags", {}).get("required", []))
        self._check_acyclic()
        self._below = self._transitive_below()

    def _check_acyclic(self):
        state = {}  # 0 visiting, 1 done

        def visit(n, stack):
            if state.get(n) == 1:
                return
            if state.get(n) == 0:
                cycle = " -> ".join(stack + [n])
                raise ValueError(f"layer DAG has a cycle: {cycle}")
            state[n] = 0
            for d in self.deps.get(n, ()):
                visit(d, stack + [n])
            state[n] = 1

        for n in self.deps:
            visit(n, [])

    def _transitive_below(self):
        below = {}

        def walk(n):
            if n in below:
                return below[n]
            acc = set()
            for d in self.deps.get(n, ()):
                acc.add(d)
                acc |= walk(d)
            below[n] = acc
            return acc

        for n in self.deps:
            walk(n)
        return below

    def layer_of(self, rel):
        """Maps a repo-relative path to a layer name, 'harness', or
        None (outside the audited tree)."""
        norm = rel.replace(os.sep, "/")
        for pattern, layer in self.overrides:
            if fnmatch.fnmatch(norm, pattern):
                return layer
        parts = norm.split("/")
        if parts[0] in self.harness:
            return "harness"
        if parts[0] == "src" and len(parts) > 1:
            return parts[1]
        return None

    def strictly_below(self, layer, other):
        return other in self._below.get(layer, set())


def load_layers(path):
    with open(path, "rb") as f:
        return LayerConfig(tomllib.load(f))


# --------------------------------------------------------------------
# compile_commands.json + include graph
# --------------------------------------------------------------------

def load_compdb(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def command_args(entry):
    if "arguments" in entry:
        return list(entry["arguments"])
    # shlex-lite: the exported commands never quote paths with spaces.
    return entry.get("command", "").split()


def include_dirs(entry):
    dirs = []
    args = command_args(entry)
    i = 0
    while i < len(args):
        a = args[i]
        if a == "-I" and i + 1 < len(args):
            dirs.append(args[i + 1])
            i += 2
            continue
        if a.startswith("-I"):
            dirs.append(a[2:])
        i += 1
    base = entry.get("directory", "")
    return [d if os.path.isabs(d) else os.path.join(base, d)
            for d in dirs]


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


class IncludeGraph:
    """Project-file include edges reachable from the compdb TUs."""

    def __init__(self, repo):
        self.repo = repo
        self.files = {}      # rel -> text
        self.edges = set()   # (from_rel, line, to_rel)

    def _rel(self, path):
        path = os.path.realpath(path)
        repo = os.path.realpath(self.repo)
        if not path.startswith(repo + os.sep):
            return None
        return os.path.relpath(path, repo)

    def _read(self, rel):
        if rel not in self.files:
            with open(os.path.join(self.repo, rel), encoding="utf-8",
                      errors="replace") as f:
                self.files[rel] = f.read()
        return self.files[rel]

    def add_tu(self, entry):
        rel = self._rel(entry["file"])
        if rel is None:
            return
        incdirs = include_dirs(entry)
        seen_here = set()
        stack = [rel]
        while stack:
            cur = stack.pop()
            if cur in seen_here:
                continue
            seen_here.add(cur)
            try:
                text = self._read(cur)
            except OSError:
                continue
            cur_dir = os.path.join(self.repo, os.path.dirname(cur))
            for m in INCLUDE_RE.finditer(text):
                target = m.group(1)
                line = text.count("\n", 0, m.start()) + 1
                resolved = None
                for base in [cur_dir] + incdirs:
                    cand = os.path.join(base, target)
                    if os.path.isfile(cand):
                        resolved = self._rel(cand)
                        break
                if resolved is None:
                    continue
                self.edges.add((cur, line, resolved))
                stack.append(resolved)


def check_layering(graph, cfg, findings):
    """Validates every include edge against the declared DAG and
    returns the observed layer-level edge set."""
    observed = set()
    for src_rel, line, dst_rel in sorted(graph.edges):
        src_layer = cfg.layer_of(src_rel)
        dst_layer = cfg.layer_of(dst_rel)
        if src_layer is None or dst_layer is None:
            continue
        if src_layer == "harness":
            continue  # harnesses may see everything
        if dst_layer == "harness":
            findings.append(Finding(
                src_rel, line, "layering",
                f"src layer '{src_layer}' includes harness file "
                f"{dst_rel}; nothing may depend on tests/bench"))
            continue
        if src_layer not in cfg.deps:
            findings.append(Finding(
                src_rel, line, "layering",
                f"file maps to undeclared layer '{src_layer}'; add it "
                f"to tools/analyze/layers.toml"))
            continue
        if dst_layer not in cfg.deps:
            findings.append(Finding(
                src_rel, line, "layering",
                f"include of undeclared layer '{dst_layer}' "
                f"({dst_rel}); add it to tools/analyze/layers.toml"))
            continue
        if src_layer != dst_layer:
            observed.add((src_layer, dst_layer))
        if dst_layer == src_layer or dst_layer in cfg.deps[src_layer]:
            continue
        if cfg.strictly_below(src_layer, dst_layer):
            findings.append(Finding(
                src_rel, line, "layering",
                f"skip-layer include: '{src_layer}' -> '{dst_layer}' "
                f"({dst_rel}) is below but not a declared direct "
                f"dependency; add it to layers.toml or route through "
                f"a declared layer"))
        else:
            findings.append(Finding(
                src_rel, line, "layering",
                f"layer back-edge: '{src_layer}' may not include "
                f"'{dst_layer}' ({dst_rel}); declared deps: "
                f"{sorted(cfg.deps[src_layer])}"))
    return observed


def graph_lines(observed):
    return [f"{a} -> {b}" for a, b in sorted(observed)]


def write_dot(observed, cfg, path):
    lines = ["digraph yukta_layers {", "    rankdir=BT;",
             "    node [shape=box, fontname=\"monospace\"];"]
    for layer in sorted(cfg.deps):
        lines.append(f"    \"{layer}\";")
    for a, b in sorted(observed):
        lines.append(f"    \"{a}\" -> \"{b}\";")
    # Declared-but-unused edges, dashed: the contract is wider than
    # the current graph.
    for layer, deps in sorted(cfg.deps.items()):
        for d in sorted(deps):
            if (layer, d) not in observed:
                lines.append(f"    \"{layer}\" -> \"{d}\" "
                             f"[style=dashed, color=gray];")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------
# Determinism / FP source rules
# --------------------------------------------------------------------

UNORDERED_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")
PTR_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+\s*\*")
PTR_HASH_RE = re.compile(r"\bstd\s*::\s*hash\s*<[^<>]*\*\s*>")
RANDOM_DEVICE_RE = re.compile(r"\bstd\s*::\s*random_device\b"
                              r"|(?<!\w)random_device\s+\w")
GETENV_RE = re.compile(r"\b(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")
DIR_ITER_RE = re.compile(
    r"\b(?:recursive_)?directory_iterator\b|\breaddir(?:_r)?\s*\(")
FP_REDUCE_RE = re.compile(r"\bstd\s*::\s*reduce\b"
                          r"|\bstd\s*::\s*execution\s*::")
FLOAT_RE = re.compile(r"\bfloat\b")
STATIC_STATE_RE = re.compile(r"^\s*(?:inline\s+)?"
                             r"(static|thread_local)\b"
                             r"(?:\s+(?:inline|static|thread_local))*"
                             r"(?P<rest>[^;{=()]*)")
CONST_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")


class AuditContext(lint.FileContext):
    """FileContext with yukta-audit allow markers (and a switch that
    ignores them, for the staleness re-run)."""

    def __init__(self, path, rel, honor_allows=True):
        super().__init__(path, rel)
        self.honor_allows = honor_allows
        self.audit_file_allows = set()
        for m in ALLOW_FILE_RE.finditer(self.text):
            self.audit_file_allows.update(m.group(1).split(","))

    def audit_allowed(self, rule, line_no):
        if not self.honor_allows:
            return False
        if rule in self.audit_file_allows:
            return True
        for no in (line_no, line_no - 1):
            if 1 <= no <= len(self.raw_lines):
                m = ALLOW_LINE_RE.search(self.raw_lines[no - 1])
                if m and rule in m.group(1).split(","):
                    return True
        return False


def rule_applies(cfg, rule, rel):
    norm = rel.replace(os.sep, "/")
    scope = cfg.rule_scope.get(rule)
    if scope is not None and not norm.startswith(scope):
        return False
    if norm.startswith(cfg.rule_exempt.get(rule, ())):
        return False
    return True


def check_determinism(ctx, cfg, findings):
    simple = (
        ("unordered-iter", UNORDERED_RE),
        ("ptr-key", PTR_KEY_RE),
        ("ptr-hash", PTR_HASH_RE),
        ("random-device", RANDOM_DEVICE_RE),
        ("getenv", GETENV_RE),
        ("dir-iter", DIR_ITER_RE),
        ("fp-reduce", FP_REDUCE_RE),
        ("float-acc", FLOAT_RE),
    )
    for idx, line in enumerate(ctx.code_lines, start=1):
        for rule, pattern in simple:
            if not pattern.search(line):
                continue
            if not rule_applies(cfg, rule, ctx.rel):
                continue
            if ctx.audit_allowed(rule, idx):
                continue
            findings.append(Finding(ctx.rel, idx, rule, RULE_HELP[rule]))
        m = STATIC_STATE_RE.match(line)
        if m and rule_applies(cfg, "static-state", ctx.rel):
            rest = m.group("rest")
            # `static const ...` tables and `static Foo bar(...)`
            # function declarations/definitions are fine; mutable data
            # declarations (`static T x;`, `static T x = ...`,
            # `static T x{...}`) are the finding.
            tail = line[m.start("rest"):]
            declarator = re.split(r"[=;{]", tail, maxsplit=1)[0]
            is_function = "(" in declarator
            if not CONST_RE.search(rest) and not is_function \
                    and not ctx.audit_allowed("static-state", idx):
                findings.append(Finding(
                    ctx.rel, idx, "static-state",
                    RULE_HELP["static-state"]))


def effective_flag(args, flag):
    """@return whether @p flag is in force for a TU built with @p args:
    for an -opt=value flag, the last -opt= on the line must be it."""
    if "=" not in flag:
        return flag in args
    opt = flag.split("=", 1)[0] + "="
    last = [a for a in args if a.startswith(opt)]
    return bool(last) and last[-1] == flag


def check_fp_flags(entries, repo, cfg, findings):
    """Per-TU flag audit (banned and required flags) + cross-TU FP
    flag drift."""
    fp_prefixes = ("-ffast-math", "-fno-fast-math", "-Ofast",
                   "-ffp-contract", "-funsafe-math-optimizations",
                   "-march", "-mfpmath", "-mtune", "-frounding-math")
    tu_flags = {}
    repo_real = os.path.realpath(repo)
    for entry in entries:
        path = os.path.realpath(entry["file"])
        if not path.startswith(repo_real + os.sep):
            continue
        rel = os.path.relpath(path, repo_real)
        args = command_args(entry)
        fp = sorted({a for a in args if a.startswith(fp_prefixes)})
        tu_flags[rel] = fp
        for flag in args:
            if flag in cfg.banned_flags:
                findings.append(Finding(
                    rel, 1, "fp-flags",
                    f"TU compiled with '{flag}': value-changing FP "
                    f"optimization breaks cross-host bit-"
                    f"reproducibility; remove it from the build"))
        for flag in cfg.required_flags:
            if not effective_flag(args, flag):
                findings.append(Finding(
                    rel, 1, "fp-flags",
                    f"TU compiled without '{flag}': FP results then "
                    f"depend on the target ISA (e.g. FMA contraction); "
                    f"add it to the build"))
    if tu_flags:
        variants = {}
        for rel, fp in tu_flags.items():
            variants.setdefault(tuple(fp), []).append(rel)
        if len(variants) > 1:
            majority = max(variants, key=lambda k: len(variants[k]))
            for fp, rels in sorted(variants.items()):
                if fp == majority:
                    continue
                for rel in sorted(rels):
                    findings.append(Finding(
                        rel, 1, "fp-drift",
                        f"FP-relevant flags {list(fp)} differ from the "
                        f"tree majority {list(majority)}; one TU with "
                        f"different FP semantics poisons bit-identity"))


# --------------------------------------------------------------------
# Stale-suppression analysis
# --------------------------------------------------------------------

class NoAllowContext(lint.FileContext):
    """yukta-lint FileContext that ignores every suppression, so the
    re-run reports what each annotation currently masks."""

    def allowed(self, rule, line_no):
        return False


def lint_findings_unsuppressed(path, rel, src_root):
    ctx = NoAllowContext(path, rel)
    found = []
    lint.check_patterns(ctx, found)
    lint.check_endl_in_loop(ctx, found)
    top = rel.split(os.sep, 1)[0]
    if top == "src" and rel.endswith(".h"):
        lint.check_header_guard(ctx, src_root, found)
        lint.check_doc_comments(ctx, found)
    return found


def audit_findings_unsuppressed(path, rel, cfg):
    ctx = AuditContext(path, rel, honor_allows=False)
    found = []
    check_determinism(ctx, cfg, found)
    return found


ANNOT_RE = re.compile(
    r"yukta-(lint|audit):\s*(allow|allow-file)\(([\w,-]+)\)")

# Rules whose findings this pass cannot recompute line-accurately;
# annotations for them are skipped rather than misreported.
UNCHECKABLE = {"header-self-contained", "layering", "fp-flags",
               "fp-drift", "stale-suppression"}


def check_stale_suppressions(path, rel, src_root, cfg, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    annots = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        for m in ANNOT_RE.finditer(raw):
            tool, kind, rules = m.group(1), m.group(2), m.group(3)
            for rule in rules.split(","):
                annots.append((line_no, tool, kind, rule))
    if not annots:
        return
    lint_found = lint_findings_unsuppressed(path, rel, src_root)
    audit_found = audit_findings_unsuppressed(path, rel, cfg)
    by_tool = {"lint": lint_found, "audit": audit_found}
    known = {"lint": set(lint.RULES), "audit": set(AUDIT_RULES)}
    for line_no, tool, kind, rule in annots:
        if rule in UNCHECKABLE:
            continue
        if rule not in known[tool]:
            findings.append(Finding(
                rel, line_no, "stale-suppression",
                f"annotation allows unknown yukta-{tool} rule "
                f"'{rule}'"))
            continue
        hits = [f for f in by_tool[tool] if f.rule == rule]
        if kind == "allow-file":
            live = bool(hits)
        else:
            # A line marker covers its own line and the next one.
            live = any(f.line in (line_no, line_no + 1) for f in hits)
        if not live:
            findings.append(Finding(
                rel, line_no, "stale-suppression",
                f"suppression 'yukta-{tool}: {kind}({rule})' no "
                f"longer masks a finding; delete it so dead excuses "
                f"cannot accumulate"))


# --------------------------------------------------------------------
# Orphan headers
# --------------------------------------------------------------------

SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")


def non_test_sources(root):
    """Yields the root-relative C++ files outside tests/, hidden
    directories and CMake build trees."""
    for dirpath, dirnames, filenames in os.walk(root):
        at_top = os.path.samefile(dirpath, root)
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".")
            and not (at_top and d == "tests")
            and not os.path.isfile(
                os.path.join(dirpath, d, "CMakeCache.txt")))
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def check_orphan_headers(root, findings):
    """Reports each src/**/*.h that no file outside tests/ includes,
    not counting the header's own .cpp."""
    sources = list(non_test_sources(root))
    included = set()
    for rel in sources:
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        for m in INCLUDE_RE.finditer(text):
            for base in (os.path.dirname(rel), "src"):
                target = os.path.normpath(os.path.join(base, m.group(1)))
                if os.path.isfile(os.path.join(root, target)):
                    if os.path.splitext(target)[0] != \
                            os.path.splitext(rel)[0]:
                        included.add(target)
                    break
    for rel in sources:
        if rel.startswith("src" + os.sep) and rel.endswith(".h") \
                and rel not in included:
            findings.append(Finding(
                rel, 1, "orphan-header",
                "no file outside tests/ includes this header; "
                "delete it with the code behind it, or move "
                "test-only code to tests/support/"))


# --------------------------------------------------------------------
# SARIF
# --------------------------------------------------------------------

def write_sarif(findings, path):
    rules_seen = sorted({f.rule for f in findings})
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "yukta-audit",
                "informationUri":
                    "tools/analyze/yukta_audit.py",
                "rules": [{"id": r,
                           "shortDescription": {"text": r}}
                          for r in rules_seen],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace(os.sep, "/")},
                        "region": {"startLine": max(1, f.line)},
                    }}],
            } for f in findings],
        }],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sarif, f, indent=2)
        f.write("\n")


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def audit(repo, compdb_path, layers_path):
    """Runs every analysis; returns (findings, observed layer edges)."""
    findings = []
    try:
        cfg = load_layers(layers_path)
    except (OSError, ValueError, tomllib.TOMLDecodeError) as exc:
        print(f"yukta-audit: bad layer config: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        entries = load_compdb(compdb_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"yukta-audit: cannot load {compdb_path}: {exc} "
              f"(configure the build first: cmake -B build -S .)",
              file=sys.stderr)
        raise SystemExit(2)

    graph = IncludeGraph(repo)
    for entry in entries:
        graph.add_tu(entry)

    observed = check_layering(graph, cfg, findings)
    check_fp_flags(entries, repo, cfg, findings)

    src_root = os.path.join(repo, "src")
    for rel in sorted(graph.files):
        path = os.path.join(repo, rel)
        ctx = AuditContext(path, rel)
        check_determinism(ctx, cfg, findings)
        check_stale_suppressions(path, rel, src_root, cfg, findings)
    check_orphan_headers(repo, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, observed


def find_repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def run_self_test(repo):
    """Audits the fixture tree and asserts the expected outcomes."""
    fixdir = os.path.join(repo, "tools", "analyze", "fixtures")
    tree = os.path.join(fixdir, "tree")
    cfg = load_layers(os.path.join(fixdir, "layers_fixture.toml"))
    ok = True

    def expect(label, cond):
        nonlocal ok
        print(f"self-test: {label:<58} {'ok' if cond else 'FAIL'}")
        ok &= bool(cond)

    # ---- layering over the fixture tree ----------------------------
    entries = []
    for tu in ("src/top/top.cpp", "src/top/skip.cpp",
               "src/low/bad_backedge.cpp"):
        entries.append({
            "directory": tree,
            "file": os.path.join(tree, tu),
            "command": f"c++ -I{os.path.join(tree, 'src')} -c {tu}",
        })
    graph = IncludeGraph(tree)
    for e in entries:
        graph.add_tu(e)
    found = []
    observed = check_layering(graph, cfg, found)
    backedges = [f for f in found if "back-edge" in f.message]
    skips = [f for f in found if "skip-layer" in f.message]
    expect("layer back-edge (low includes top) caught", backedges)
    expect("skip-layer include (top includes low) caught", skips)
    expect("clean edges produce no findings",
           len(found) == len(backedges) + len(skips))
    expect("observed graph contains declared edge top->mid",
           ("top", "mid") in observed)

    # ---- determinism rules -----------------------------------------
    def run_det(name):
        path = os.path.join(fixdir, name)
        ctx = AuditContext(path, os.path.join("src", "det", name))
        out = []
        check_determinism(ctx, cfg, out)
        return out

    bad = run_det("det_bad.cpp")
    got = {f.rule for f in bad}
    want = {"unordered-iter", "ptr-key", "ptr-hash", "static-state",
            "random-device", "getenv", "dir-iter", "fp-reduce",
            "float-acc"}
    for rule in sorted(want):
        expect(f"det_bad triggers {rule}", rule in got)
    expect("det_bad triggers nothing else", not (got - want))

    clean = run_det("det_clean.cpp")
    expect("det_clean has no findings", not clean)
    for f in clean:
        print(f"    {f}")

    suppressed = run_det("det_suppressed.cpp")
    expect("det_suppressed: every finding masked", not suppressed)
    for f in suppressed:
        print(f"    {f}")

    # ---- fp flags + drift ------------------------------------------
    fp_entries = [
        {"directory": tree,
         "file": os.path.join(tree, "src/top/top.cpp"),
         "command": "c++ -O2 -ffast-math -c src/top/top.cpp"},
        {"directory": tree,
         "file": os.path.join(tree, "src/top/skip.cpp"),
         "command": "c++ -O2 -ffp-contract=off -march=native "
                    "-c src/top/skip.cpp"},
        {"directory": tree,
         "file": os.path.join(tree, "src/mid/mid.cpp"),
         "command": "c++ -O2 -ffp-contract=off -c src/mid/mid.cpp"},
        {"directory": tree,
         "file": os.path.join(tree, "src/low/low.cpp"),
         "command": "c++ -O2 -ffp-contract=off -c src/low/low.cpp"},
        {"directory": tree,
         "file": os.path.join(tree, "src/low/bad_backedge.cpp"),
         "command": "c++ -O2 -ffp-contract=off -ffp-contract=on "
                    "-c src/low/bad_backedge.cpp"},
    ]
    fp_found = []
    check_fp_flags(fp_entries, tree, cfg, fp_found)
    expect("-ffast-math TU caught (fp-flags)",
           any(f.rule == "fp-flags" and "ffast-math" in f.message
               for f in fp_found))
    expect("-march=native TU caught (fp-flags)",
           any(f.rule == "fp-flags" and "march=native" in f.message
               for f in fp_found))
    expect("FP flag drift across TUs caught (fp-drift)",
           any(f.rule == "fp-drift" for f in fp_found))
    missing = {f.path for f in fp_found
               if f.rule == "fp-flags" and "without" in f.message}
    expect("TU without required -ffp-contract=off caught (fp-flags)",
           "src/top/top.cpp" in missing)
    expect("TU overriding -ffp-contract=off later caught (fp-flags)",
           "src/low/bad_backedge.cpp" in missing)
    expect("TUs with -ffp-contract=off pass the required check",
           not missing & {"src/top/skip.cpp", "src/mid/mid.cpp",
                          "src/low/low.cpp"})

    # ---- stale suppressions ----------------------------------------
    src_root = os.path.join(fixdir, "src")  # no src headers: ok
    stale = []
    path = os.path.join(fixdir, "stale_suppression.cpp")
    check_stale_suppressions(path, "stale_suppression.cpp", src_root,
                             cfg, stale)
    expect("stale yukta-lint allow caught",
           any("yukta-lint" in f.message for f in stale))
    expect("stale yukta-audit allow caught",
           any("yukta-audit" in f.message for f in stale))
    expect("unknown-rule annotation caught",
           any("unknown" in f.message for f in stale))

    live = []
    path = os.path.join(fixdir, "live_suppression.cpp")
    check_stale_suppressions(path, "live_suppression.cpp", src_root,
                             cfg, live)
    expect("live suppressions produce no staleness findings", not live)
    for f in live:
        print(f"    {f}")

    # ---- orphan headers --------------------------------------------
    orphans = []
    check_orphan_headers(tree, orphans)
    flagged = {f.path for f in orphans}
    expect("header only its .cpp and tests include caught",
           os.path.join("src", "low", "orphan.h") in flagged)
    expect("header included outside tests not flagged",
           os.path.join("src", "low", "low.h") not in flagged)
    expect("orphan-header flags nothing else", len(flagged) == 1)
    for f in orphans:
        print(f"    {f}")

    # ---- cycle detection in the layer config -----------------------
    try:
        LayerConfig({"layers": {"a": {"deps": ["b"]},
                                "b": {"deps": ["a"]}}})
        cycle_caught = False
    except ValueError:
        cycle_caught = True
    expect("layer-DAG cycle rejected", cycle_caught)

    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(prog="yukta-audit", add_help=True)
    ap.add_argument("--repo", default=find_repo_root())
    ap.add_argument("--compdb", default=None)
    ap.add_argument("--layers", default=None)
    ap.add_argument("--dot", default=None)
    ap.add_argument("--emit-graph", action="store_true")
    ap.add_argument("--graph-golden", default=None)
    ap.add_argument("--sarif", default=None)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    repo = os.path.abspath(args.repo)
    if args.self_test:
        return run_self_test(repo)

    compdb = args.compdb or os.path.join(repo, "build",
                                         "compile_commands.json")
    layers = args.layers or os.path.join(repo, "tools", "analyze",
                                         "layers.toml")
    findings, observed = audit(repo, compdb, layers)

    cfg = load_layers(layers)
    if args.dot:
        write_dot(observed, cfg, args.dot)
    if args.emit_graph:
        for line in graph_lines(observed):
            print(line)
        return 0
    if args.graph_golden:
        with open(args.graph_golden, encoding="utf-8") as f:
            golden = [ln.strip() for ln in f
                      if ln.strip() and not ln.startswith("#")]
        got = graph_lines(observed)
        if golden != got:
            print("yukta-audit: layer graph drifted from golden "
                  f"({args.graph_golden}):")
            for line in sorted(set(golden) - set(got)):
                print(f"  - {line}   (expected, now gone)")
            for line in sorted(set(got) - set(golden)):
                print(f"  + {line}   (new edge; review, then re-bless "
                      f"with --emit-graph)")
            return 1

    if args.sarif:
        write_sarif(findings, args.sarif)
    for f in findings:
        print(f)
    if findings:
        print(f"yukta-audit: {len(findings)} finding(s)")
        return 1
    print("yukta-audit: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
