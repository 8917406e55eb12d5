#!/usr/bin/env python3
"""yukta-lint: project-specific static analysis for the Yukta tree.

Enforces invariants the generic analyzers (clang-tidy, cppcheck)
cannot express:

  header-guard          src headers carry an include guard named after
                        their path (YUKTA_<DIR>_<FILE>_H_).
  header-self-contained every src/**/*.h compiles standalone.
  banned-rand           no rand()/srand(): sweeps must be reproducible,
                        so all randomness goes through seeded <random>
                        engines.
  float-eq              no ==/!= against floating-point literals; use
                        isApprox()/tolerance helpers, or suppress for
                        deliberate exact comparisons (sentinels,
                        sparsity skips).
  cache-bypass          no direct stream writes to cachePath()/
                        cacheDir() targets; the atomicWriteFile helper
                        is the only way bytes may reach the design
                        cache (concurrent writers would otherwise tear
                        files).
  atomic-write          no truncating file writes (ofstream without
                        ios::app, fopen "w") in src/: build the bytes
                        in memory and publish with the tmp+rename
                        core::atomicWriteFile helper, so a crash mid-
                        write (or a concurrent reader) never sees a
                        torn file. Benches/tests/examples stream
                        freely; append-mode logs are exempt.
  endl-in-loop          no std::endl inside loops: one flush per
                        iteration serializes the hot reporting paths.
  sensor-construction   no SensorReadings construction outside the
                        platform and fault layers; controllers must
                        consume board.readings() or the supervisor's
                        validated snapshots, never forge telemetry.
  freq-loop             no pointwise freqResponse() calls inside a
                        loop: grid sweeps go through the batched
                        StateSpace::freqResponseBatch engine (O(n^2)
                        per point after one Hessenberg reduction).
                        Oracle comparisons in tests suppress the rule
                        explicitly.
  wall-clock            no std::chrono::system_clock/steady_clock (or
                        C time()) outside src/obs and src/runner:
                        simulated time must come from tick counts so
                        every run is bit-reproducible. Wall-clock
                        reads are confined to the observability layer
                        (obs::Stopwatch, profiling) and the pool's
                        deadline machinery.
  doc-comment           public functions declared in src headers carry
                        a doc comment.
  state-pair            no save(...StateWriter&) / load(...StateReader&)
                        member in src/: a checkpointed type lists its
                        fields once, in `template <class Io> void
                        state(Io&)`, which both classes instantiate;
                        a mirrored pair drifts apart silently.

Suppressions:
  // yukta-lint: allow(<rule>)        on the offending line
  // yukta-lint: allow-file(<rule>)   anywhere: whole file

Usage:
  tools/lint/yukta_lint.py [options] [paths...]
    --repo DIR     repository root (default: auto-detected)
    --jobs N       parallel header compiles (default: CPU count)
    --no-compile   skip the header-self-contained check
    --compiler CC  compiler for header checks (default: c++)
    --self-test    run the linter against its own fixtures and exit

Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys

RULES = (
    "header-guard",
    "header-self-contained",
    "banned-rand",
    "float-eq",
    "cache-bypass",
    "atomic-write",
    "endl-in-loop",
    "sensor-construction",
    "freq-loop",
    "wall-clock",
    "doc-comment",
    "state-pair",
)

DEFAULT_PATHS = ("src", "bench", "tests", "examples", "tools")
CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".h", ".hpp")

ALLOW_LINE_RE = re.compile(r"yukta-lint:\s*allow\(([\w,-]+)\)")
ALLOW_FILE_RE = re.compile(r"yukta-lint:\s*allow-file\(([\w,-]+)\)")


class Finding:
    """One rule violation at a file/line."""

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving newlines
    and column positions so findings keep exact line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif ch == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif ch == '"':
                state = "string"
                out.append('"')
                i += 1
            elif ch == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(ch)
                i += 1
        elif state == "line-comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if ch == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\" and nxt:
                out.append("  ")
                i += 2
            elif ch == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if ch == "\n" else " ")
                i += 1
    return "".join(out)


class FileContext:
    """Shared per-file data for the line-based rules."""

    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.raw_lines = self.text.splitlines()
        self.code = strip_comments_and_strings(self.text)
        self.code_lines = self.code.splitlines()
        self.file_allows = set()
        for m in ALLOW_FILE_RE.finditer(self.text):
            self.file_allows.update(m.group(1).split(","))

    def allowed(self, rule, line_no):
        if rule in self.file_allows:
            return True
        # The marker may sit on the offending line or the one above.
        for no in (line_no, line_no - 1):
            if 1 <= no <= len(self.raw_lines):
                m = ALLOW_LINE_RE.search(self.raw_lines[no - 1])
                if m and rule in m.group(1).split(","):
                    return True
        return False


# --------------------------------------------------------------------
# Pattern rules
# --------------------------------------------------------------------

RAND_RE = re.compile(r"\b(srand|rand)\s*\(")

FLOAT_LIT = r"[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?[fFlL]?|\.[0-9]+(?:[eE][+-]?[0-9]+)?[fFlL]?"
FLOAT_EQ_RE = re.compile(
    r"(?:(?<![<>=!&|+\-*/%^])(==|!=)\s*[+-]?(?:" + FLOAT_LIT + r"))"
    r"|(?:(?:" + FLOAT_LIT + r")\s*(==|!=)(?![=]))")

CACHE_BYPASS_RE = re.compile(
    r"(ofstream|fopen|freopen|FILE\s*\*)[^;\n]*(cachePath|cacheDir)\s*\(")

# Truncating writes: any ofstream open that is not append-mode, and
# fopen with a "w" mode (checked against the raw line, since string
# literals are blanked in the code view). The rule is line-local; an
# append flag on a continuation line needs a suppression marker.
ATOMIC_OFSTREAM_RE = re.compile(r"\bofstream\b(?![^;\n]*\bapp\b)")
ATOMIC_FOPEN_RE = re.compile(r"\bfopen\s*\(")
ATOMIC_FOPEN_WRITE_MODE_RE = re.compile(r"\"w[b+]*\"")

# Only the durable-artifact producers in src/ are held to the atomic
# publish protocol; bench/test/example drivers stream freely, and the
# helper's own implementation is the one place allowed to open the
# temp file directly.
ATOMIC_WRITE_EXEMPT_PREFIXES = (
    "bench" + os.sep,
    "tests" + os.sep,
    "examples" + os.sep,
)

ENDL_RE = re.compile(r"std\s*::\s*endl")
LOOP_KEYWORD_RE = re.compile(r"\b(for|while|do)\b")

# Pointwise frequency response in a loop; deliberately does not match
# freqResponseBatch. The engine's own implementation is exempt.
FREQ_RESPONSE_RE = re.compile(r"\bfreqResponse\s*\(")
FREQ_LOOP_EXEMPT = (
    os.path.join("src", "control", "state_space.cpp"),
    os.path.join("src", "control", "state_space.h"),
)

# Construction sites only: brace temporaries (`SensorReadings{...}`)
# and named declarations (`SensorReadings obs;` / `obs{...}`). Leaves
# alone references, pointers, value/reference parameters, return
# types on their own line, and copy-initialization from a factory
# (`SensorReadings obs = board.readings()`).
SENSOR_CONSTRUCTION_RE = re.compile(
    r"(?<!struct\s)(?<!class\s)"
    r"\bSensorReadings\b\s*(\{|[A-Za-z_]\w*\s*[;{])")

# The telemetry producers themselves are the only layers allowed to
# build readings from scratch.
SENSOR_EXEMPT_PREFIXES = (
    os.path.join("src", "platform") + os.sep,
    os.path.join("src", "fault") + os.sep,
)

# Wall-clock reads. The chrono alternative matches the clock types
# themselves (declaration or ::now()); the C alternative matches
# time(NULL)/time(nullptr)/time(0)/time(&t) call shapes only. The
# fixed-width lookbehind rejects member calls (`ev.time()`,
# `p->time()`) and identifiers merely ending in `time`, while still
# matching `std::time(` (preceded by ':').
WALL_CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*"
    r"(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|(?<![\w.>])time\s*\(\s*(?:NULL\b|nullptr\b|0\s*\)|&)")

# Only the observability layer (Stopwatch, profiling) and the pool's
# timeout machinery may consult real time; everything else derives
# time from tick counts so runs stay bit-reproducible.
WALL_CLOCK_EXEMPT_PREFIXES = (
    os.path.join("src", "obs") + os.sep,
    os.path.join("src", "runner") + os.sep,
)


# A hand-mirrored checkpoint pair: a save taking a StateWriter or a
# load taking a StateReader. Line-local, like the other pattern rules.
# Helpers named otherwise (saveArx, for an immutable type built
# through its constructor) are not matched.
STATE_PAIR_RE = re.compile(
    r"\b(?:save\s*\([^)]*\bStateWriter\s*&"
    r"|load\s*\([^)]*\bStateReader\s*&)")

# Benches, tests and examples may drive StateWriter/StateReader
# however they like; the one-field-list rule binds the product.
STATE_PAIR_EXEMPT_PREFIXES = (
    "bench" + os.sep,
    "tests" + os.sep,
    "examples" + os.sep,
)


def check_patterns(ctx, findings):
    for idx, line in enumerate(ctx.code_lines, start=1):
        if RAND_RE.search(line) and not ctx.allowed("banned-rand", idx):
            findings.append(Finding(
                ctx.rel, idx, "banned-rand",
                "rand()/srand() breaks sweep reproducibility; use a "
                "seeded <random> engine"))
        if FLOAT_EQ_RE.search(line) and not ctx.allowed("float-eq", idx):
            findings.append(Finding(
                ctx.rel, idx, "float-eq",
                "floating-point ==/!= against a literal; use "
                "isApprox()/tolerances or suppress a deliberate exact "
                "comparison"))
        if CACHE_BYPASS_RE.search(line) and \
                ctx.rel != os.path.join("src", "core", "cache.cpp") and \
                not ctx.allowed("cache-bypass", idx):
            findings.append(Finding(
                ctx.rel, idx, "cache-bypass",
                "direct write to a cache path; route bytes through "
                "core::atomicWriteFile so concurrent writers never see "
                "torn files"))
        raw = ctx.raw_lines[idx - 1] if idx <= len(ctx.raw_lines) else ""
        truncating = ATOMIC_OFSTREAM_RE.search(line) or (
            ATOMIC_FOPEN_RE.search(line)
            and ATOMIC_FOPEN_WRITE_MODE_RE.search(raw))
        if truncating and \
                ctx.rel != os.path.join("src", "core", "cache.cpp") and \
                not ctx.rel.startswith(ATOMIC_WRITE_EXEMPT_PREFIXES) and \
                not ctx.allowed("atomic-write", idx):
            findings.append(Finding(
                ctx.rel, idx, "atomic-write",
                "truncating file write; build the contents in memory "
                "and publish via core::atomicWriteFile (tmp+rename) so "
                "a crash never leaves a torn file, or suppress a "
                "deliberate streaming/append write"))
        if SENSOR_CONSTRUCTION_RE.search(line) and \
                not ctx.rel.startswith(SENSOR_EXEMPT_PREFIXES) and \
                not ctx.allowed("sensor-construction", idx):
            findings.append(Finding(
                ctx.rel, idx, "sensor-construction",
                "SensorReadings constructed outside the platform/fault "
                "layers; consume board.readings() or the supervisor's "
                "validated snapshot instead of forging telemetry"))
        if STATE_PAIR_RE.search(line) and \
                not ctx.rel.startswith(STATE_PAIR_EXEMPT_PREFIXES) and \
                not ctx.allowed("state-pair", idx):
            findings.append(Finding(
                ctx.rel, idx, "state-pair",
                "mirrored save(StateWriter&)/load(StateReader&) pair; "
                "list the fields once in template <class Io> void "
                "state(Io& io) (obs/stateio.h)"))
        if WALL_CLOCK_RE.search(line) and \
                not ctx.rel.startswith(WALL_CLOCK_EXEMPT_PREFIXES) and \
                not ctx.allowed("wall-clock", idx):
            findings.append(Finding(
                ctx.rel, idx, "wall-clock",
                "wall-clock read outside src/obs and src/runner; "
                "simulation code derives time from tick counts so runs "
                "stay bit-reproducible -- use obs::Stopwatch for "
                "measurement or suppress a deliberate use"))


def check_endl_in_loop(ctx, findings):
    """Flags std::endl and pointwise freqResponse() lexically inside a
    for/while/do body."""
    depth_stack = []  # True per '{' frame opened by a loop header
    pending = ""      # code since the last statement boundary
    parens = 0        # ';' inside for(...) headers is not a boundary
    for idx, line in enumerate(ctx.code_lines, start=1):
        if ENDL_RE.search(line) or FREQ_RESPONSE_RE.search(line):
            in_loop = any(depth_stack) or bool(
                LOOP_KEYWORD_RE.search(line))
            if in_loop and ENDL_RE.search(line) and \
                    not ctx.allowed("endl-in-loop", idx):
                findings.append(Finding(
                    ctx.rel, idx, "endl-in-loop",
                    "std::endl flushes every iteration; stream '\\n' "
                    "and flush once after the loop"))
            if in_loop and FREQ_RESPONSE_RE.search(line) and \
                    ctx.rel not in FREQ_LOOP_EXEMPT and \
                    not ctx.allowed("freq-loop", idx):
                findings.append(Finding(
                    ctx.rel, idx, "freq-loop",
                    "pointwise freqResponse() inside a loop; sweep "
                    "grids through StateSpace::freqResponseBatch, or "
                    "suppress for a deliberate oracle comparison"))
        for ch in line:
            if ch == "(":
                parens += 1
                pending += ch
            elif ch == ")":
                parens = max(0, parens - 1)
                pending += ch
            elif ch == "{":
                # Braces inside parentheses are init-lists
                # (`for (double w : {1.0, 2.0})`), not scopes; they
                # must not swallow the loop keyword.
                if parens > 0:
                    pending += ch
                else:
                    depth_stack.append(
                        bool(LOOP_KEYWORD_RE.search(pending)))
                    pending = ""
            elif ch == "}":
                if parens > 0:
                    pending += ch
                else:
                    if depth_stack:
                        depth_stack.pop()
                    pending = ""
            elif ch == ";" and parens == 0:
                pending = ""
            else:
                pending += ch
        pending += " "


# --------------------------------------------------------------------
# Header rules
# --------------------------------------------------------------------

def expected_guard(rel_to_src):
    stem = re.sub(r"[^A-Za-z0-9]", "_", rel_to_src)
    return "YUKTA_" + re.sub(r"_h$", "", stem, flags=re.I).upper() + "_H_"


def check_header_guard(ctx, src_root, findings):
    rel = os.path.relpath(ctx.path, src_root)
    want = expected_guard(rel)
    m = re.search(r"#ifndef\s+(\w+)", ctx.code)
    if not m:
        if not ctx.allowed("header-guard", 1):
            findings.append(Finding(
                ctx.rel, 1, "header-guard",
                f"missing include guard (expected {want})"))
        return
    got = m.group(1)
    if got != want and not ctx.allowed("header-guard", 1):
        findings.append(Finding(
            ctx.rel, 1, "header-guard",
            f"include guard {got} does not match path (expected {want})"))


def compile_header(args):
    """Worker: returns (rel, error-text or None)."""
    path, rel, src_root, compiler = args
    cmd = [compiler, "-std=c++20", "-fsyntax-only", "-x", "c++",
           "-I", src_root, path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
    except (subprocess.TimeoutExpired, OSError) as exc:
        return rel, f"could not run {compiler}: {exc}"
    if proc.returncode != 0:
        first = (proc.stderr.strip() or "compile failed").splitlines()[0]
        return rel, first
    return rel, None


# --------------------------------------------------------------------
# doc-comment rule
# --------------------------------------------------------------------

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "static_assert", "alignas", "alignof", "decltype", "noexcept",
    "throw", "new", "delete", "void", "int", "double", "float", "bool",
    "char", "auto", "do", "else", "case", "default", "using", "typedef",
    "namespace", "template", "typename", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast", "requires", "concept", "assert",
    "defined",
}

ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")
CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)[^;{]*$")


def is_doc_line(raw):
    s = raw.strip()
    return s.startswith("//") or s.startswith("/*") or s.endswith("*/") \
        or s.startswith("*")


def check_doc_comments(ctx, findings):
    """Public function declarations in headers need a doc comment.

    Heuristic parser: tracks class/struct scope + access specifier and
    joins continuation lines. A declaration is documented when the
    previous non-blank line is (part of) a comment, carries a trailing
    ///< comment, or directly follows another documented one-line
    declaration (comment groups over accessor blocks). Operators and
    `= default` / `= delete` declarations are exempt.
    """
    lines = ctx.code_lines
    # (kind, access) per '{' frame; kind in {"ns", "class", "other"}
    scope = []
    prev_documented = False
    prev_was_comment = False
    pending_header = ""  # text preceding an unconsumed '{'
    i = 0
    while i < len(lines):
        code = lines[i]
        raw = ctx.raw_lines[i] if i < len(ctx.raw_lines) else ""
        idx = i + 1
        stripped = code.strip()

        if not stripped:
            if raw.strip():
                # Pure comment line: a following declaration counts as
                # documented.
                prev_was_comment = is_doc_line(raw)
            else:
                # Blank line: the comment no longer attaches, and the
                # accessor group (if any) is broken.
                prev_was_comment = False
                prev_documented = False
            i += 1
            continue

        if ACCESS_RE.match(stripped):
            for fr in reversed(scope):
                if fr[0] == "class":
                    fr[1] = ACCESS_RE.match(stripped).group(1)
                    break
            prev_was_comment = False
            prev_documented = False
            i += 1
            continue

        if stripped.startswith("#") or stripped.startswith("}"):
            for ch in stripped:
                if ch == "{":
                    scope.append(["other", ""])
                elif ch == "}" and scope:
                    scope.pop()
            prev_was_comment = False
            prev_documented = False
            i += 1
            continue

        # Join continuation lines until the statement closes.
        joined = stripped
        j = i
        while not re.search(r"[;{}]\s*$", joined) and j + 1 < len(lines):
            j += 1
            joined += " " + lines[j].strip()
            if j - i > 12:
                break

        documented = (prev_was_comment or is_doc_line(raw)
                      or "///<" in (ctx.raw_lines[j]
                                    if j < len(ctx.raw_lines) else "")
                      or prev_documented)

        public_scope = all(
            fr[0] == "ns" or (fr[0] == "class" and fr[1] == "public")
            for fr in scope)

        decl = joined
        is_function = False
        name = ""
        if "(" in decl and not decl.startswith("#"):
            head = decl.split("(", 1)[0]
            m = re.search(r"([A-Za-z_]\w*)\s*$", head)
            if m:
                name = m.group(1)
                is_function = (name not in CPP_KEYWORDS
                               and "operator" not in head
                               and not re.match(r"^\s*(class|struct|enum)\b",
                                                decl))
        exempt = ("= default" in decl or "= delete" in decl
                  or "operator" in decl or decl.startswith("friend"))

        if (is_function and public_scope and not documented and not exempt
                and ctx.rel.endswith(".h")
                and not ctx.allowed("doc-comment", idx)):
            findings.append(Finding(
                ctx.rel, idx, "doc-comment",
                f"public function '{name}' has no doc comment"))

        # Update scope with braces in the joined region.
        header_text = ""
        for k in range(i, j + 1):
            for ch in lines[k]:
                if ch == "{":
                    if re.search(r"\bnamespace\b", header_text):
                        scope.append(["ns", ""])
                    elif CLASS_RE.search(header_text):
                        kind = CLASS_RE.search(header_text).group(1)
                        scope.append(
                            ["class",
                             "public" if kind == "struct" else "private"])
                    else:
                        scope.append(["other", ""])
                    header_text = ""
                elif ch == "}":
                    if scope:
                        scope.pop()
                    header_text = ""
                elif ch == ";":
                    header_text = ""
                else:
                    header_text += ch
            header_text += " "

        prev_documented = documented and is_function and j == i
        prev_was_comment = False
        i = j + 1


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def iter_files(root, paths, exclude_fixtures=True):
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            if full.endswith(CPP_EXTENSIONS):
                yield full
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = [d for d in dirnames
                           if d not in (".git", "build")
                           and not d.startswith("build")]
            if exclude_fixtures and \
                    os.path.basename(dirpath) == "fixtures":
                continue
            for fn in sorted(filenames):
                if fn.endswith(CPP_EXTENSIONS):
                    yield os.path.join(dirpath, fn)


def lint_tree(root, paths, jobs, compile_headers=True, compiler="c++"):
    findings = []
    src_root = os.path.join(root, "src")
    headers_to_compile = []
    for path in iter_files(root, paths):
        rel = os.path.relpath(path, root)
        try:
            ctx = FileContext(path, rel)
        except OSError as exc:
            findings.append(Finding(rel, 1, "io", str(exc)))
            continue
        check_patterns(ctx, findings)
        check_endl_in_loop(ctx, findings)
        in_src = rel.split(os.sep, 1)[0] == "src"
        if in_src and rel.endswith(".h"):
            check_header_guard(ctx, src_root, findings)
            check_doc_comments(ctx, findings)
            if "header-self-contained" not in ctx.file_allows:
                headers_to_compile.append(
                    (path, rel, src_root, compiler))
    if compile_headers and headers_to_compile:
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            for rel, err in pool.map(compile_header, headers_to_compile):
                if err is not None:
                    findings.append(Finding(
                        rel, 1, "header-self-contained",
                        f"header does not compile standalone: {err}"))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def self_test(root, compiler):
    """Lints the fixture files and asserts the expected outcomes."""
    fixture_dir = os.path.join(root, "tools", "lint", "fixtures")
    bad_src = os.path.join(fixture_dir, "bad_fixture.cpp")
    good_src = os.path.join(fixture_dir, "good_fixture.cpp")

    ok = True

    ctx = FileContext(bad_src, os.path.relpath(bad_src, root))
    bad = []
    check_patterns(ctx, bad)
    check_endl_in_loop(ctx, bad)
    got = {f.rule for f in bad}
    want = {"banned-rand", "float-eq", "cache-bypass", "atomic-write",
            "endl-in-loop", "sensor-construction", "freq-loop",
            "wall-clock", "state-pair"}
    for rule in sorted(want):
        status = "ok" if rule in got else "MISSING"
        print(f"self-test: bad_fixture triggers {rule:<18} {status}")
        ok &= rule in got
    unexpected = got - want
    if unexpected:
        print(f"self-test: unexpected rules on bad fixture: {unexpected}")
        ok = False

    ctx = FileContext(good_src, os.path.relpath(good_src, root))
    good = []
    check_patterns(ctx, good)
    check_endl_in_loop(ctx, good)
    print(f"self-test: good_fixture findings = {len(good)} "
          f"{'ok' if not good else 'FAIL'}")
    for f in good:
        print(f"    {f}")
    ok &= not good

    # Header rules against the fixture headers.
    bad_hdr = os.path.join(fixture_dir, "bad_header.h")
    ctx = FileContext(bad_hdr, os.path.relpath(bad_hdr, root))
    hdr = []
    check_header_guard(ctx, fixture_dir, hdr)
    check_doc_comments(ctx, hdr)
    # ctx.rel does not end in src/, so doc rule needs the .h suffix only.
    got = {f.rule for f in hdr}
    for rule in ("header-guard", "doc-comment"):
        status = "ok" if rule in got else "MISSING"
        print(f"self-test: bad_header triggers  {rule:<18} {status}")
        ok &= rule in got
    rel, err = compile_header((bad_hdr, "bad_header.h", fixture_dir,
                               compiler))
    print(f"self-test: bad_header fails standalone compile "
          f"{'ok' if err else 'FAIL'}")
    ok &= err is not None

    good_hdr = os.path.join(fixture_dir, "good_header.h")
    ctx = FileContext(good_hdr, os.path.relpath(good_hdr, root))
    hdr = []
    check_header_guard(ctx, fixture_dir, hdr)
    check_doc_comments(ctx, hdr)
    print(f"self-test: good_header findings = {len(hdr)} "
          f"{'ok' if not hdr else 'FAIL'}")
    for f in hdr:
        print(f"    {f}")
    ok &= not hdr
    rel, err = compile_header((good_hdr, "good_header.h", fixture_dir,
                               compiler))
    print(f"self-test: good_header compiles standalone "
          f"{'ok' if not err else 'FAIL: ' + str(err)}")
    ok &= err is None

    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def find_repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def main(argv):
    ap = argparse.ArgumentParser(prog="yukta-lint", add_help=True)
    ap.add_argument("--repo", default=find_repo_root())
    ap.add_argument("--jobs", type=int,
                    default=max(1, os.cpu_count() or 1))
    ap.add_argument("--no-compile", action="store_true")
    ap.add_argument("--compiler", default=os.environ.get("CXX", "c++"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS))
    args = ap.parse_args(argv)

    root = os.path.abspath(args.repo)
    if args.self_test:
        return self_test(root, args.compiler)

    paths = args.paths or list(DEFAULT_PATHS)
    findings = lint_tree(root, paths, args.jobs,
                         compile_headers=not args.no_compile,
                         compiler=args.compiler)
    for f in findings:
        print(f)
    if findings:
        print(f"yukta-lint: {len(findings)} finding(s)")
        return 1
    print("yukta-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
