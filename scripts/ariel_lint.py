#!/usr/bin/env python3
"""Repo-specific lint for Ariel — rules the generic tools can't express.

Rules
-----
  raw-new        `new` / `delete` expressions outside src/storage/ (the only
                 layer allowed to hand-manage memory). Smart pointers and
                 containers everywhere else. `= delete` declarations are fine.
  const-cast     `const_cast` outside src/storage/. Casting away constness
                 hides mutation from the plan/gateway layer; thread mutable
                 access through the API instead.
  include-guard  Header guards must be ARIEL_<DIR>_<FILE>_H_ derived from the
                 path with the leading `src/` stripped, e.g.
                 src/network/token.h -> ARIEL_NETWORK_TOKEN_H_.
  bare-ok        Tests must not assert `EXPECT_TRUE(x.ok())` (or ASSERT_)
                 without the Status message: use EXPECT_OK / ASSERT_OK from
                 tests/test_util.h, which print the failing Status.
  metric-keyed   Engine hot paths (src/network, src/exec, src/isl,
                 src/storage, src/rules) must not call
                 RegisterCounter/RegisterGauge/RegisterHistogram: a string-
                 keyed registry lookup per event defeats the handle design.
                 Update pre-registered EngineMetrics handles (Metrics().x)
                 instead; registration belongs in src/util/metrics.cc.
                 src/util/thread_pool.* additionally must not call the
                 string-keyed enumeration API (Counters/Gauges/Histograms/
                 Render): those take the registry mutex, and pool code runs
                 on worker threads inside the match stage.
  gateway-mutation
                 Direct Insert/InsertAt/Delete/Update calls on relations in
                 src/ outside the storage layer, the transaction layer, and
                 the gateway implementations. Every tuple mutation must flow
                 through a StorageGateway so undo records are appended and
                 discrimination-network tokens are generated; a direct call
                 silently bypasses both. Engine-internal relations that are
                 not base data (a P-node's backing relation, the system-
                 catalog snapshot rebuild) carry an allow() with a one-line
                 justification.
  compiler-internals
                 `#include "rules/rule_compiler.h"` outside src/rules/ and
                 src/analysis/. CompiledRule/AlphaSpec are the rule
                 compiler's private contract with the network builder and
                 the static analyzer; everything else configures the engine
                 through rules/alpha_policy.h or the RuleManager API. Tests
                 that deliberately exercise compiler internals carry an
                 allow() with a justification.
  server-session Database::Execute* calls in src/server/ outside the session
                 layer (session.h/.cc). Sessions are the server's single
                 doorway into the engine: they bracket the explicit
                 transaction, classify incomplete input, and record the
                 server command metrics. A connection or event-loop file
                 calling Execute directly bypasses all three.
  heap-iteration Direct HeapRelation tuple sweeps (AllTupleIds/ForEachTuple)
                 in src/exec/. Executor scans must read rows through the
                 columnar batch layer (HeapRelation::ColumnView + the
                 selection-vector kernels) so the row/column choice stays in
                 one place; the deliberate row-path fallbacks carry an
                 allow() with a one-line justification.
  network-topology
                 Network-shape construction calls (make_unique<RuleNetwork>,
                 Prime(), set_planned_join_order()) in src/ outside
                 src/network/ and the rule manager's install/re-plan entry
                 points (src/rules/rule_manager.cc). A rule's network may
                 only be (re)built through RuleManager::AddRule/ReplanRule:
                 anywhere else skips the P-node state carry-over, the
                 auditor hook, and the adaptive optimizer's bookkeeping, so
                 the topology silently diverges from what the optimizer
                 believes is installed.
  read-path-purity
                 Mutation entry points inside the body of an
                 `ExecuteReadOnly` definition. Those bodies run read-only
                 commands without a command savepoint or undo frame, so a
                 mutation there would escape undo: an error later in the
                 command could not roll it back. A call to
                 ExecuteTransacted/ExecuteDml/ExecuteCommand/ExecuteAll,
                 RunCycle, BeginTransition, RefreshSystemCatalogs,
                 BumpVersion, a relation Insert/InsertAt/Delete/Update, or a
                 Reset/Clear there is flagged.
  atomic-order   Atomic operations in the concurrency-critical util files
                 (src/util/metrics.*, src/util/thread_pool.*) must name an
                 explicit std::memory_order. Metric handles are updated from
                 match-stage worker threads; a defaulted seq_cst there is
                 either an accidental fence on the hot path or, worse, a
                 sign someone is relying on metric atomics for
                 synchronization. Cross-thread handoff belongs to mutexes /
                 condition variables, with atomics relaxed throughout.

A finding can be suppressed on its line with:  // ariel-lint: allow(<rule>)

Exit code 0 when clean, 1 when any finding is reported. Run from anywhere;
the repo root is located relative to this file. Registered as a ctest
(`ariel_lint`) so every test run enforces it.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".cc", ".cpp"}

ALLOW_RE = re.compile(r"//\s*ariel-lint:\s*allow\(([\w,\s-]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers keep matching the original file."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("string", "char"):
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; be forgiving
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allowed_rules(source_line: str) -> set[str]:
    m = ALLOW_RE.search(source_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def expected_guard(path: Path) -> str:
    rel = path.relative_to(REPO_ROOT)
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return f"ARIEL_{stem.upper()}_H_"


RAW_NEW_RE = re.compile(r"(?<![\w.])new\s+[\w:(<]")
RAW_DELETE_RE = re.compile(r"(?<![\w.])delete(\[\])?\s+[\w:(*]")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
CONST_CAST_RE = re.compile(r"\bconst_cast\s*<")
METRIC_REGISTER_RE = re.compile(r"\bRegister(Counter|Gauge|Histogram)\s*\(")
METRIC_ENUMERATE_RE = re.compile(
    r"\.\s*(Counters|Gauges|Histograms|Render)\s*\(")
HOT_PATH_DIRS = (
    ("src", "network"),
    ("src", "exec"),
    ("src", "isl"),
    ("src", "storage"),
    ("src", "rules"),
)
# Files whose atomics run on (or synchronize with) match-stage worker
# threads; every atomic op there must spell out its memory order.
ATOMIC_ORDER_FILES = ("metrics.h", "metrics.cc", "thread_pool.h",
                      "thread_pool.cc")
ATOMIC_OP_RE = re.compile(
    r"\.\s*(fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|exchange|"
    r"compare_exchange_weak|compare_exchange_strong|load|store)\s*\(")
# gateway-mutation: relation mutations outside the layers allowed to touch
# storage directly. The receiver is captured so calls already on the
# sanctioned path (a gateway or the transition manager) and calls on P-node
# conflict sets (network state, not base data) pass without annotation.
MUTATION_CALL_RE = re.compile(
    r"(\w+)?\s*(->|\.)\s*(Insert|InsertAt|Delete|Update)\s*\(")
GATEWAY_RECEIVER_RE = re.compile(r"gateway|transitions|inner_|pnode")
# Layers that ARE the mutation path: storage itself, the undo/replay layer,
# and the gateway implementations (DirectGateway, FailpointGateway, the
# TransitionManager).
GATEWAY_EXEMPT = (
    ("src", "storage"),
    ("src", "txn"),
)
GATEWAY_EXEMPT_FILES = (
    ("src", "exec", "gateway.h"),
    ("src", "exec", "failpoint_gateway.h"),
    ("src", "network", "transition_manager.h"),
    ("src", "network", "transition_manager.cc"),
    # The P-node's backing relation is private network state (conflict-set
    # rows, not base tuples): its maintenance is what the gateway's tokens
    # ultimately drive, so it sits below the gateway by construction.
    ("src", "network", "pnode.cc"),
)
# compiler-internals: the only sanctioned consumers of the compiled-rule
# structures. Matched against raw lines (includes are string literals, which
# strip_comments_and_strings blanks out).
COMPILER_INTERNALS_RE = re.compile(
    r'#\s*include\s+"rules/rule_compiler\.h"')
COMPILER_INTERNALS_OK = (
    ("src", "rules"),
    ("src", "analysis"),
)
# server-session: the networked front end's only doorway into the engine is
# the session layer; connection/event-loop code calling Execute* directly
# would bypass transaction bracketing and the server command metrics.
SERVER_EXECUTE_RE = re.compile(r"(->|\.)\s*Execute(All|Command)?\s*\(")
SERVER_SESSION_FILES = ("session.h", "session.cc")
BARE_OK_RE = re.compile(
    r"(EXPECT|ASSERT)_TRUE\s*\(\s*[^;]*?\.\s*ok\s*\(\s*\)\s*\)\s*;",
    re.DOTALL,
)
# heap-iteration: row-at-a-time sweeps over a HeapRelation inside the
# executor. Scans must go through the columnar batch machinery (ColumnView +
# selection-vector kernels) or a deliberately annotated row fallback.
HEAP_ITER_RE = re.compile(r"(->|\.)\s*(AllTupleIds|ForEachTuple)\s*\(")
# network-topology: building or re-shaping a rule's join network is the
# exclusive business of src/network/ and the rule manager's install/re-plan
# entry points; ad-hoc topology mutation elsewhere bypasses P-node carry-
# over, auditing, and the adaptive optimizer's bookkeeping.
NETWORK_TOPOLOGY_RE = re.compile(
    r"make_unique\s*<\s*RuleNetwork\s*>|"
    r"(->|\.)\s*(Prime|set_planned_join_order)\s*\(")
NETWORK_TOPOLOGY_OK = (("src", "network"),)
NETWORK_TOPOLOGY_OK_FILES = (("src", "rules", "rule_manager.cc"),)


# read-path-purity: names that mutate engine state. None of them may be
# called from the body of an ExecuteReadOnly definition — those bodies run
# without a command savepoint, so a mutation there would escape undo.
READ_ONLY_DEF_RE = re.compile(r"::\s*ExecuteReadOnly\s*\(")
READ_PATH_FORBIDDEN_RE = re.compile(
    r"\b(ExecuteTransacted|ExecuteDml|ExecuteCommand|ExecuteAll|RunCycle|"
    r"BeginTransition|RefreshSystemCatalogs|BumpVersion)"
    r"\s*\(|"
    r"(->|\.)\s*(Insert|InsertAt|Delete|Update|Reset|Clear)\s*\(")


def brace_match(code: str, open_index: int) -> int:
    """Index of the brace closing the one at open_index (end of text if
    unbalanced)."""
    depth = 0
    for k in range(open_index, len(code)):
        if code[k] == "{":
            depth += 1
        elif code[k] == "}":
            depth -= 1
            if depth == 0:
                return k
    return len(code) - 1


def in_storage(path: Path) -> bool:
    rel = path.relative_to(REPO_ROOT)
    return rel.parts[:2] == ("src", "storage")


def lint_file(path: Path) -> list[Finding]:
    raw = path.read_text()
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    findings: list[Finding] = []

    def report(lineno: int, rule: str, message: str) -> None:
        src = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        if rule in allowed_rules(src):
            return
        findings.append(Finding(path, lineno, rule, message))

    # raw-new / const-cast: everywhere except storage internals.
    if not in_storage(path):
        for i, line in enumerate(code_lines, start=1):
            if RAW_NEW_RE.search(line):
                report(i, "raw-new",
                       "raw `new` outside src/storage/ — use std::make_unique "
                       "or a container")
            stripped = DELETED_FN_RE.sub("", line)
            if RAW_DELETE_RE.search(stripped):
                report(i, "raw-new",
                       "raw `delete` outside src/storage/ — use RAII")
            if CONST_CAST_RE.search(line):
                report(i, "const-cast",
                       "const_cast — thread mutable access through the API")

    # metric-keyed: engine hot paths must use pre-registered handles.
    rel_parts = path.relative_to(REPO_ROOT).parts[:2]
    if rel_parts in HOT_PATH_DIRS:
        for i, line in enumerate(code_lines, start=1):
            if METRIC_REGISTER_RE.search(line):
                report(i, "metric-keyed",
                       "string-keyed metric registration in an engine hot "
                       "path — update a pre-registered Metrics() handle")

    # metric-keyed, worker-thread flavour: thread-pool code runs on match
    # workers, so even the mutex-guarded string-keyed enumeration API is
    # off-limits there.
    if rel_parts == ("src", "util") and path.name.startswith("thread_pool"):
        for i, line in enumerate(code_lines, start=1):
            if METRIC_REGISTER_RE.search(line) or \
                    METRIC_ENUMERATE_RE.search(line):
                report(i, "metric-keyed",
                       "string-keyed registry call in thread-pool code — "
                       "workers must only touch relaxed atomic handles")

    # atomic-order: concurrency-critical util files must spell out the
    # memory order on every atomic operation.
    if rel_parts == ("src", "util") and path.name in ATOMIC_ORDER_FILES:
        for m in ATOMIC_OP_RE.finditer(code):
            # Walk the balanced argument list; any named memory_order inside
            # satisfies the rule.
            depth = 0
            j = m.end() - 1  # the opening paren
            end = j
            while end < len(code):
                if code[end] == "(":
                    depth += 1
                elif code[end] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                end += 1
            args = code[j:end + 1]
            if "memory_order" in args:
                continue
            lineno = code[: m.start()].count("\n") + 1
            report(lineno, "atomic-order",
                   f"atomic {m.group(1)} without an explicit "
                   "std::memory_order — metric/pool atomics are relaxed by "
                   "design; synchronization belongs to mutexes")

    # heap-iteration: executor files must not sweep heap tuples row-at-a-
    # time outside the annotated fallbacks.
    if rel_parts == ("src", "exec"):
        for i, line in enumerate(code_lines, start=1):
            if HEAP_ITER_RE.search(line):
                report(i, "heap-iteration",
                       "row-at-a-time HeapRelation sweep in the executor — "
                       "read through ColumnView/vector kernels or annotate "
                       "the deliberate row fallback")

    # gateway-mutation: tuple mutations in engine code must go through a
    # StorageGateway (undo records + network tokens); direct relation calls
    # are confined to the storage/txn/gateway layers.
    rel_all = path.relative_to(REPO_ROOT).parts
    if (rel_all[0] == "src" and rel_all[:2] not in GATEWAY_EXEMPT
            and rel_all not in GATEWAY_EXEMPT_FILES):
        for m in MUTATION_CALL_RE.finditer(code):
            receiver = m.group(1) or ""
            if GATEWAY_RECEIVER_RE.search(receiver):
                continue
            lineno = code[: m.start(2)].count("\n") + 1
            report(lineno, "gateway-mutation",
                   f"direct {m.group(3)}() on a relation outside the "
                   "storage/txn/gateway layers — route the mutation through "
                   "a StorageGateway (or annotate why this relation is not "
                   "base data)")

    # network-topology: network (re)construction stays inside src/network/
    # and the rule manager's install/re-plan entry points.
    if (rel_all[0] == "src" and rel_all[:2] not in NETWORK_TOPOLOGY_OK
            and rel_all not in NETWORK_TOPOLOGY_OK_FILES):
        for m in NETWORK_TOPOLOGY_RE.finditer(code):
            lineno = code[: m.start()].count("\n") + 1
            report(lineno, "network-topology",
                   "rule-network topology mutation outside src/network/ and "
                   "RuleManager::AddRule/ReplanRule — re-shape networks "
                   "through the rule manager so P-node state, auditing, and "
                   "adaptive bookkeeping stay consistent")

    # read-path-purity: no mutation entry point inside the body of an
    # ExecuteReadOnly definition (the savepoint-free read path).
    if rel_all[0] == "src" and path.suffix in (".cc", ".cpp"):
        for m in READ_ONLY_DEF_RE.finditer(code):
            paren = code.index("(", m.start())
            depth, k = 0, paren
            while k < len(code):
                if code[k] == "(":
                    depth += 1
                elif code[k] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            tail_match = re.match(r"\s*(const\s*)?\{", code[k + 1:])
            if not tail_match:
                continue  # a call or declaration, not a definition
            body_open = k + tail_match.end()  # index of '{'
            body_close = brace_match(code, body_open)
            body = code[body_open:body_close]
            base_line = code[:body_open].count("\n")
            for fm in READ_PATH_FORBIDDEN_RE.finditer(body):
                name = fm.group(1) or fm.group(3)
                lineno = base_line + body[: fm.start()].count("\n") + 1
                report(lineno, "read-path-purity",
                       f"{name}() inside ExecuteReadOnly — the read path "
                       "runs without a command savepoint, so a mutation "
                       "there escapes undo; mutations belong to the "
                       "transacted write path")

    # server-session: inside src/server/, Database::Execute* stays in the
    # session layer.
    if rel_all[:2] == ("src", "server") and \
            path.name not in SERVER_SESSION_FILES:
        for m in SERVER_EXECUTE_RE.finditer(code):
            lineno = code[: m.start()].count("\n") + 1
            report(lineno, "server-session",
                   "Execute* call in src/server/ outside the session layer "
                   "— route engine access through Session so transaction "
                   "bracketing and server metrics stay in one place")

    # compiler-internals: compiled-rule structures stay inside the rule
    # compiler's two sanctioned consumers.
    if rel_all[:2] not in COMPILER_INTERNALS_OK:
        for i, line in enumerate(raw_lines, start=1):
            if COMPILER_INTERNALS_RE.search(line):
                report(i, "compiler-internals",
                       "rule_compiler.h included outside src/rules/ and "
                       "src/analysis/ — use rules/alpha_policy.h or the "
                       "RuleManager API instead")

    # include-guard: headers only.
    if path.suffix == ".h":
        want = expected_guard(path)
        m = re.search(r"#ifndef\s+(\S+)", code)
        if not m:
            report(1, "include-guard", f"missing include guard {want}")
        elif m.group(1) != want:
            lineno = code[: m.start()].count("\n") + 1
            report(lineno, "include-guard",
                   f"guard is {m.group(1)}, expected {want}")

    # bare-ok: tests only.
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[0] == "tests":
        for m in BARE_OK_RE.finditer(code):
            if "<<" in m.group(0):
                continue  # streams a diagnostic; EXPECT_OK still preferred
            lineno = code[: m.start()].count("\n") + 1
            report(lineno, "bare-ok",
                   "bare EXPECT_TRUE(x.ok()) loses the Status message — use "
                   "EXPECT_OK/ASSERT_OK from tests/test_util.h")

    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files to lint (default: whole tree)")
    args = parser.parse_args()

    if args.paths:
        files = [p.resolve() for p in args.paths]
    else:
        files = [
            p
            for d in SOURCE_DIRS
            for p in sorted((REPO_ROOT / d).rglob("*"))
            if p.suffix in CXX_SUFFIXES and p.is_file()
        ]

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))

    for finding in findings:
        print(finding)
    if findings:
        print(f"\nariel_lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"ariel_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
