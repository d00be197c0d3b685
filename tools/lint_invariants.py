#!/usr/bin/env python3
"""Repo-invariant linter: mechanizes the ROADMAP's standing rules.

The ROADMAP invariants that keep GCON's determinism and DP accounting
trustworthy are conventions about *where* certain constructs may appear.
This linter turns them into AST-free source checks so CI catches a drive-by
violation before it becomes a silent race or a broken memcmp proof:

  no-raw-threads      std::thread / std::jthread / std::async only in
                      src/common/parallel.* and src/serve/ — everything else
                      rides ParallelFor / WorkerPool::Global() so parallel
                      results stay bitwise identical to sequential.
                      (tests/ are exempt: they drive concurrency scenarios
                      against the pool on purpose.)
  scoped-cache-stats  No reads (or resets) of the *global* PropagationCache
                      stats to compute per-call deltas — the racy scheme
                      PR 3 retired. Per-call accounting uses
                      PropagationCacheStatsScope.
  rng-discipline      rand() / srand() / std::random_device only in
                      src/rng/ — every other call site takes a seeded Rng
                      so runs are reproducible and parallel workers own
                      their streams.
  baseline-layering   `#include "baselines/..."` only in src/baselines/
                      itself, the src/model/ adapters, and tests/ — new
                      workloads dispatch through GraphModel/ModelRegistry,
                      not concrete baseline APIs.
  gemm-reference      GemmReference (the unblocked seed kernel kept as an
                      oracle) is called only from tests/ and bench/ — a
                      production call site silently forfeits the blocked
                      engine's ~4x.
  nolint-reason       Every clang-tidy NOLINT names the check it silences
                      and carries a written reason:
                      `NOLINT(check-name): why`. A bare NOLINT is a
                      permanent unexplained hole in the tidy gate.
  serve-zero-copy     A ServeRequest::feature_view payload is never
                      deep-copied in production code (no std::copy /
                      assign / memcpy / vector construction from the
                      view). The binary transport's contract
                      (serve/frame.h) is that f32 features are widened IN
                      PLACE from the pinned frame buffer into the packed
                      GEMM panel; a copy silently reintroduces the
                      per-query allocation the zero-copy path deleted.
                      Waiverable like every rule, for the day a copy is
                      the right call.
  no-hot-path-logging GCON_LOG is forbidden in the serving hot loop
                      (src/serve/batcher.cc) and the GEMM kernels
                      (src/linalg/) — a log line there serializes every
                      worker on the logging mutex and one write() syscall
                      per batch (or worse, per tile). Observability for
                      those paths is the metrics registry and the sampled
                      trace ring (src/obs/), which are lock-free on the
                      hot path; the slow-query log lives in
                      src/obs/trace.cc where it fires only on sampled,
                      already-slow requests. Waiverable for a genuine
                      cold-path diagnostic.
  obs-no-serve-include
                      No `#include "serve/..."` under src/obs/. The
                      observability tier sits below serving: serve/
                      instruments itself through obs/, and an include the
                      other way inverts the layering.
  release-path-csr-features
                      No Graph::features() (the lazily built dense n x d0
                      copy of X) under src/core/, src/serve/, src/nn/ or
                      src/propagation/. The release path reads the CSR
                      feature store, feature_csr(); one dense call there
                      brings back the 66 MiB cora_ml matrix the CSR store
                      removed from train, publish and serve.

Checks run on comment-stripped text (string literals are preserved), so a
doc comment *describing* a forbidden pattern does not trip the gate.
(nolint-reason is the exception — NOLINT markers live in comments, so that
rule reads raw lines.)

Waivers: tools/lint_waivers.json holds entries
    {"rule": ..., "file": ..., "contains": ..., "reason": ...}
Each entry must match EXACTLY ONE finding (rule + file + substring of the
offending line) — zero matches is a stale waiver, two or more is ambiguous;
both fail the run. Every waiver carries its written reason.

Exit status: 0 clean, 1 findings (or waiver problems), 2 usage/config error.
"""

import argparse
import json
import os
import re
import sys

# Rule = (id, description, pattern, scanned top-level dirs, allowed path
# prefixes). Paths are repo-relative with forward slashes; a file whose
# relative path starts with an allowed prefix is exempt from that rule.
# An optional "only" list inverts the scoping: the rule applies ONLY to
# files whose relative path starts with one of the listed prefixes (the
# shape of hot-path rules, which ban a construct in a few named places
# rather than everywhere-but).
RULES = [
    {
        "id": "no-raw-threads",
        "summary": "std::thread/std::jthread/std::async outside the "
                   "sanctioned concurrency homes (use ParallelFor / "
                   "WorkerPool::Global())",
        "pattern": re.compile(r"std::(thread|jthread|async)\b"),
        "scan": ["src", "bench", "tools", "examples"],
        "allow": ["src/common/parallel.", "src/serve/"],
    },
    {
        "id": "scoped-cache-stats",
        "summary": "global PropagationCache stats read/reset (per-call "
                   "accounting must use PropagationCacheStatsScope)",
        "pattern": re.compile(r"Global\(\)\s*\.\s*(Reset[Ss]tats|stats)\s*\("),
        "scan": ["src", "bench", "tools", "examples", "tests"],
        "allow": [],
    },
    {
        "id": "rng-discipline",
        "summary": "rand()/srand()/std::random_device outside src/rng/ "
                   "(take a seeded Rng instead)",
        "pattern": re.compile(
            r"(?<![A-Za-z0-9_])(s?rand)\s*\(|std::random_device"),
        "scan": ["src", "bench", "tools", "examples", "tests"],
        "allow": ["src/rng/"],
    },
    {
        "id": "baseline-layering",
        "summary": "direct baseline-header include outside src/baselines/, "
                   "the src/model/ adapters, and tests/ (dispatch through "
                   "GraphModel/ModelRegistry)",
        "pattern": re.compile(r"#\s*include\s+\"baselines/"),
        "scan": ["src", "bench", "tools", "examples", "tests"],
        "allow": ["src/baselines/", "src/model/", "tests/"],
    },
    {
        "id": "gemm-reference",
        "summary": "GemmReference (the seed oracle kernel) called outside "
                   "tests/bench",
        "pattern": re.compile(r"\bGemmReference\s*\("),
        "scan": ["src", "bench", "tools", "examples", "tests"],
        "allow": ["src/linalg/gemm_kernels.", "tests/", "bench/"],
    },
    {
        "id": "nolint-reason",
        "summary": "NOLINT without a named check and written reason "
                   "(want `NOLINT(check-name): why`)",
        "pattern": re.compile(
            r"NOLINT(?!(?:NEXTLINE|BEGIN|END)?\([^)]+\):\s*\S)"),
        "scan": ["src", "bench", "tools", "examples", "tests"],
        "allow": [],
        "raw": True,  # NOLINT markers live inside comments
    },
    {
        "id": "serve-zero-copy",
        "summary": "feature_view payload deep-copied in production code "
                   "(the binary serve path widens f32 features in place "
                   "into the GEMM panel — see serve/frame.h)",
        "pattern": re.compile(
            r"(?:std::copy|std::memcpy|memcpy|\.assign|\.insert"
            r"|push_back|emplace_back"
            r"|std::vector<[^>]*>\s*[A-Za-z_]\w*\s*[({])"
            r"[^;]*feature_view"),
        "scan": ["src"],
        "allow": [],
    },
    {
        "id": "no-hot-path-logging",
        "summary": "GCON_LOG on a serving/GEMM hot path (use the metrics "
                   "registry / sampled trace ring in src/obs/ instead)",
        "pattern": re.compile(r"\bGCON_LOG\s*\("),
        "scan": ["src"],
        "allow": [],
        "only": ["src/serve/batcher.cc", "src/linalg/"],
    },
    {
        "id": "obs-no-serve-include",
        "summary": "serving header included under src/obs/ (obs/ sits "
                   "below serve/; the dependency runs one way)",
        "pattern": re.compile(r"#\s*include\s+\"serve/"),
        "scan": ["src"],
        "allow": [],
        "only": ["src/obs/"],
    },
    {
        "id": "release-path-csr-features",
        "summary": "Graph::features() (the dense copy of X) on the release "
                   "path (read feature_csr() instead)",
        "pattern": re.compile(r"(?:\.|->)features\(\)"),
        "scan": ["src"],
        "allow": [],
        "only": ["src/core/", "src/serve/", "src/nn/", "src/propagation/"],
    },
]

SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")


def strip_comments(text):
    """Blanks // and /* */ comments, preserving string/char literals and
    line numbers. Non-newline comment bytes become spaces so column-ish
    context survives for the report."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == '"':
                state = "code"
            out.append(c)
        elif state == "char":
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def iter_source_files(root, top_dirs):
    for top in top_dirs:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            # Fixture trees seed deliberate violations for the linter's own
            # test; never scan them as part of the real repo.
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    yield rel, full


def collect_findings(root):
    """Returns [{rule, file, line, text}] over every rule."""
    findings = []
    # Group rules by their scan set so each file is read and stripped once.
    all_dirs = sorted({d for rule in RULES for d in rule["scan"]})
    for rel, full in iter_source_files(root, all_dirs):
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            print(f"lint_invariants: cannot read {rel}: {e}", file=sys.stderr)
            sys.exit(2)
        raw_lines = raw.splitlines()
        stripped = strip_comments(raw).splitlines()
        top = rel.split("/", 1)[0]
        for rule in RULES:
            if top not in rule["scan"]:
                continue
            if any(rel.startswith(prefix) for prefix in rule["allow"]):
                continue
            only = rule.get("only")
            if only and not any(rel.startswith(prefix) for prefix in only):
                continue
            lines = raw_lines if rule.get("raw") else stripped
            for lineno, line in enumerate(lines, start=1):
                if rule["pattern"].search(line):
                    findings.append({
                        "rule": rule["id"],
                        "file": rel,
                        "line": lineno,
                        "text": line.strip(),
                    })
    return findings


def load_waivers(path):
    if not os.path.exists(path):
        return []
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"lint_invariants: bad waiver file {path}: {e}", file=sys.stderr)
        sys.exit(2)
    waivers = data.get("waivers", [])
    for i, w in enumerate(waivers):
        for key in ("rule", "file", "contains", "reason"):
            if not isinstance(w.get(key), str) or not w[key].strip():
                print(f"lint_invariants: waiver #{i} missing/empty '{key}' "
                      f"(every waiver needs rule, file, contains, reason)",
                      file=sys.stderr)
                sys.exit(2)
    return waivers


def apply_waivers(findings, waivers):
    """Each waiver must suppress exactly one finding. Returns
    (surviving_findings, waiver_errors)."""
    errors = []
    suppressed = set()
    for w in waivers:
        matches = [
            idx for idx, f in enumerate(findings)
            if idx not in suppressed and f["rule"] == w["rule"]
            and f["file"] == w["file"] and w["contains"] in f["text"]
        ]
        if not matches:
            errors.append(
                f"stale waiver (matches no finding): rule={w['rule']} "
                f"file={w['file']} contains={w['contains']!r}")
        elif len(matches) > 1:
            errors.append(
                f"ambiguous waiver (matches {len(matches)} findings — make "
                f"'contains' pin down one line): rule={w['rule']} "
                f"file={w['file']} contains={w['contains']!r}")
        else:
            suppressed.add(matches[0])
    surviving = [f for idx, f in enumerate(findings) if idx not in suppressed]
    return surviving, errors


def main():
    parser = argparse.ArgumentParser(
        description="Mechanized ROADMAP-invariant checks (see module "
                    "docstring for the rule table).")
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root,
                        help="repo root to scan (default: the checkout "
                             "containing this script)")
    parser.add_argument("--waivers", default=None,
                        help="waiver JSON (default: <root>/tools/"
                             "lint_waivers.json)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule['id']}: {rule['summary']}")
            print(f"    scans: {', '.join(rule['scan'])}"
                  + (f"; only: {', '.join(rule['only'])}"
                     if rule.get("only") else "")
                  + (f"; exempt: {', '.join(rule['allow'])}"
                     if rule["allow"] else ""))
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"lint_invariants: no such root: {root}", file=sys.stderr)
        return 2
    waiver_path = args.waivers or os.path.join(root, "tools",
                                               "lint_waivers.json")

    findings = collect_findings(root)
    waivers = load_waivers(waiver_path)
    surviving, waiver_errors = apply_waivers(findings, waivers)

    if args.json:
        print(json.dumps({"findings": surviving,
                          "waiver_errors": waiver_errors}, indent=2))
    else:
        for f in surviving:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['text']}")
        for e in waiver_errors:
            print(f"waiver error: {e}", file=sys.stderr)

    if surviving or waiver_errors:
        waived = len(findings) - len(surviving)
        print(f"lint_invariants: {len(surviving)} finding(s), "
              f"{len(waiver_errors)} waiver error(s) "
              f"({waived} waived, {len(RULES)} rules)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(findings)} finding(s) waived, "
          f"{len(RULES)} rules)",
          file=sys.stderr if args.json else sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
