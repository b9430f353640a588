"""Embedded self-test corpus for silo-analyze: every pass has fixtures
that must flag, fixtures that must stay quiet, and suppression fixtures
proving the `// silo-analyze: allow(<rule>)` escape hatch works (for the
lint pass, on every positive case, both on its line and alone on the line
above). Registered as the `silo_analyze_selftest` ctest and run first in
the CI lint job, so a rule that silently stops matching fails the build,
not the review.
"""

from __future__ import annotations

from . import dispatch, docs, layers, lexer, lint, shared_state
from .base import Repo
from .passes import rule_ids

# Each case: (name, files, manifest, pass-runner, expected violations as a
# sorted list of (rule, path) pairs). Allowed findings never count as
# violations — suppression cases expect [].
CASES = []


def case(name, files, manifest, runner, expect):
    CASES.append((name, files, manifest, runner, sorted(expect)))


# ---- lint pass -------------------------------------------------------------

# Per rule: (synthetic repo path, one source line, should the rule flag it).
# Each case sees only its own rule's findings, since a line may break two
# rules (`srand(time(nullptr))`).
LINT_CASES = {
    "wall-clock": [
        ("src/sim/x.cc", "auto t = std::chrono::system_clock::now();", True),
        ("src/sim/x.cc", "auto t = std::chrono::steady_clock::now();", True),
        ("bench/x.cc", "auto t = std::chrono::steady_clock::now();", False),
        ("tests/x.cc", "srand(time(nullptr));", True),
        ("src/sim/x.cc", "TimeNs transmission_time(Bytes b);", False),
        ("src/sim/x.cc", "const TimeNs t = ev.time(); ", False),
    ],
    "unseeded-random": [
        ("src/util/x.cc", "std::random_device rd;", True),
        ("tests/x.cc", "int r = rand();", True),
        ("bench/x.cc", "srand(42);", True),
        ("src/sim/x.cc", "rng.uniform_int(0, 9);", False),
        ("src/sim/x.cc", "grand_total += 1;", False),
        ("src/sim/x.cc", "x = operand();", False),
        # `//` inside a string literal is not a comment: code after it
        # must still be linted...
        ("src/sim/x.cc", 'log("see https://x.test"); srand(42);', True),
        # ...while a real trailing comment is still stripped.
        ("src/sim/x.cc", "int x = 0;  // srand(1) only in comment", False),
    ],
    "unordered-container": [
        ("src/sim/x.h", "std::unordered_map<int, int> m;", True),
        ("src/sim/x.h", "#include <unordered_map>", True),
        ("tests/x.cc", "std::unordered_map<int, int> m;", False),
        ("src/sim/x.h", "std::map<int, int> m;", False),
        # Anti-entropy sweeps iterate per-server state; a hash map there
        # would randomize repair order (and thus every rng draw the
        # repairs make), so the channel keeps id-indexed arrays.
        ("src/sim/control_channel.h",
         "std::unordered_map<int, PacerConfigTable> shadow_;", True),
        ("src/sim/control_channel.h",
         "std::vector<Agent> agents_;  ///< by server id", False),
    ],
    "raw-new-delete": [
        ("src/sim/x.cc", "Packet* p = new Packet();", True),
        ("src/sim/x.cc", "delete p;", True),
        ("src/sim/x.cc", "delete[] arr;", True),
        ("src/sim/x.cc", "auto p = std::make_unique<Packet>();", False),
        ("src/sim/x.cc", "TcpFlow(const TcpFlow&) = delete;", False),
        ("src/core/x.cc", "Packet* p = new Packet();", False),
        ("src/sim/x.cc", "renewed = true;", False),
        ("src/sim/x.cc", "// new rcv_next_ is re-ACKed, not delivered", False),
    ],
    "float-time": [
        ("src/sim/x.h", "double now_ns = 0;", True),
        ("src/sim/x.h", "float sim_time_ns;", True),
        ("src/sim/x.h", "double clock_ns_;", True),
        ("src/sim/x.h", "std::chrono::duration<double> d;", True),
        ("bench/x.cc", "std::chrono::duration<double>(t1 - t0).count();",
         False),
        ("src/pacer/x.h", "const double wait_ns = deficit * 8e9 / r;", False),
        ("src/sim/x.h", "TimeNs now_ {};", False),
    ],
    "banned-include": [
        ("src/sim/x.cc", "#include <thread>", True),
        ("src/sim/x.cc", "#include <ctime>", True),
        ("src/core/x.cc", "#include <random>", True),
        # The seeded wrapper's own include is an ordinary reviewed allow.
        ("src/util/rng.h",
         "#include <random>  // silo-analyze: allow(banned-include)", False),
        ("src/sim/x.cc", "#include <functional>", False),
        ("tests/x.cc", "#include <random>", False),
        # src/par/ carve-out: threading primitives are the sync layer's
        # reason to exist; everything else stays banned there too.
        ("src/par/thread_executor.h", "#include <thread>", False),
        ("src/par/thread_executor.cc", "#include <mutex>", False),
        ("src/par/thread_executor.cc", "#include <condition_variable>",
         False),
        ("src/par/thread_executor.cc", "#include <ctime>", True),
        ("src/par/thread_executor.cc", "#include <random>", True),
        # The carve-out is exactly src/par/ — not sim, not bench.
        ("src/sim/parallel.cc", "#include <mutex>", True),
        ("bench/bench_event_engine.cc", "#include <thread>", True),
    ],
}


def _only(rule_id):
    def run(repo: Repo):
        return [f for f in lint.run(repo) if f.rule == rule_id]
    return run


for _rule, _cases in LINT_CASES.items():
    for _i, (_path, _line, _flag) in enumerate(_cases):
        _name = f"lint/{_rule}/{_i}"
        case(_name, {_path: _line + "\n"}, None, _only(_rule),
             [(_rule, _path)] if _flag else [])
        if _flag:
            _allow = f"// silo-analyze: allow({_rule})"
            case(f"{_name}/allow-same-line",
                 {_path: f"{_line}  {_allow}\n"}, None, _only(_rule), [])
            case(f"{_name}/allow-line-above",
                 {_path: f"{_allow}\n{_line}\n"}, None, _only(_rule), [])


# ---- layer-DAG pass --------------------------------------------------------

_L_MANIFEST = {"modules": {"a": [], "b": ["a"]}}

case(
    "layers/clean-declared-edge",
    {"src/a/x.h": "#pragma once\n",
     "src/b/y.h": '#pragma once\n#include "a/x.h"\n'},
    _L_MANIFEST, layers.run, [])

case(
    "layers/forbidden-edge",
    {"src/a/x.h": '#include "b/y.h"\n',
     "src/b/y.h": "#pragma once\n"},
    {"modules": {"a": [], "b": []}},
    layers.run, [(layers.RULE_DAG, "src/a/x.h")])

case(
    "layers/forbidden-edge-suppressed",
    {"src/a/x.h":
        '#include "b/y.h"  // silo-analyze: allow(layer-dag) fixture\n',
     "src/b/y.h": "#pragma once\n"},
    {"modules": {"a": [], "b": []}},
    layers.run, [])

case(
    "layers/manifest-cycle",
    {"src/a/x.h": '#include "b/y.h"\n',
     "src/b/y.h": '#include "a/x.h"\n'},
    {"modules": {"a": ["b"], "b": ["a"]}},
    layers.run,
    # The declared layering itself is cyclic, and so is the file graph.
    [(layers.RULE_DAG, "scripts/silo_analyze/layers.json"),
     (layers.RULE_CYCLE, "src/a/x.h")])

case(
    "layers/deliberate-include-cycle",
    {"src/a/x.h": '#pragma once\n#include "a/y.h"\n',
     "src/a/y.h": '#pragma once\n#include "a/x.h"\n'},
    {"modules": {"a": []}},
    layers.run, [(layers.RULE_CYCLE, "src/a/x.h")])

case(
    "layers/stale-declared-edge",
    {"src/a/x.h": "#pragma once\n", "src/b/y.h": "#pragma once\n"},
    _L_MANIFEST, layers.run,
    [(layers.RULE_DAG, "scripts/silo_analyze/layers.json")])

case(
    "layers/undeclared-module",
    {"src/c/z.h": "#pragma once\n"},
    {"modules": {"a": []}},
    layers.run, [(layers.RULE_DAG, "src/c/z.h")])

case(
    "layers/include-in-comment-ignored",
    {"src/a/x.h": '#pragma once\n// #include "b/y.h"\n',
     "src/b/y.h": '#pragma once\n#include "a/x.h"\n'},
    _L_MANIFEST, layers.run, [])

# ---- shared-state census ---------------------------------------------------

_S_MANIFEST = {"modules": {"m": []}}

case(
    "shared-state/mutable-globals",
    {"src/m/x.h": "\n".join([
        "#pragma once",
        "namespace silo {",
        "int counter = 0;",                       # flag
        "inline std::int64_t sink_cell = 0;",     # flag
        "namespace { bool warmed_up; }",          # flag
        "Stats g_stats{};",                       # flag (brace init)
        "constexpr int kTicks = 256;",            # quiet
        "const char kName[] = \"x\";",            # quiet
        "int free_slots(int level);",             # quiet: function decl
        "class Wheel { int depth_ = 0; };",       # quiet: member
        "inline int clamp(int v) { int local = v; return local; }",
        "}",
        ""])},
    _S_MANIFEST, shared_state.run,
    [(shared_state.RULE_GLOBAL, "src/m/x.h")] * 4)

case(
    "shared-state/static-locals",
    {"src/m/x.cc": "\n".join([
        "int next_id() {",
        "  static int id = 0;",                   # flag
        "  static Registry reg{};",               # flag (brace init)
        "  static const Table kT = make();",      # quiet: const
        "  static constexpr int kBits = 8;",      # quiet
        "  return ++id;",
        "}",
        ""])},
    _S_MANIFEST, shared_state.run,
    [(shared_state.RULE_STATIC_LOCAL, "src/m/x.cc")] * 2)

case(
    "shared-state/pointer-keyed",
    {"src/m/x.h": "\n".join([
        "#pragma once",
        "std::map<Packet*, int> by_addr;",            # flag (also a global,
                                                      # hence 2 findings)
        "void f() { std::set<const Flow*> live; }",   # flag
        "void g() { std::map<int, Flow*> by_id; }",   # quiet: pointer value
        "void h() { std::map<std::pair<int, int>, Rec*> m; }",  # quiet
        ""])},
    _S_MANIFEST, shared_state.run,
    [(shared_state.RULE_GLOBAL, "src/m/x.h"),
     (shared_state.RULE_PTR_KEY, "src/m/x.h"),
     (shared_state.RULE_PTR_KEY, "src/m/x.h")])

case(
    # thread_local is the sanctioned escape hatch: per-thread instances
    # cannot be shared across islands, so neither scope form is counted.
    "shared-state/thread-local",
    {"src/m/x.h": "\n".join([
        "#pragma once",
        "namespace silo {",
        "inline thread_local std::int64_t sink_cell = 0;",   # quiet
        "thread_local int scratch;",                         # quiet
        "inline Hist& sink_hist() {",
        "  static thread_local Hist s;",                     # quiet
        "  return s;",
        "}",
        "inline int bump() {",
        "  static int shared_id = 0;",                       # flag: control
        "  return ++shared_id;",
        "}",
        "}",
        ""])},
    _S_MANIFEST, shared_state.run,
    [(shared_state.RULE_STATIC_LOCAL, "src/m/x.h")])

case(
    "shared-state/suppressed",
    {"src/m/x.h": "\n".join([
        "#pragma once",
        "// Sink cell by design: write-only, never read back.",
        "// silo-analyze: allow(mutable-global)",
        "inline std::int64_t sink_cell = 0;",
        "static Hist& h() {",
        "  static Hist s;  // silo-analyze: allow(mutable-static-local)",
        "  return s;",
        "}",
        ""])},
    _S_MANIFEST, shared_state.run, [])

# ---- dispatch exhaustiveness ----------------------------------------------

_DISPATCH_ENUM = "\n".join([
    "#pragma once",
    "enum class EvKind : std::uint8_t {",
    "  kArrival,",
    "  kDepart = 7,",
    "  kTick,",
    "};",
    ""])


def _switch_runner(handler_body: str, exempt=None):
    site = dispatch.SwitchSite(
        "EvKind", "src/m/ev.h", "Engine::dispatch", "src/m/ev.cc",
        "fixture", exempt=exempt or {})

    def run(repo: Repo):
        return dispatch._check_switch(repo, site)
    return run


case(
    "dispatch/complete-switch",
    {"src/m/ev.h": _DISPATCH_ENUM,
     "src/m/ev.cc": "\n".join([
         "void Engine::dispatch(const Ev& ev) {",
         "  switch (ev.kind) {",
         "    case EvKind::kArrival: on_arrival(); break;",
         "    case EvKind::kDepart: on_depart(); break;",
         "    case EvKind::kTick: on_tick(); break;",
         "  }",
         "}",
         ""])},
    None, _switch_runner("", None), [])

case(
    "dispatch/deliberately-missing-case",
    {"src/m/ev.h": _DISPATCH_ENUM,
     "src/m/ev.cc": "\n".join([
         "void Engine::dispatch(const Ev& ev) {",
         "  switch (ev.kind) {",
         "    case EvKind::kArrival: on_arrival(); break;",
         "    case EvKind::kTick: on_tick(); break;",
         "  }",
         "}",
         ""])},
    None, _switch_runner(""), [(dispatch.RULE, "src/m/ev.h")])

case(
    "dispatch/missing-case-suppressed",
    {"src/m/ev.h": _DISPATCH_ENUM.replace(
        "  kDepart = 7,",
        "  kDepart = 7,  // silo-analyze: allow(dispatch-exhaustive)"),
     "src/m/ev.cc": "\n".join([
         "void Engine::dispatch(const Ev& ev) {",
         "  switch (ev.kind) {",
         "    case EvKind::kArrival: on_arrival(); break;",
         "    case EvKind::kTick: on_tick(); break;",
         "  }",
         "}",
         ""])},
    None, _switch_runner(""), [])

case(
    "dispatch/config-rot-fails-loudly",
    {"src/m/ev.h": "#pragma once\n", "src/m/ev.cc": "\n"},
    None, _switch_runner(""), [(dispatch.RULE, "src/m/ev.h")])


def _field_runner(exempt=None):
    site = dispatch.FieldSite(
        "Delta", "src/m/d.h", "Table::apply", "src/m/d.h",
        "fixture", exempt=exempt or {})

    def run(repo: Repo):
        return dispatch._check_fields(repo, site)
    return run


_FIELD_STRUCT = "\n".join([
    "#pragma once",
    "struct Delta {",
    "  int server = -1;",
    "  std::vector<std::pair<std::int64_t, int>> removes;",
    "  std::vector<Rec> upserts;",
    "  bool operator==(const Delta&) const = default;",  # not a field
    "};",
    "class Table {",
    " public:",
    "  void apply(const Delta& delta) {",
    "    for (const auto& k : delta.removes) records_.erase(k);",
    "    for (const auto& r : delta.upserts) records_.insert(r);",
    "  }",
    "};",
    ""])

case(
    "dispatch/field-coverage-in-class-method",
    {"src/m/d.h": _FIELD_STRUCT},
    None, _field_runner(), [(dispatch.RULE, "src/m/d.h")])  # `server` unused

case(
    "dispatch/field-coverage-exempt",
    {"src/m/d.h": _FIELD_STRUCT},
    None, _field_runner(exempt={"server": "routing key"}), [])

# A snapshot codec written as write_snapshot overloads: the Tenant
# overload drops `status`, which the Snap overload (defined first) happens
# to touch — the `param` overload selection must still flag it.
_CODEC = {
    "src/m/s.h": "\n".join([
        "#pragma once",
        "struct Snap {",
        "  struct Tenant {",
        "    long id = -1;",
        "    int status = 0;",
        "  };",
        "  std::vector<Tenant> tenants;",
        "  int status = 0;",
        "};",
        ""]),
    "src/m/s.cc": "\n".join([
        "template <class W>",
        "void write_snapshot(W& w, const Snap& snap) {",
        "  w.i32(snap.status);",
        "}",
        "template <class W>",
        "void write_snapshot(W& w, const Snap::Tenant& t) {",
        "  w.i64(t.id);",
        "}",
        ""]),
}


def _codec_runner(struct, param, exempt=None):
    site = dispatch.FieldSite(struct, "src/m/s.h", "write_snapshot",
                              "src/m/s.cc", "fixture",
                              exempt=exempt or {}, param=param)

    def run(repo: Repo):
        return dispatch._check_fields(repo, site)
    return run


case(
    "dispatch/snapshot-codec-overload-misses-field",
    _CODEC, None, _codec_runner("Tenant", "Snap::Tenant&"),
    [(dispatch.RULE, "src/m/s.h")])  # Tenant::status, despite snap.status

# ---- metric catalog --------------------------------------------------------

_M_DOC = "\n".join([
    "### Metric catalog",
    "",
    "| Metric | Type | What |",
    "|--------|------|------|",
    "| `sim.port.drops` | counter | drops |",
    "| `sim.port.ghost` | counter | documented but never registered |",
    ""])

case(
    "metrics/both-directions",
    {"src/m/x.cc": "\n".join([
        'auto c = reg.counter("sim.port.drops", "packets", "port");',
        '// comment naming "sim.port.ghost" must NOT count as registered',
        'auto u = reg.counter("sim.port.undocumented", "packets", "port");',
        ""]),
     "docs/OBSERVABILITY.md": _M_DOC},
    None, docs.check_metrics,
    [(docs.RULE_UNDOC, "src/m/x.cc"),
     (docs.RULE_UNREG, "docs/OBSERVABILITY.md")])

case(
    "metrics/clean",
    {"src/m/x.cc":
        'auto c = reg.counter("sim.port.drops", "p", "port");\n'
        '// url in string is fine: log("https://example");\n',
     "docs/OBSERVABILITY.md": "\n".join([
         "| Metric | Type | What |",
         "|--------|------|------|",
         "| `sim.port.drops` | counter | drops |",
         ""])},
    None, docs.check_metrics, [])

case(
    "metrics/undocumented-suppressed",
    {"src/m/x.cc": "\n".join([
        "// internal scratch metric, deliberately uncatalogued",
        "// silo-analyze: allow(metric-undocumented)",
        'auto c = reg.counter("sim.port.scratch", "p", "port");',
        ""]),
     "docs/OBSERVABILITY.md": "| Metric |\n"},
    None, docs.check_metrics, [])

# ---- markdown links and the DESIGN.md rule table ---------------------------

# Each fixture runs the whole docs pass, so DESIGN.md carries a table row
# for every rule of the real catalog unless the fixture drops one.
def _design(ids):
    rows = "".join(f"| `{r}` | what it checks | pass |\n" for r in ids)
    return "| Rule | What it checks | Pass |\n|---|---|---|\n" + rows


def _docs_repo(readme, design=None):
    return {"README.md": readme,
            "DESIGN.md": _design(rule_ids()) if design is None else design,
            "docs/GUIDE.md": "Back to [the design](../DESIGN.md#top).\n",
            "src/m/x.cc": "int x = 0;\n"}


case(
    "docs/relative-links-resolve",
    _docs_repo("See [the guide](docs/GUIDE.md), [a file](src/m/x.cc), "
               "[a directory](src/m/) and [this section](#usage).\n"),
    None, docs.run, [])

case(
    "docs/broken-link",
    _docs_repo("See [the guide](docs/GUIDE.md) and [gone](docs/GONE.md).\n"),
    None, docs.run, [(docs.RULE_LINK, "README.md")])

case(
    "docs/absolute-urls-skipped",
    _docs_repo("[CI](https://ci.example/run) [old](http://example.test/x) "
               "[mail](mailto:dev@example.test)\n"),
    None, docs.run, [])

case(
    "docs/lambda-capture-in-code-block-skipped",
    _docs_repo("```cpp\n"
               "std::sort(v.begin(), v.end(), [&](const auto& a, auto& b) {\n"
               "  return a.id < b.id;\n"
               "});\n"
               "for_each(rows, [this](Row r) { emit(r); });\n"
               "```\n"),
    None, docs.run, [])

case(
    "docs/rule-missing-from-design-table",
    _docs_repo("", design=_design(
        [r for r in rule_ids() if r != "float-time"])),
    None, docs.run, [(docs.RULE_UNDOC_RULE, "DESIGN.md")])

case(
    "docs/design-table-row-names-unknown-rule",
    _docs_repo("", design=_design(rule_ids() + ["no-such-rule"])),
    None, docs.run, [(docs.RULE_UNKNOWN_RULE, "DESIGN.md")])

# ---- lexer invariants ------------------------------------------------------

LEXER_CHECKS = [
    # (name, callable -> bool)
    ("lexer/comment-slash-in-string",
     lambda: lexer.split_line_comment(
         'log("https://x"); srand(1);') ==
     ('log("https://x"); srand(1);', "")),
    ("lexer/real-comment-stripped",
     lambda: lexer.split_line_comment(
         "int x = 0;  // srand(1) in comment") ==
     ("int x = 0;  ", "// srand(1) in comment")),
    ("lexer/comment-after-string",
     lambda: lexer.split_line_comment(
         'log("a//b"); // tail') == ('log("a//b"); ', "// tail")),
    ("lexer/escaped-quote",
     lambda: lexer.split_line_comment(
         'log("a\\"//b"); f();') == ('log("a\\"//b"); f();', "")),
    ("lexer/string-literal-extraction",
     lambda: [t.value for t in lexer.string_literals(
         '// "comment.metric"\nreg.counter("a.b");\n/* "block.metric" */\n'
         'auto r = R"(raw.metric)";')] == ["a.b", "raw.metric"]),
    ("lexer/char-literal-not-string",
     lambda: [t.value for t in lexer.string_literals(
         "char c = '\"'; f(\"x.y\");")] == ["x.y"]),
]


# ---- runner ----------------------------------------------------------------

def run_self_test() -> int:
    failures = 0
    for name, files, manifest, runner, expect in CASES:
        repo = Repo(files=files, manifest=manifest)
        findings = repo.apply_allows(runner(repo))
        got = sorted((f.rule, f.path) for f in findings if not f.allowed)
        if got != expect:
            failures += 1
            print(f"SELF-TEST FAIL [{name}]")
            print(f"  expected: {expect}")
            print(f"  got:      {got}")
            for f in findings:
                print(f"    {f.format()}{' (allowed)' if f.allowed else ''}")
    for name, check in LEXER_CHECKS:
        ok = False
        try:
            ok = check()
        except Exception as e:  # noqa: BLE001 - a crash is a failure
            print(f"SELF-TEST ERROR [{name}]: {e!r}")
        if not ok:
            failures += 1
            print(f"SELF-TEST FAIL [{name}]")
    total = len(CASES) + len(LEXER_CHECKS)
    if failures:
        print(f"silo-analyze self-test: {failures} failure(s) "
              f"across {total} cases")
        return 1
    print(f"silo-analyze self-test: {total} cases ok")
    return 0
