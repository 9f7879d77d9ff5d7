#include "linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "callgraph.h"
#include "include_graph.h"
#include "lexer.h"

namespace eagle::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule data. IDs and allowlists are the contract documented in
// docs/STATIC_ANALYSIS.md; code below only interprets this table.

const char* const kEvalLayer[] = {
    // The sanctioned concurrency layer: the pool itself, the batch
    // evaluation service, and the environment whose Prepare/Commit
    // phases hold the service's state lock.
    "src/support/", "src/core/eval_service.", "src/core/env.",
};

std::vector<RuleInfo> MakeRules() {
  std::vector<RuleInfo> rules;
  rules.push_back(RuleInfo{
      "ND01", "error",
      "nondeterminism source (libc PRNG, wall clock, environment) outside "
      "the sanctioned files",
      {},
      // log.cpp reads EAGLE_LOG_LEVEL (observability config that can
      // never reach RNG streams or results).
      {"src/support/stopwatch.h", "src/support/thread_pool.cpp",
       "src/support/log.cpp"}});
  rules.push_back(RuleInfo{
      "ND02", "error",
      "iteration over std::unordered_map/std::unordered_set where order "
      "can reach RNG, history, cache-commit or serialized output",
      {"src/core/", "src/rl/", "src/sim/"},
      {}});
  rules.push_back(RuleInfo{
      "CC01", "error",
      "raw concurrency primitive (std::mutex/std::thread/std::atomic/...) "
      "outside src/support and the evaluation-service layer",
      {"src/", "bench/", "tools/", "examples/"},
      {kEvalLayer[0], kEvalLayer[1], kEvalLayer[2]}});
  rules.push_back(RuleInfo{
      "DC01", "error",
      "side-effecting expression inside EAGLE_DCHECK (stripped in Release "
      "builds)",
      {},
      {}});
  rules.push_back(RuleInfo{
      "CP01", "error",
      "checkpoint magic embedded without referencing "
      "kCheckpointFormatVersion",
      {},
      {}});
  rules.push_back(RuleInfo{
      "HS01", "error", "header missing #pragma once", {}, {}});
  rules.push_back(RuleInfo{
      "HP01", "error",
      "raw heap allocation or unordered container in a hot-path kernel "
      "file — per-call scratch belongs to the tensor arena / SimWorkspace "
      "pools",
      // The NN kernel layer and the simulator inner loop: one malloc per
      // tape node / per Run() is exactly the overhead the arena and the
      // workspace removed, and flat epoch-stamped arrays replaced the
      // hash maps. The pools themselves are the sanctioned layer.
      {"src/nn/", "src/sim/simulator."},
      {"src/nn/arena.", "src/sim/sim_workspace."}});
  rules.push_back(RuleInfo{
      "IN01", "error",
      "raw numeric conversion in the graph-ingestion layer — std::stoll "
      "throws and strtod saturates silently on hostile input; classify "
      "failures through graph::ParseInt64 / graph::ParseDouble",
      // src/graph plus the cluster-spec importer, which parses the same
      // class of untrusted files; json.cpp (strtod) and args.cpp (stoll)
      // live in src/support and parse trusted, non-adversarial input.
      {"src/graph/", "src/sim/cluster_ingest."},
      {"src/graph/parse_num."}});
  rules.push_back(RuleInfo{
      "WC01", "error",
      "raw support::Stopwatch wall-clock read in hot-path code — time "
      "phases through EAGLE_SPAN / support::metrics, which keep wall "
      "clock confined to telemetry sinks",
      // bench/ and tools/ are telemetry sinks (they report wall time);
      // src/ and examples/ must observe time only through spans.
      {"src/", "examples/"},
      {"src/support/"}});
  // -------------------------------------------------------------------
  // Cross-file rules (phase 2). Scope/allow columns document the
  // contract; the implementations in include_graph.cpp / callgraph.cpp
  // apply it themselves since their facts span files.
  rules.push_back(RuleInfo{
      "LY01", "error",
      "layering violation: a src/ file includes a higher layer (the DAG "
      "is support → graph → partition → nn → sim → models → core → rl), "
      "or the include graph has a cycle",
      {"src/"},
      {}});
  rules.push_back(RuleInfo{
      "ST01", "error",
      "discarded support::Status/StatusOr return value — check it, "
      "propagate it, or (void)-cast it with an adjacent allow(ST01) "
      "justification",
      {},
      {}});
  rules.push_back(RuleInfo{
      "LK01", "error",
      "two functions acquire the same two mutexes in opposite orders — "
      "deadlock under contention; derived from the global "
      "lock-acquisition-order graph",
      {},
      {}});
  rules.push_back(RuleInfo{
      "HP02", "error",
      "hot-path function whose call graph reaches an allocating function "
      "outside the arena/workspace pools (flow-aware HP01)",
      {"src/nn/", "src/sim/simulator."},
      {"src/nn/arena.", "src/sim/sim_workspace."}});
  return rules;
}

// ND01: identifiers that read nondeterministic state. `call_only` entries
// fire only when used as a function call, so a field named `time` or a
// comment never trips the rule.
struct BannedIdent {
  const char* ident;
  bool call_only;
  const char* hint;
};

const BannedIdent kNondetIdents[] = {
    {"rand", true, "use an explicitly seeded support::Rng"},
    {"srand", true, "use an explicitly seeded support::Rng"},
    {"rand_r", true, "use an explicitly seeded support::Rng"},
    {"drand48", true, "use an explicitly seeded support::Rng"},
    {"random_device", false, "use an explicitly seeded support::Rng"},
    {"mt19937", false, "use support::Rng (xoshiro256**)"},
    {"mt19937_64", false, "use support::Rng (xoshiro256**)"},
    {"default_random_engine", false, "use support::Rng"},
    {"getenv", true, "thread config through explicit options structs"},
    {"secure_getenv", true, "thread config through explicit options structs"},
    {"time", true, "use support::Stopwatch for wall time"},
    {"clock", true, "use support::Stopwatch for wall time"},
    {"gettimeofday", true, "use support::Stopwatch for wall time"},
    {"clock_gettime", true, "use support::Stopwatch for wall time"},
    {"localtime", true, "wall-clock dates are nondeterministic"},
    {"gmtime", true, "wall-clock dates are nondeterministic"},
    {"steady_clock", false, "use support::Stopwatch for wall time"},
    {"system_clock", false, "use support::Stopwatch for wall time"},
    {"high_resolution_clock", false, "use support::Stopwatch for wall time"},
};

// CC01: std::-qualified concurrency vocabulary and the headers behind it.
const char* const kConcurrencyIdents[] = {
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "thread", "jthread", "atomic",
    "atomic_ref", "atomic_flag", "atomic_bool", "atomic_int", "atomic_uint",
    "atomic_long", "atomic_llong", "atomic_size_t", "atomic_int64_t",
    "atomic_uint64_t", "condition_variable", "condition_variable_any",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock", "future",
    "shared_future", "promise", "packaged_task", "async",
    "counting_semaphore", "binary_semaphore", "latch", "barrier",
    "stop_token", "stop_source", "call_once", "once_flag",
};

const char* const kConcurrencyHeaders[] = {
    "mutex", "thread", "atomic", "condition_variable", "future",
    "shared_mutex", "semaphore", "latch", "barrier", "stop_token",
};

// DC01: container/smart-pointer members that mutate their receiver.
const char* const kMutatingMembers[] = {
    "push_back", "pop_back", "push_front", "pop_front", "insert", "erase",
    "clear", "emplace", "emplace_back", "emplace_front", "resize", "assign",
    "reset", "release", "swap", "pop", "push",
};

const char* const kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

// IN01: raw numeric-conversion entry points. All fire call-only so a
// variable or comment mentioning the name never trips the rule.
const char* const kRawParseIdents[] = {
    "stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod", "stold",
    "atoi", "atol", "atoll", "atof", "strtol", "strtoll", "strtoul",
    "strtoull", "strtof", "strtod", "strtold", "sscanf", "scanf",
};

// ---------------------------------------------------------------------------
// Path helpers.

bool HasPrefix(const std::string& path, const std::string& prefix) {
  return path.compare(0, prefix.size(), prefix) == 0;
}

bool RuleApplies(const RuleInfo& rule, const std::string& path) {
  if (!rule.scopes.empty()) {
    bool in_scope = false;
    for (const auto& scope : rule.scopes) {
      if (HasPrefix(path, scope)) in_scope = true;
    }
    if (!in_scope) return false;
  }
  for (const auto& allow : rule.allow) {
    if (HasPrefix(path, allow)) return false;
  }
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

// (Suppression collection lives in index.cpp — CollectSuppressions in
// index.h is shared by both phases.)

// ---------------------------------------------------------------------------
// Token-stream helpers.

using Tokens = std::vector<Token>;

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

// Skips a balanced <...> starting at tokens[i] == "<"; returns the index
// one past the closing ">". ">>" closes two levels.
std::size_t SkipTemplateArgs(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "<") ++depth;
    if (toks[i].text == ">") --depth;
    if (toks[i].text == ">>") depth -= 2;
    if (depth <= 0 && (toks[i].text == ">" || toks[i].text == ">>")) {
      return i + 1;
    }
  }
  return toks.size();
}

// Names of variables/members declared with an unordered container type
// (including through a `using Alias = std::unordered_map<...>` alias).
std::set<std::string> CollectUnorderedNames(const Tokens& toks) {
  std::set<std::string> names;
  std::set<std::string> alias_types;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    bool is_unordered = false;
    for (const char* type : kUnorderedTypes) {
      if (IsIdent(toks[i], type)) is_unordered = true;
    }
    if (!is_unordered) continue;
    // `using Alias = [std::]unordered_xxx<...>` registers the alias.
    std::size_t k = i;
    if (k >= 1 && IsPunct(toks[k - 1], "::")) {
      --k;
      if (k >= 1 && toks[k - 1].kind == TokKind::kIdentifier) --k;
    }
    if (k >= 3 && IsPunct(toks[k - 1], "=") &&
        toks[k - 2].kind == TokKind::kIdentifier &&
        IsIdent(toks[k - 3], "using")) {
      alias_types.insert(toks[k - 2].text);
    }
    // `unordered_xxx<...> [const|&|*] name` registers the declared name.
    std::size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) {
      j = SkipTemplateArgs(toks, j);
    }
    while (j < toks.size() &&
           (IsIdent(toks[j], "const") || IsPunct(toks[j], "&") ||
            IsPunct(toks[j], "*") || IsPunct(toks[j], "&&"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
      names.insert(toks[j].text);
    }
  }
  // Declarations through an alias: `Alias [const|&|*] name`.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        alias_types.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (IsIdent(toks[j], "const") || IsPunct(toks[j], "&") ||
            IsPunct(toks[j], "*") || IsPunct(toks[j], "&&"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// Rule implementations. Each takes the lexed file plus context and emits
// diagnostics; LintSource dispatches based on the rule table.

void CheckNondeterminism(const Tokens& toks, const std::string& path,
                         std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    for (const BannedIdent& banned : kNondetIdents) {
      if (toks[i].text != banned.ident) continue;
      // Member access `x.time(...)` is some other API, not libc.
      if (i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
        continue;
      }
      if (banned.call_only &&
          (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "("))) {
        continue;
      }
      out->push_back(Diagnostic{
          "ND01", path, toks[i].line,
          "nondeterminism source '" + toks[i].text + "' — " + banned.hint});
    }
  }
}

void CheckUnorderedIteration(const Tokens& toks, const Tokens& companion,
                             const std::string& path,
                             std::vector<Diagnostic>* out) {
  std::set<std::string> names = CollectUnorderedNames(toks);
  const std::set<std::string> header_names = CollectUnorderedNames(companion);
  names.insert(header_names.begin(), header_names.end());
  if (names.empty()) return;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions a tracked container.
    if (IsIdent(toks[i], "for") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = toks.size();
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (depth == 1 && IsPunct(toks[j], ":") && colon == 0) colon = j;
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == TokKind::kIdentifier &&
              names.count(toks[j].text) > 0) {
            out->push_back(Diagnostic{
                "ND02", path, toks[i].line,
                "range-for over unordered container '" + toks[j].text +
                    "' — iteration order is unspecified; iterate a sorted "
                    "or vector-backed copy instead"});
            break;
          }
        }
      }
    }
    // Iterator loop: tracked.begin() / cbegin() / rbegin().
    if (toks[i].kind == TokKind::kIdentifier && names.count(toks[i].text) &&
        i + 3 < toks.size() &&
        (IsPunct(toks[i + 1], ".") || IsPunct(toks[i + 1], "->")) &&
        (IsIdent(toks[i + 2], "begin") || IsIdent(toks[i + 2], "cbegin") ||
         IsIdent(toks[i + 2], "rbegin") || IsIdent(toks[i + 2], "crbegin")) &&
        IsPunct(toks[i + 3], "(")) {
      out->push_back(Diagnostic{
          "ND02", path, toks[i].line,
          "iterator walk over unordered container '" + toks[i].text +
              "' — iteration order is unspecified; iterate a sorted or "
              "vector-backed copy instead"});
    }
  }
}

void CheckConcurrency(const Tokens& toks, const std::string& path,
                      std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "std") || !IsPunct(toks[i + 1], "::")) continue;
    for (const char* ident : kConcurrencyIdents) {
      if (IsIdent(toks[i + 2], ident)) {
        out->push_back(Diagnostic{
            "CC01", path, toks[i].line,
            "raw concurrency primitive 'std::" + toks[i + 2].text +
                "' outside the sanctioned layers — route parallelism "
                "through support::ThreadPool / core::EvalService"});
      }
    }
  }
  for (const Token& tok : toks) {
    if (tok.kind != TokKind::kPp) continue;
    if (tok.text.find("include") == std::string::npos) continue;
    for (const char* header : kConcurrencyHeaders) {
      const std::string needle = std::string("<") + header + ">";
      if (tok.text.find(needle) != std::string::npos) {
        out->push_back(Diagnostic{
            "CC01", path, tok.line,
            "#include " + needle + " outside the sanctioned layers"});
      }
    }
  }
}

void CheckDcheckSideEffects(const Tokens& toks, const std::string& path,
                            std::vector<Diagnostic>* out) {
  static const char* const kAssignOps[] = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "EAGLE_DCHECK") || !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (IsPunct(toks[j], "(")) ++depth;
      if (IsPunct(toks[j], ")")) {
        --depth;
        if (depth == 0) break;
      }
      if (toks[j].kind != TokKind::kPunct) {
        // Mutating member call: `.insert(`, `->push_back(`, ...
        if (toks[j].kind == TokKind::kIdentifier && j + 1 < toks.size() &&
            IsPunct(toks[j + 1], "(") && j >= 1 &&
            (IsPunct(toks[j - 1], ".") || IsPunct(toks[j - 1], "->"))) {
          for (const char* mutator : kMutatingMembers) {
            if (toks[j].text == mutator) {
              out->push_back(Diagnostic{
                  "DC01", path, toks[j].line,
                  "mutating call '" + toks[j].text +
                      "' inside EAGLE_DCHECK — the expression disappears "
                      "in Release builds"});
            }
          }
        }
        continue;
      }
      bool mutating = toks[j].text == "++" || toks[j].text == "--";
      for (const char* op : kAssignOps) {
        if (toks[j].text == op) mutating = true;
      }
      if (mutating) {
        out->push_back(Diagnostic{
            "DC01", path, toks[j].line,
            "side-effecting operator '" + toks[j].text +
                "' inside EAGLE_DCHECK — the expression disappears in "
                "Release builds"});
      }
    }
  }
}

void CheckCheckpointMagic(const Tokens& toks, const std::string& path,
                          std::vector<Diagnostic>* out) {
  // Assembled from halves so the linter's own source (and this rule's
  // fixtures-by-name in tests) never contains the magic as one literal.
  const std::string magic = std::string("EAGL") + "CKP";
  int magic_line = 0;
  bool has_version_ref = false;
  std::string char_run;
  int char_run_line = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind == TokKind::kString &&
        tok.text.find(magic) != std::string::npos && magic_line == 0) {
      magic_line = tok.line;
    }
    if (IsIdent(tok, "kCheckpointFormatVersion")) has_version_ref = true;
    // Char-literal spelling: {'E','A','G','L','C','K','P','2'} — commas
    // and braces between single-char literals don't break the run.
    if (tok.kind == TokKind::kChar && tok.text.size() == 1) {
      if (char_run.empty()) char_run_line = tok.line;
      char_run += tok.text;
      if (char_run.find(magic) != std::string::npos && magic_line == 0) {
        magic_line = char_run_line;
      }
    } else if (tok.kind != TokKind::kPunct) {
      char_run.clear();
    }
  }
  if (magic_line != 0 && !has_version_ref) {
    out->push_back(Diagnostic{
        "CP01", path, magic_line,
        "checkpoint magic embedded without referencing "
        "kCheckpointFormatVersion — magic byte and format version must "
        "come from one constant"});
  }
}

void CheckWallClock(const Tokens& toks, const std::string& path,
                    std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "Stopwatch")) continue;
    // Member access `x.Stopwatch` / `x->Stopwatch` is some other API.
    if (i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      continue;
    }
    out->push_back(Diagnostic{
        "WC01", path, toks[i].line,
        "raw wall-clock read via 'Stopwatch' — hot-path code must time "
        "itself through EAGLE_SPAN / support::metrics so wall clock stays "
        "an observer (bit-identity at any --threads)"});
  }
}

void CheckHotPathAlloc(const Tokens& toks, const std::string& path,
                       std::vector<Diagnostic>* out) {
  // Allocator entry points that bypass the pools when called directly.
  static const char* const kAllocCalls[] = {
      "malloc", "calloc", "realloc", "aligned_alloc", "posix_memalign",
      "free",
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind == TokKind::kPp) {
      if (tok.text.find("include") == std::string::npos) continue;
      for (const char* type : kUnorderedTypes) {
        const std::string needle = std::string("<") + type + ">";
        if (tok.text.find(needle) != std::string::npos) {
          out->push_back(Diagnostic{
              "HP01", path, tok.line,
              "#include " + needle + " in a hot-path kernel file — use a "
              "flat epoch-stamped array in the arena/workspace layer"});
        }
      }
      continue;
    }
    if (tok.kind != TokKind::kIdentifier) continue;
    // Member access `x.free(...)` is some other API, not the allocator.
    const bool member_access =
        i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    if (tok.text == "new" && !member_access) {
      out->push_back(Diagnostic{
          "HP01", path, tok.line,
          "raw 'new' in a hot-path kernel file — take scratch from the "
          "tensor arena / SimWorkspace pools instead"});
      continue;
    }
    for (const char* call : kAllocCalls) {
      if (tok.text == call && !member_access && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")) {
        out->push_back(Diagnostic{
            "HP01", path, tok.line,
            "allocator call '" + tok.text + "' in a hot-path kernel file — "
            "take scratch from the tensor arena / SimWorkspace pools "
            "instead"});
      }
    }
    for (const char* type : kUnorderedTypes) {
      if (tok.text == type) {
        out->push_back(Diagnostic{
            "HP01", path, tok.line,
            "unordered container '" + tok.text + "' in a hot-path kernel "
            "file — use a flat epoch-stamped array (see SimWorkspace)"});
      }
    }
  }
}

void CheckRawNumericParse(const Tokens& toks, const std::string& path,
                          std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    // Member access `x.stoll(...)` is some other API, not the std one.
    if (i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      continue;
    }
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    for (const char* ident : kRawParseIdents) {
      if (toks[i].text == ident) {
        out->push_back(Diagnostic{
            "IN01", path, toks[i].line,
            "raw numeric conversion '" + toks[i].text +
                "' in the ingestion layer — use graph::ParseInt64 / "
                "graph::ParseDouble (parse_num.h) so failures become "
                "structured Status errors"});
      }
    }
  }
}

void CheckPragmaOnce(const Tokens& toks, const std::string& path,
                     std::vector<Diagnostic>* out) {
  if (!IsHeaderPath(path)) return;
  for (const Token& tok : toks) {
    if (tok.kind != TokKind::kPp) continue;
    // Normalize "#  pragma   once" -> "#pragma once".
    std::string compact;
    for (char c : tok.text) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        compact += c;
      } else if (!compact.empty() && compact.back() != ' ') {
        compact += ' ';
      }
    }
    if (compact == "#pragma once" || compact == "#pragma once ") return;
  }
  out->push_back(Diagnostic{
      "HS01", path, 1,
      "header is missing #pragma once — every header must be "
      "self-contained and include-once"});
}

// Dispatches every per-file (v1) rule that applies to `rel_path`.
// Cross-file rule ids in the table (LY01/ST01/LK01/HP02) are skipped —
// they run over the Index in Analyzer::Run.
void RunPerFileRules(const LexedFile& lexed, const Tokens& companion,
                     const std::string& rel_path,
                     std::vector<Diagnostic>* raw) {
  for (const RuleInfo& rule : Rules()) {
    if (!RuleApplies(rule, rel_path)) continue;
    if (rule.id == "ND01") {
      CheckNondeterminism(lexed.tokens, rel_path, raw);
    } else if (rule.id == "ND02") {
      CheckUnorderedIteration(lexed.tokens, companion, rel_path, raw);
    } else if (rule.id == "CC01") {
      CheckConcurrency(lexed.tokens, rel_path, raw);
    } else if (rule.id == "DC01") {
      CheckDcheckSideEffects(lexed.tokens, rel_path, raw);
    } else if (rule.id == "CP01") {
      CheckCheckpointMagic(lexed.tokens, rel_path, raw);
    } else if (rule.id == "HS01") {
      CheckPragmaOnce(lexed.tokens, rel_path, raw);
    } else if (rule.id == "WC01") {
      CheckWallClock(lexed.tokens, rel_path, raw);
    } else if (rule.id == "HP01") {
      CheckHotPathAlloc(lexed.tokens, rel_path, raw);
    } else if (rule.id == "IN01") {
      CheckRawNumericParse(lexed.tokens, rel_path, raw);
    }
  }
}

void SortDiagnostics(std::vector<Diagnostic>* diags) {
  std::stable_sort(diags->begin(), diags->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.col < b.col;
                   });
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> rules = MakeRules();
  return rules;
}

std::vector<Diagnostic> LintSource(const std::string& rel_path,
                                   const std::string& source,
                                   const std::string& companion_header) {
  const LexedFile lexed = Lex(source);
  const LexedFile companion = Lex(companion_header);
  const auto suppressions = CollectSuppressions(lexed.comments);

  std::vector<Diagnostic> raw;
  RunPerFileRules(lexed, companion.tokens, rel_path, &raw);

  std::vector<Diagnostic> kept;
  for (Diagnostic& d : raw) {
    const auto it = suppressions.find(d.line);
    if (it != suppressions.end() &&
        (it->second.count(d.rule) > 0 || it->second.count("all") > 0)) {
      continue;
    }
    kept.push_back(std::move(d));
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return kept;
}

void Analyzer::AddFile(const std::string& rel_path,
                       const std::string& source) {
  index_.AddFile(rel_path, source);
}

TreeResult Analyzer::Run() const {
  TreeResult result;
  std::vector<Diagnostic> raw;

  // Phase-2a: per-file rules over the already-lexed index. The companion
  // header for X.cpp comes from the index itself.
  static const Tokens kNoCompanion;
  for (const FileIndex& file : index_.files()) {
    const Tokens* companion = &kNoCompanion;
    if (EndsWith(file.path, ".cpp") || EndsWith(file.path, ".cc")) {
      const std::size_t dot = file.path.rfind('.');
      const FileIndex* header = index_.Find(file.path.substr(0, dot) + ".h");
      if (header != nullptr) companion = &header->lexed.tokens;
    }
    RunPerFileRules(file.lexed, *companion, file.path, &raw);
    ++result.files_scanned;
  }

  // Phase-2b: cross-file rules over the whole index.
  using CrossRule = std::vector<Diagnostic> (*)(const Index&);
  static const CrossRule kCrossRules[] = {
      &CheckLayering, &CheckDiscardedStatus, &CheckLockOrder,
      &CheckHotPathEscape};
  for (const CrossRule rule : kCrossRules) {
    std::vector<Diagnostic> diags = rule(index_);
    raw.insert(raw.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }

  // Suppressions apply uniformly, whichever phase produced the finding.
  for (Diagnostic& d : raw) {
    const FileIndex* file = index_.Find(d.file);
    if (file != nullptr) {
      const auto it = file->suppressions.find(d.line);
      if (it != file->suppressions.end() &&
          (it->second.count(d.rule) > 0 || it->second.count("all") > 0)) {
        ++result.suppressed;
        continue;
      }
    }
    result.diagnostics.push_back(std::move(d));
  }
  SortDiagnostics(&result.diagnostics);
  return result;
}

TreeResult LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  static const char* const kTopDirs[] = {"src", "bench", "tools", "tests",
                                         "examples"};
  std::vector<fs::path> files;
  for (const char* top : kTopDirs) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string generic = entry.path().generic_string();
      if (generic.find("lint_fixtures") != std::string::npos) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  Analyzer analyzer;
  const std::string root_prefix = (fs::path(root) / "").generic_string();
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::ostringstream content;
    content << in.rdbuf();
    std::string rel = file.generic_string();
    if (HasPrefix(rel, root_prefix)) rel = rel.substr(root_prefix.size());
    analyzer.AddFile(rel, content.str());
  }
  return analyzer.Run();
}

std::string FormatDiagnostic(const Diagnostic& d) {
  std::string severity = "error";
  for (const RuleInfo& rule : Rules()) {
    if (rule.id == d.rule) severity = rule.severity;
  }
  std::ostringstream os;
  os << d.file << ":" << d.line << ": " << severity << ": [" << d.rule << "] "
     << d.message;
  return os.str();
}

}  // namespace eagle::lint
