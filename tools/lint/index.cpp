#include "index.h"

#include <algorithm>
#include <cstddef>

namespace eagle::lint {

namespace {

using Tokens = std::vector<Token>;

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool IsAnyIdent(const Token& t) { return t.kind == TokKind::kIdentifier; }

// Keywords that look like `name (` but never are calls or functions.
bool IsControlKeyword(const std::string& s) {
  static const char* const kWords[] = {
      "if",       "for",     "while",    "switch",        "catch",
      "return",   "sizeof",  "alignof",  "decltype",      "static_assert",
      "new",      "delete",  "case",     "throw",         "alignas",
      "noexcept", "typeid",  "co_await", "co_return",     "co_yield",
      "requires", "default", "using",    "static_cast",   "dynamic_cast",
      "const_cast", "reinterpret_cast", "assert",
  };
  for (const char* w : kWords) {
    if (s == w) return true;
  }
  return false;
}

// Skips a balanced <...> starting at tokens[i] == "<"; returns the index
// one past the closing ">". ">>" closes two levels. Returns i when the
// run does not look like template args (no closing before a ';').
std::size_t SkipTemplateArgs(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (IsPunct(toks[j], ";") || IsPunct(toks[j], "{")) return i;
    if (toks[j].kind != TokKind::kPunct) continue;
    if (toks[j].text == "<") ++depth;
    if (toks[j].text == ">") --depth;
    if (toks[j].text == ">>") depth -= 2;
    if (depth <= 0 && (toks[j].text == ">" || toks[j].text == ">>")) {
      return j + 1;
    }
  }
  return i;
}

// Returns the index of the matching ")" for the "(" at `open`.
std::size_t MatchParen(const Tokens& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (IsPunct(toks[j], "(")) ++depth;
    if (IsPunct(toks[j], ")")) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return toks.size();
}

// Walks back from `at` (exclusive) over an `A::B::name` chain; returns
// the index of the chain's first token. `at` is the name token's index.
std::size_t ChainStart(const Tokens& toks, std::size_t at) {
  std::size_t start = at;
  while (start >= 2 && IsPunct(toks[start - 1], "::") &&
         IsAnyIdent(toks[start - 2])) {
    start -= 2;
  }
  // A leading bare `::` (global qualifier).
  if (start >= 1 && IsPunct(toks[start - 1], "::")) --start;
  return start;
}

std::string JoinQualified(const Tokens& toks, std::size_t begin,
                          std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i <= end; ++i) out += toks[i].text;
  return out;
}

// Path normalization for include resolution: collapses "a/./b" and
// "a/x/../b" without touching the filesystem.
std::string NormalizePath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (cur == "..") {
        if (!parts.empty()) parts.pop_back();
      } else if (!cur.empty() && cur != ".") {
        parts.push_back(cur);
      }
      cur.clear();
    } else {
      cur += path[i];
    }
  }
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += '/';
    out += parts[i];
  }
  return out;
}

std::string DirName(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// Extracts the quoted path from one `#include "..."` directive, empty
// when the directive is not a quoted include.
std::string QuotedIncludeTarget(const std::string& pp_text) {
  std::size_t at = pp_text.find("include");
  if (at == std::string::npos) return "";
  at = pp_text.find('"', at);
  if (at == std::string::npos) return "";
  const std::size_t close = pp_text.find('"', at + 1);
  if (close == std::string::npos) return "";
  return pp_text.substr(at + 1, close - at - 1);
}

const char* const kLockTypes[] = {"lock_guard", "unique_lock", "scoped_lock",
                                  "shared_lock"};

const char* const kAllocCalls[] = {"malloc", "calloc", "realloc",
                                   "aligned_alloc", "posix_memalign"};

const char* const kAllocTemplates[] = {"make_unique", "make_shared"};

// ---------------------------------------------------------------------------
// Function-extent extraction: a single pass with a brace-context stack.

enum class BraceKind { kNamespace, kClassLike, kFunction, kOther };

struct BraceFrame {
  BraceKind kind;
  std::string class_name;  // for kClassLike
};

class FileScanner {
 public:
  FileScanner(const std::string& path, FileIndex* out)
      : path_(path), out_(out), toks_(out->lexed.tokens) {}

  void Run() {
    CollectIncludes();
    std::size_t i = 0;
    while (i < toks_.size()) {
      const Token& t = toks_[i];
      if (IsPunct(t, "{")) {
        OpenBrace(i);
        ++i;
        continue;
      }
      if (IsPunct(t, "}")) {
        CloseBrace();
        ++i;
        continue;
      }
      if (t.kind == TokKind::kPp || IsPunct(t, ";")) {
        stmt_start_ = i + 1;
        ++i;
        continue;
      }
      if (InFunction()) {
        i = ScanBodyToken(i);
        continue;
      }
      // Access specifiers reset the statement start at class scope.
      if (IsAnyIdent(t) && i + 1 < toks_.size() && IsPunct(toks_[i + 1], ":") &&
          (t.text == "public" || t.text == "private" ||
           t.text == "protected")) {
        stmt_start_ = i + 2;
        i += 2;
        continue;
      }
      if (IsPunct(t, "(") && i >= 1 && IsAnyIdent(toks_[i - 1]) &&
          !IsControlKeyword(toks_[i - 1].text)) {
        if (TryFunctionHeader(i)) {
          i = cursor_;  // resumes past the header (or inside the body)
          continue;
        }
      }
      ++i;
    }
  }

 private:
  bool InFunction() const {
    for (const BraceFrame& f : stack_) {
      if (f.kind == BraceKind::kFunction) return true;
    }
    return false;
  }

  std::string EnclosingClass() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == BraceKind::kClassLike) return it->class_name;
    }
    return "";
  }

  // Called on a `{` that was not consumed by TryFunctionHeader: namespace
  // and class heads, plus everything else (initializers, lambdas).
  void OpenBrace(std::size_t i) {
    BraceFrame frame{BraceKind::kOther, ""};
    if (!InFunction()) {
      // `namespace X {` / `namespace {`
      std::size_t j = i;
      if (j >= 1 && IsAnyIdent(toks_[j - 1]) &&
          toks_[j - 1].text == "namespace") {
        frame.kind = BraceKind::kNamespace;
      } else if (j >= 2 && IsAnyIdent(toks_[j - 1]) &&
                 IsIdent(toks_[j - 2], "namespace")) {
        frame.kind = BraceKind::kNamespace;
      } else {
        // `class/struct/union/enum NAME ... {` — scan back a bounded
        // window at paren balance 0 for the keyword.
        int balance = 0;
        for (std::size_t back = 0; back < 48 && back < i; ++back) {
          const Token& b = toks_[i - 1 - back];
          if (IsPunct(b, ")")) ++balance;
          if (IsPunct(b, "(")) --balance;
          if (IsPunct(b, ";") || IsPunct(b, "{") || IsPunct(b, "}") ||
              b.kind == TokKind::kPp) {
            break;
          }
          if (balance == 0 && b.kind == TokKind::kIdentifier &&
              (b.text == "class" || b.text == "struct" || b.text == "union" ||
               b.text == "enum")) {
            frame.kind = BraceKind::kClassLike;
            const std::size_t name_at = i - back;
            if (name_at < toks_.size() && IsAnyIdent(toks_[name_at])) {
              frame.class_name = toks_[name_at].text;
            }
            break;
          }
        }
      }
    }
    stack_.push_back(frame);
    if (frame.kind == BraceKind::kClassLike) {
      CollectMutexMembers(i, frame.class_name);
    }
    stmt_start_ = i + 1;
  }

  void CloseBrace() {
    if (stack_.empty()) return;
    // Locks acquired in the closing scope are released here.
    std::erase_if(active_locks_, [this](const auto& entry) {
      return entry.second >= stack_.size();
    });
    if (stack_.back().kind == BraceKind::kFunction && current_fn_ != 0) {
      current_fn_ = 0;
      active_locks_.clear();
    }
    stack_.pop_back();
  }

  // At `(` following an identifier at declaration scope: decide whether
  // this is a function declaration/definition. Returns true when it
  // consumed tokens (advanced past the header, or into the body).
  bool TryFunctionHeader(std::size_t open) {
    const std::size_t close = MatchParen(toks_, open);
    if (close >= toks_.size()) return false;

    // Name chain ends right before the '('.
    std::size_t name_at = open - 1;
    if (IsControlKeyword(toks_[name_at].text)) return false;
    const std::size_t chain_begin = ChainStart(toks_, name_at);
    // A member call `x.Foo(...)` or `new Foo(...)` is not a declaration.
    if (chain_begin >= 1) {
      const Token& before = toks_[chain_begin - 1];
      if (IsPunct(before, ".") || IsPunct(before, "->") ||
          IsIdent(before, "new") || IsIdent(before, "return")) {
        return false;
      }
    }

    // Scan past trailing qualifiers to find `{`, `;`, `=` or a ctor
    // init list `:`.
    std::size_t j = close + 1;
    bool is_def = false;
    bool is_decl = false;
    for (int steps = 0; j < toks_.size() && steps < 48; ++j, ++steps) {
      const Token& t = toks_[j];
      if (IsPunct(t, "{")) {
        is_def = true;
        break;
      }
      if (IsPunct(t, ";")) {
        is_decl = true;
        break;
      }
      if (IsPunct(t, "=")) {
        // `= default;` / `= delete;` / `= 0;` — declarations.
        is_decl = true;
        break;
      }
      if (IsPunct(t, ":")) {
        // Constructor initializer list: skip balanced groups to the
        // opening `{`.
        int depth = 0;
        for (++j; j < toks_.size(); ++j) {
          if (IsPunct(toks_[j], "(") || IsPunct(toks_[j], "{")) {
            if (depth == 0 && IsPunct(toks_[j], "{")) {
              is_def = true;
              break;
            }
            ++depth;
          } else if (IsPunct(toks_[j], ")") || IsPunct(toks_[j], "}")) {
            --depth;
          } else if (IsPunct(toks_[j], ";")) {
            break;
          }
        }
        break;
      }
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
           t.text == "final" || t.text == "mutable" || t.text == "try")) {
        continue;
      }
      if (IsPunct(t, "&") || IsPunct(t, "&&") || IsPunct(t, "->") ||
          IsPunct(t, "::") || IsPunct(t, "<") || IsPunct(t, ">") ||
          IsPunct(t, "*") || t.kind == TokKind::kIdentifier) {
        continue;  // trailing return type etc.
      }
      if (IsPunct(t, "(")) {
        // noexcept(...) — skip the group.
        j = MatchParen(toks_, j);
        continue;
      }
      return false;  // something that is not a function header
    }
    if (!is_def && !is_decl) return false;

    FunctionInfo fn;
    fn.name = toks_[name_at].text;
    fn.qualified = JoinQualified(toks_, chain_begin, name_at);
    fn.file = path_;
    fn.line = toks_[name_at].line;
    fn.col = toks_[name_at].col;
    fn.has_body = is_def;
    if (fn.qualified == fn.name) {
      const std::string cls = EnclosingClass();
      if (!cls.empty()) fn.qualified = cls + "::" + fn.name;
    }
    fn.returns_status = ReturnTypeIsStatusValue(chain_begin);
    out_->functions.push_back(std::move(fn));

    if (is_def) {
      stack_.push_back(BraceFrame{BraceKind::kFunction, ""});
      current_fn_ = out_->functions.size();  // 1-based into out_->functions
      lock_seq_ = 0;
      stmt_start_ = j + 1;
      cursor_ = j + 1;
      return true;
    }
    cursor_ = j + 1;
    stmt_start_ = j + 1;
    return true;
  }

  // True when the tokens between the statement start and the name chain
  // spell a by-value Status/StatusOr return type.
  bool ReturnTypeIsStatusValue(std::size_t chain_begin) {
    if (stmt_start_ >= chain_begin) return false;
    bool saw_status = false;
    for (std::size_t i = stmt_start_; i < chain_begin; ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "Status" || t.text == "StatusOr")) {
        saw_status = true;
        continue;
      }
      if (saw_status && (IsPunct(t, "&") || IsPunct(t, "*"))) return false;
    }
    return saw_status;
  }

  // One token inside a function body: records calls, lock sites and
  // direct allocations. Returns the next index to scan.
  std::size_t ScanBodyToken(std::size_t i) {
    const Token& t = toks_[i];
    if (t.kind != TokKind::kIdentifier) return i + 1;
    FunctionInfo& fn = out_->functions[current_fn_ - 1];

    // Lock-acquisition site?
    for (const char* lock_type : kLockTypes) {
      if (t.text != lock_type) continue;
      const std::size_t advanced = ScanLockSite(i, lock_type, &fn);
      if (advanced != i) return advanced;
    }

    const bool member_access =
        i >= 1 && (IsPunct(toks_[i - 1], ".") || IsPunct(toks_[i - 1], "->"));

    // Direct allocation?
    if (t.text == "new" && !member_access) {
      RecordAlloc(&fn, t, "new");
      return i + 1;
    }
    for (const char* call : kAllocCalls) {
      if (t.text == call && !member_access && i + 1 < toks_.size() &&
          IsPunct(toks_[i + 1], "(")) {
        RecordAlloc(&fn, t, t.text);
        return i + 1;
      }
    }
    for (const char* tmpl : kAllocTemplates) {
      if (t.text == tmpl && i + 1 < toks_.size() &&
          (IsPunct(toks_[i + 1], "<") || IsPunct(toks_[i + 1], "("))) {
        RecordAlloc(&fn, t, t.text);
        return i + 1;
      }
    }

    // Call site: `name (`, keywords excluded, `new Foo(` excluded.
    if (i + 1 < toks_.size() && IsPunct(toks_[i + 1], "(") &&
        !IsControlKeyword(t.text) &&
        !(i >= 1 && IsIdent(toks_[i - 1], "new"))) {
      fn.calls.push_back(CallSite{t.text, t.line, t.col});
    }
    return i + 1;
  }

  void RecordAlloc(FunctionInfo* fn, const Token& t, const std::string& what) {
    if (!fn->allocates) {
      fn->allocates = true;
      fn->alloc_line = t.line;
      fn->alloc_what = what;
    }
  }

  // Parses `lock_guard<...> name(args)` / `scoped_lock name(a, b)` at
  // token i. Returns the index after the closing ')' on success, or i
  // when this is not a lock declaration.
  std::size_t ScanLockSite(std::size_t i, const std::string& lock_type,
                           FunctionInfo* fn) {
    std::size_t j = i + 1;
    if (j < toks_.size() && IsPunct(toks_[j], "<")) {
      const std::size_t skipped = SkipTemplateArgs(toks_, j);
      if (skipped == j) return i;
      j = skipped;
    }
    if (j < toks_.size() && IsAnyIdent(toks_[j])) ++j;  // guard variable
    if (j >= toks_.size() || !IsPunct(toks_[j], "(")) return i;
    const std::size_t close = MatchParen(toks_, j);
    if (close >= toks_.size()) return i;

    LockSite site;
    site.line = toks_[i].line;
    site.col = toks_[i].col;
    site.depth = static_cast<int>(stack_.size());
    site.seq = lock_seq_++;
    for (const auto& [identity, depth] : active_locks_) {
      site.held.push_back(identity);
    }

    // Split args on top-level commas; normalize each.
    std::size_t arg_begin = j + 1;
    int depth = 0;
    for (std::size_t k = j + 1; k <= close; ++k) {
      const bool at_end = k == close;
      if (!at_end && (IsPunct(toks_[k], "(") || IsPunct(toks_[k], "<"))) {
        ++depth;
      }
      if (!at_end && (IsPunct(toks_[k], ")") || IsPunct(toks_[k], ">"))) {
        --depth;
      }
      if (at_end || (depth == 0 && IsPunct(toks_[k], ","))) {
        std::string identity = NormalizeMutexArg(arg_begin, k, *fn);
        if (!identity.empty()) site.mutexes.push_back(std::move(identity));
        arg_begin = k + 1;
      }
    }
    site.ordered = !(lock_type == "scoped_lock" && site.mutexes.size() > 1);
    for (const std::string& mutex : site.mutexes) {
      active_locks_.emplace_back(mutex, stack_.size());
    }
    if (!site.mutexes.empty()) fn->locks.push_back(std::move(site));
    return close + 1;
  }

  // Normalizes one mutex argument to a stable identity. A bare member
  // name is qualified with the enclosing function's class so `mutex_` in
  // ResourcePool and `mutex_` in ThreadPool never collide; tag arguments
  // (std::defer_lock etc.) are dropped.
  std::string NormalizeMutexArg(std::size_t begin, std::size_t end,
                                const FunctionInfo& fn) {
    std::string joined;
    int idents = 0;
    for (std::size_t k = begin; k < end; ++k) {
      const Token& t = toks_[k];
      if (IsIdent(t, "this")) continue;  // this->m_ and m_ are the same
      if (t.text == "defer_lock" || t.text == "adopt_lock" ||
          t.text == "try_to_lock") {
        return "";
      }
      if (t.kind == TokKind::kIdentifier) ++idents;
      if (IsPunct(t, "->")) {
        joined += ".";
        continue;
      }
      joined += t.text;
    }
    if (joined.empty()) return "";
    if (!joined.empty() && joined[0] == '.') joined = joined.substr(1);
    if (idents == 1 && joined.find('.') == std::string::npos &&
        joined.find("::") == std::string::npos) {
      const std::size_t sep = fn.qualified.rfind("::");
      if (sep != std::string::npos) {
        return fn.qualified.substr(0, sep) + "::" + joined;
      }
    }
    return joined;
  }

  // Records `std::mutex name_;` members declared directly inside a class
  // extent (bounded forward scan from the class's opening brace).
  void CollectMutexMembers(std::size_t open, const std::string& class_name) {
    if (class_name.empty()) return;
    int depth = 0;
    for (std::size_t j = open; j < toks_.size(); ++j) {
      if (IsPunct(toks_[j], "{")) ++depth;
      if (IsPunct(toks_[j], "}")) {
        --depth;
        if (depth == 0) break;
      }
      if (depth != 1) continue;
      const Token& t = toks_[j];
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "mutex" || t.text == "shared_mutex" ||
           t.text == "recursive_mutex") &&
          j + 2 < toks_.size() && IsAnyIdent(toks_[j + 1]) &&
          IsPunct(toks_[j + 2], ";")) {
        out_->mutex_members[class_name].insert(toks_[j + 1].text);
      }
    }
  }

  void CollectIncludes() {
    for (const Token& t : toks_) {
      if (t.kind != TokKind::kPp) continue;
      const std::string target = QuotedIncludeTarget(t.text);
      if (target.empty()) continue;
      out_->includes.push_back(IncludeSite{target, false, t.line});
    }
  }

  const std::string& path_;
  FileIndex* out_;
  const Tokens& toks_;
  std::vector<BraceFrame> stack_;
  std::size_t stmt_start_ = 0;
  std::size_t cursor_ = 0;
  std::size_t current_fn_ = 0;  // 1-based index into out_->functions
  std::size_t lock_seq_ = 0;
  // (mutex identity, brace depth at acquisition) for locks still live.
  std::vector<std::pair<std::string, std::size_t>> active_locks_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Suppressions: `// eagle-lint: allow(ND02)` covers the comment's own
// line(s) and the following line. allow(all) waives every rule.

std::map<int, std::set<std::string>> CollectSuppressions(
    const std::vector<Comment>& comments) {
  std::map<int, std::set<std::string>> allowed;
  const std::string marker = "eagle-lint:";
  for (const Comment& comment : comments) {
    std::size_t at = comment.text.find(marker);
    if (at == std::string::npos) continue;
    std::size_t pos = at + marker.size();
    while (true) {
      const std::size_t open = comment.text.find("allow(", pos);
      if (open == std::string::npos) break;
      const std::size_t close = comment.text.find(')', open);
      if (close == std::string::npos) break;
      const std::string rule = comment.text.substr(open + 6, close - open - 6);
      for (int line = comment.line; line <= comment.end_line + 1; ++line) {
        allowed[line].insert(rule);
      }
      pos = close + 1;
    }
  }
  return allowed;
}

// ---------------------------------------------------------------------------
// Index.

void Index::AddFile(const std::string& rel_path, const std::string& source) {
  finalized_ = false;
  files_.push_back(FileIndex{});
  FileIndex& file = files_.back();
  file.path = rel_path;
  file.lexed = Lex(source);
  file.suppressions = CollectSuppressions(file.lexed.comments);
  FileScanner(file.path, &file).Run();
}

const std::vector<FileIndex>& Index::files() const {
  Finalize();
  return files_;
}

const FileIndex* Index::Find(const std::string& path) const {
  Finalize();
  for (const FileIndex& file : files_) {
    if (file.path == path) return &file;
  }
  return nullptr;
}

const std::set<std::string>& Index::status_only_functions() const {
  Finalize();
  return status_only_;
}

std::vector<const FunctionInfo*> Index::Definitions(
    const std::string& name) const {
  Finalize();
  const auto it = defs_.find(name);
  if (it == defs_.end()) return {};
  return it->second;
}

void Index::Finalize() const {
  if (finalized_) return;
  finalized_ = true;

  // Include resolution against the indexed file set.
  std::set<std::string> known;
  for (const FileIndex& file : files_) known.insert(file.path);
  for (FileIndex& file : files_) {
    const std::string dir = DirName(file.path);
    for (IncludeSite& inc : file.includes) {
      const std::string raw = inc.target;
      const std::string candidates[] = {
          dir.empty() ? raw : NormalizePath(dir + "/" + raw),
          "src/" + raw,
          NormalizePath(raw),
      };
      for (const std::string& candidate : candidates) {
        if (known.count(candidate) > 0) {
          inc.target = candidate;
          inc.resolved = true;
          break;
        }
      }
    }
  }

  // Status-only function names and the definition map.
  std::map<std::string, std::pair<bool, bool>> verdicts;  // {status, other}
  defs_.clear();
  for (const FileIndex& file : files_) {
    for (const FunctionInfo& fn : file.functions) {
      auto& verdict = verdicts[fn.name];
      (fn.returns_status ? verdict.first : verdict.second) = true;
      if (fn.has_body) defs_[fn.name].push_back(&fn);
    }
  }
  status_only_.clear();
  for (const auto& [name, verdict] : verdicts) {
    if (verdict.first && !verdict.second) status_only_.insert(name);
  }
}

}  // namespace eagle::lint
