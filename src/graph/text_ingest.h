// The one reader behind both hardened importers: graph/ingest.h (.eg and
// graph JSON) and sim/cluster_ingest.h (.ec and cluster JSON). It owns
// the grammar machinery the formats share, so every diagnostic is worded
// and positioned in one place; the importers keep their directive and
// field tables and their semantic checks. Messages are built on the
// failure path only.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/json.h"
#include "support/status.h"

namespace eagle::graph::reader {

using support::ErrorCode;
using support::Status;
using support::StatusOr;

// "'<s>'": how diagnostics quote names and tokens.
std::string Quote(std::string_view s);

// Exact double→int64 conversion for JSON quantities; false on
// non-finite, fractional, or out-of-range values (a bare static_cast
// would be undefined behaviour on those).
bool JsonToInt64(double v, std::int64_t* out);

// Which values a field accepts beyond its type.
enum class Range {
  kAny,
  kNonNegative,  // numbers >= 0
  kPositive,     // numbers > 0
  kGroupOrNone,  // integers in [-1, INT32_MAX]: a colocation group, or -1
  kNonEmpty,     // strings of at least one character
};

// One field of a text directive or JSON object. In text a bool field is
// the bare flag `key` and any other is `key=<value>`; in JSON each is
// `"key": <value>` of the dest's type. An int32 dest is a colocation
// group and takes Range::kGroupOrNone, which bounds it.
struct Field {
  std::string_view key;
  std::variant<double*, std::int64_t*, std::int32_t*, bool*, std::string*>
      dest;
  Range range = Range::kAny;
  // The value's name in text diagnostics; nullptr means "<key> value".
  const char* what = nullptr;
};

// A whitespace-delimited token and the 1-based column it starts at.
struct Tok {
  std::string_view text;
  int col = 0;
};

// One directive line of a .eg/.ec input.
struct TextLine {
  const std::string& source;
  int number = 0;
  std::vector<Tok> toks;

  // `message` at this line and column `col`.
  Status Error(ErrorCode code, std::string message, int col) const;
  // Parses `text`, a value at column `col`, into `field`'s dest (a bool
  // dest is a flag that is present: it is set): "bad <what> '<v>'"
  // (numeric-overflow if it tried to be a number, else syntax), "negative
  // <what> '<v>'", "<key> must be positive, got '<v>'", "empty <what>".
  Status ReadValue(std::string_view text, int col, const Field& field) const;
  // Reads toks[first..] as attributes in `fields`, each value at the
  // column after its `key=`; any other token is "unknown <label> '<tok>'".
  Status ReadAttrs(std::size_t first, std::initializer_list<Field> fields,
                   std::string_view label) const;
};

// Feeds each line of `in` to `directive`, stopping at its first error.
// Trailing CRs are stripped; lines without tokens or whose first token
// starts with '#' are skipped. kIo "read error" when the stream fails.
Status ForEachLine(std::istream& in, const std::string& source,
                   const std::function<Status(const TextLine&)>& directive);

// Parses `text` into `*root`, an object with an array under each of
// `arrays`: else kSyntax "JSON <error>" at its line:column, "top-level
// JSON value must be an object" at 1:1, or "missing or non-array
// \"<key>\" field".
Status ParseJsonRoot(const std::string& text, const std::string& source,
                     std::initializer_list<const char*> arrays,
                     support::json::Value* root);

// Names a JSON object in diagnostics — an array element ("ops[3]") or a
// keyed member ("default_link") — which locates them in place of a line.
struct JsonCtx {
  const std::string& source;
  const char* name;
  std::optional<std::size_t> index;

  // "<name><tail>".
  Status Error(ErrorCode code, std::string_view tail) const;
  // "<name>: <message>" with the code of a failed semantic check; an ok
  // status passes through.
  Status Wrap(const Status& status) const;
  // Reads each member of `obj` named in `fields` into its dest, in table
  // order; absent members keep their defaults. Failures: "<name> has a
  // bad \"<key>\" value" (numbers), "has a non-boolean \"<key>\"", "has
  // a non-string \"<key>\"", "has a non-string or empty \"<key>\"".
  Status ReadFields(const support::json::Value& obj,
                    std::initializer_list<Field> fields) const;
};

// Feeds each element of the array `root[name]` (checked by
// ParseJsonRoot) to `element`, stopping at its first error; a non-object
// element is "<name>[i] is not an object".
Status ForEachObject(
    const support::json::Value& root, const char* name,
    const std::string& source,
    const std::function<Status(const support::json::Value&, const JsonCtx&)>&
        element);

// Belt and braces for the importers' no-throw contract: nothing in them
// should throw (every precondition of the builders they feed is checked
// first), but a latent bug must surface as a Status, not a terminate().
template <typename Fn>
auto NoThrow(const std::string& source, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "out of memory while parsing")
        .At(source);
  } catch (const std::exception& e) {
    return Status::Error(ErrorCode::kSyntax,
                         std::string("internal parser error: ") + e.what())
        .At(source);
  }
}

// Opens `path` and parses it with `parse_json` (whole text) when it ends
// in ".json", else with `parse_text` (the stream), under `opts` with the
// path as source name. kIo "cannot open <what> file" or "read error".
template <typename T, typename Opts>
StatusOr<T> ImportFile(const std::string& path, const char* what, Opts opts,
                       StatusOr<T> (*parse_text)(std::istream&, const Opts&),
                       StatusOr<T> (*parse_json)(const std::string&,
                                                 const Opts&)) {
  opts.source_name = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kIo,
                         std::string("cannot open ") + what + " file")
        .At(path);
  }
  if (!path.ends_with(".json")) return parse_text(in, opts);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Error(ErrorCode::kIo, "read error").At(path);
  return parse_json(buffer.str(), opts);
}

}  // namespace eagle::graph::reader
