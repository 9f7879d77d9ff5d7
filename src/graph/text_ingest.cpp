#include "graph/text_ingest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "graph/parse_num.h"

namespace eagle::graph::reader {

namespace json = support::json;

namespace {

// Classifies a failed numeric conversion: a token that *tried* to be a
// number is an overflow, anything else is a syntax error.
ErrorCode NumericFailCode(std::string_view token) {
  return LooksNumeric(token) ? ErrorCode::kNumericOverflow
                             : ErrorCode::kSyntax;
}

// 1-based line:column of a byte offset, for JSON syntax diagnostics.
std::pair<int, int> LineColAt(const std::string& text, std::size_t offset) {
  const std::string_view before = std::string_view(text).substr(0, offset);
  const std::size_t line_start = before.rfind('\n') + 1;  // npos + 1 == 0
  return {1 + static_cast<int>(std::count(before.begin(), before.end(), '\n')),
          1 + static_cast<int>(before.size() - line_start)};
}

void TokenizeLine(std::string_view line, std::vector<Tok>* out) {
  out->clear();
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    out->push_back(Tok{line.substr(i, j - i), static_cast<int>(i) + 1});
    i = j;
  }
}

template <typename T>
bool InRange(T v, Range range) {
  switch (range) {
    case Range::kNonNegative:
      return v >= 0;
    case Range::kPositive:
      return v > 0;
    case Range::kGroupOrNone:
      return v >= -1 && v <= std::numeric_limits<std::int32_t>::max();
    default:
      return true;
  }
}

std::string What(const Field& field) {
  return field.what != nullptr ? std::string(field.what)
                               : std::string(field.key) + " value";
}

// The width a number for a T dest is read and range-checked at.
template <typename T>
using Wide =
    std::conditional_t<std::is_same_v<T, double>, double, std::int64_t>;

bool ParseNumber(std::string_view text, double* out) {
  return ParseDouble(text, out);
}
bool ParseNumber(std::string_view text, std::int64_t* out) {
  return ParseInt64(text, out);
}

// A JSON number as a finite double, or exactly as an int64.
bool JsonNumber(double v, double* out) {
  *out = v;
  return std::isfinite(v);
}
bool JsonNumber(double v, std::int64_t* out) { return JsonToInt64(v, out); }

}  // namespace

std::string Quote(std::string_view s) {
  std::string quoted(1, '\'');
  quoted.append(s).push_back('\'');
  return quoted;
}

bool JsonToInt64(double v, std::int64_t* out) {
  if (!std::isfinite(v) || std::floor(v) != v) return false;
  if (v < -9223372036854775808.0 || v >= 9223372036854775808.0) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

Status TextLine::Error(ErrorCode code, std::string message, int col) const {
  return Status::Error(code, std::move(message)).At(source, number, col);
}

Status TextLine::ReadValue(std::string_view text, int col,
                           const Field& field) const {
  return std::visit(
      [&](auto* dest) {
        using T = std::remove_pointer_t<decltype(dest)>;
        if constexpr (std::is_same_v<T, bool>) {
          *dest = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (field.range == Range::kNonEmpty && text.empty()) {
            return Error(ErrorCode::kSyntax, "empty " + What(field), col);
          }
          dest->assign(text);
        } else {
          Wide<T> v = 0;
          // A group id out of range reads as malformed, not as negative.
          if (!ParseNumber(text, &v) || (field.range == Range::kGroupOrNone &&
                                         !InRange(v, field.range))) {
            return Error(NumericFailCode(text),
                         "bad " + What(field) + " " + Quote(text), col);
          }
          if (!InRange(v, field.range)) {
            return Error(ErrorCode::kNumericOverflow,
                         field.range == Range::kPositive
                             ? std::string(field.key) +
                                   " must be positive, got " + Quote(text)
                             : "negative " + What(field) + " " + Quote(text),
                         col);
          }
          *dest = static_cast<T>(v);
        }
        return Status::Ok();
      },
      field.dest);
}

Status TextLine::ReadAttrs(std::size_t first,
                           std::initializer_list<Field> fields,
                           std::string_view label) const {
  for (std::size_t t = first; t < toks.size(); ++t) {
    const std::string_view attr = toks[t].text;
    const std::size_t eq = attr.find('=');
    const bool flag = eq == std::string_view::npos;
    const Field* match =
        std::find_if(fields.begin(), fields.end(), [&](const Field& field) {
          return attr.substr(0, eq) == field.key &&
                 flag == std::holds_alternative<bool*>(field.dest);
        });
    if (match == fields.end()) {
      return Error(ErrorCode::kSyntax,
                   "unknown " + std::string(label) + " " + Quote(attr),
                   toks[t].col);
    }
    const std::size_t skip = flag ? 0 : eq + 1;
    Status status = ReadValue(attr.substr(skip),
                              toks[t].col + static_cast<int>(skip), *match);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status ForEachLine(std::istream& in, const std::string& source,
                   const std::function<Status(const TextLine&)>& directive) {
  TextLine line{source};
  std::string text;
  while (std::getline(in, text)) {
    ++line.number;
    if (!text.empty() && text.back() == '\r') text.pop_back();
    TokenizeLine(text, &line.toks);
    if (line.toks.empty() || line.toks[0].text[0] == '#') continue;
    Status status = directive(line);
    if (!status.ok()) return status;
  }
  if (in.bad()) {
    return Status::Error(ErrorCode::kIo, "read error").At(source, line.number);
  }
  return Status::Ok();
}

Status ParseJsonRoot(const std::string& text, const std::string& source,
                     std::initializer_list<const char*> arrays,
                     json::Value* root) {
  std::string parse_error;
  std::size_t error_offset = 0;
  *root = json::Value::Parse(text, &parse_error, &error_offset);
  if (!parse_error.empty()) {
    const auto [line, col] = LineColAt(text, error_offset);
    return Status::Error(ErrorCode::kSyntax, "JSON " + parse_error)
        .At(source, line, col);
  }
  if (!root->is_object()) {
    return Status::Error(ErrorCode::kSyntax,
                         "top-level JSON value must be an object")
        .At(source, 1, 1);
  }
  for (const char* key : arrays) {
    const json::Value* array = root->Find(key);
    if (array == nullptr || !array->is_array()) {
      return Status::Error(ErrorCode::kSyntax,
                           std::string("missing or non-array \"") + key +
                               "\" field")
          .At(source);
    }
  }
  return Status::Ok();
}

Status JsonCtx::Error(ErrorCode code, std::string_view tail) const {
  std::string message = name;
  if (index) message.append("[").append(std::to_string(*index)).append("]");
  return Status::Error(code, message.append(tail)).At(source);
}

Status JsonCtx::Wrap(const Status& status) const {
  if (status.ok()) return status;
  return Error(status.code(), ": " + status.message());
}

Status ForEachObject(
    const json::Value& root, const char* name, const std::string& source,
    const std::function<Status(const json::Value&, const JsonCtx&)>& element) {
  const std::vector<json::Value>& items = root.Find(name)->items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const JsonCtx ctx{source, name, i};
    if (!items[i].is_object()) {
      return ctx.Error(ErrorCode::kSyntax, " is not an object");
    }
    Status status = element(items[i], ctx);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status JsonCtx::ReadFields(const json::Value& obj,
                           std::initializer_list<Field> fields) const {
  for (const Field& field : fields) {
    const json::Value* v = obj.Find(std::string(field.key));
    if (v == nullptr) continue;
    const auto key = [&] {
      return std::string("\"").append(field.key).append("\"");
    };
    Status status = std::visit(
        [&](auto* dest) {
          using T = std::remove_pointer_t<decltype(dest)>;
          if constexpr (std::is_same_v<T, bool>) {
            if (!v->is_bool()) {
              return Error(ErrorCode::kSyntax, " has a non-boolean " + key());
            }
            *dest = v->bool_value();
          } else if constexpr (std::is_same_v<T, std::string>) {
            const bool non_empty = field.range == Range::kNonEmpty;
            if (!v->is_string() || (non_empty && v->string_value().empty())) {
              return Error(ErrorCode::kSyntax,
                           (non_empty ? " has a non-string or empty "
                                      : " has a non-string ") + key());
            }
            *dest = v->string_value();
          } else {
            Wide<T> n = 0;
            if (!v->is_number() || !JsonNumber(v->number(), &n) ||
                !InRange(n, field.range)) {
              return Error(ErrorCode::kNumericOverflow,
                           " has a bad " + key() + " value");
            }
            *dest = static_cast<T>(n);
          }
          return Status::Ok();
        },
        field.dest);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace eagle::graph::reader
