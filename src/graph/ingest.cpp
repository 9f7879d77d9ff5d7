#include "graph/ingest.h"

#include <cstdint>
#include <istream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/text_ingest.h"
#include "support/json.h"

namespace eagle::graph {

using reader::JsonCtx;
using reader::Quote;
using reader::Range;
using reader::TextLine;
using support::ErrorCode;
using support::Status;
using support::StatusOr;
namespace json = support::json;

namespace {

// Kahn's algorithm with edge attribution: when a cycle exists, reports
// the first declared edge whose both endpoints failed to topologically
// drain — an edge on (or feeding) the cycle — with its source position
// when the caller tracked one.
Status CycleCheck(const OpGraph& graph,
                  const std::vector<std::pair<int, int>>& edge_sites,
                  const std::string& source_name) {
  const int n = graph.num_ops();
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const Edge& e : graph.edges()) {
    ++indeg[static_cast<std::size_t>(e.dst)];
  }
  std::vector<OpId> stack;
  for (OpId i = 0; i < n; ++i) {
    if (indeg[static_cast<std::size_t>(i)] == 0) stack.push_back(i);
  }
  int processed = 0;
  while (!stack.empty()) {
    const OpId u = stack.back();
    stack.pop_back();
    ++processed;
    for (std::int32_t ei : graph.out_edges(u)) {
      const OpId v = graph.edges()[static_cast<std::size_t>(ei)].dst;
      if (--indeg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
    }
  }
  if (processed == n) return Status::Ok();
  for (std::size_t i = 0; i < graph.edges().size(); ++i) {
    const Edge& e = graph.edges()[i];
    if (indeg[static_cast<std::size_t>(e.src)] > 0 &&
        indeg[static_cast<std::size_t>(e.dst)] > 0) {
      Status status = Status::Error(
          ErrorCode::kCycle, "edge " + Quote(graph.op(e.src).name) + " -> " +
                                 Quote(graph.op(e.dst).name) +
                                 " lies on a dependency cycle");
      if (i < edge_sites.size()) {
        status.At(source_name, edge_sites[i].first, edge_sites[i].second);
      } else {
        status.At(source_name);
      }
      return status;
    }
  }
  return Status::Error(ErrorCode::kCycle, "graph contains a cycle")
      .At(source_name);
}

// Caps + byte arithmetic + duplicate-name guard applied before an op is
// admitted; the pre-AddOp CheckedOpBytes call is load-bearing, since
// AddEdge's producer-size default multiplies the shape out unchecked.
Status CheckAddOp(OpGraph* graph, OpDef op, const IngestLimits& limits) {
  if (graph->FindOp(op.name) != kInvalidOp) {
    return Status::Error(ErrorCode::kDuplicateOp,
                         "op " + Quote(op.name) + " already declared");
  }
  if (graph->num_ops() >= limits.max_ops) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "graph exceeds the " +
                             std::to_string(limits.max_ops) + "-op limit");
  }
  if (op.output_shape.rank() > limits.max_rank) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "op " + Quote(op.name) + " has rank " +
                             std::to_string(op.output_shape.rank()) +
                             ", limit is " +
                             std::to_string(limits.max_rank));
  }
  std::int64_t bytes = 0;
  Status status = CheckedOpBytes(op, &bytes);
  if (!status.ok()) return status;
  graph->AddOp(std::move(op));
  return Status::Ok();
}

// Shared by both parsers once endpoints resolve to valid ids. `bytes`
// is either >= 0 or the -1 producer-size sentinel (negative values from
// the input must be rejected by the caller first).
Status CheckAddEdge(OpGraph* graph, std::set<std::pair<OpId, OpId>>* pairs,
                    OpId src, OpId dst, std::int64_t bytes,
                    const IngestLimits& limits) {
  if (src == dst) {
    return Status::Error(ErrorCode::kCycle,
                         "self edge on op " + Quote(graph->op(src).name));
  }
  if (!pairs->insert({src, dst}).second) {
    return Status::Error(ErrorCode::kDuplicateEdge,
                         "duplicate edge " + Quote(graph->op(src).name) +
                             " -> " + Quote(graph->op(dst).name));
  }
  if (graph->num_edges() >= limits.max_edges) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "graph exceeds the " +
                             std::to_string(limits.max_edges) +
                             "-edge limit");
  }
  graph->AddEdge(src, dst, bytes);
  return Status::Ok();
}

StatusOr<OpGraph> ParseTextImpl(std::istream& in, const IngestOptions& opts) {
  OpGraph graph;
  std::set<std::pair<OpId, OpId>> pairs;
  std::vector<std::pair<int, int>> edge_sites;
  const std::string& src_name = opts.source_name;

  Status status = reader::ForEachLine(in, src_name, [&](const TextLine& line) {
    const std::vector<reader::Tok>& toks = line.toks;
    if (toks[0].text == "op") {
      if (toks.size() < 4) {
        return line.Error(ErrorCode::kSyntax,
                          "op line needs: op <name> <type> <shape>",
                          toks[0].col);
      }
      OpDef op;
      op.name = std::string(toks[1].text);
      op.type = OpTypeFromName(std::string(toks[2].text));
      if (op.type == OpType::kNumOpTypes) {
        return line.Error(ErrorCode::kUnknownOp,
                          "unknown op type " + Quote(toks[2].text),
                          toks[2].col);
      }
      if (toks[3].text != "scalar") {
        std::vector<std::int64_t> dims;
        const std::string_view shape = toks[3].text;
        std::size_t start = 0;
        while (true) {
          const std::size_t x = shape.find('x', start);
          std::int64_t d = 0;
          // substr clamps: the last dimension runs to the end.
          Status dim = line.ReadValue(
              shape.substr(start, x - start),
              toks[3].col + static_cast<int>(start),
              {"", &d, Range::kNonNegative, "shape dimension"});
          if (!dim.ok()) return dim;
          dims.push_back(d);
          if (x == std::string_view::npos) break;
          start = x + 1;
        }
        op.output_shape = TensorShape(std::move(dims));
      }
      Status attrs = line.ReadAttrs(
          4,
          {{"flops", &op.flops, Range::kNonNegative},
           {"params", &op.param_bytes, Range::kNonNegative},
           {"temp", &op.temp_bytes, Range::kNonNegative},
           {"colo", &op.colocation_group, Range::kGroupOrNone,
            "colocation group"},
           {"cpu_only", &op.cpu_only},
           {"grad", &op.is_gradient},
           {"layer", &op.layer}},
          "attribute");
      if (!attrs.ok()) return attrs;
      // The name token's position doubles as the op's: every later
      // failure about this op (caps, byte overflow) points there.
      Status added = CheckAddOp(&graph, std::move(op), opts.limits);
      if (!added.ok()) return added.At(src_name, line.number, toks[1].col);
      return Status::Ok();
    }
    if (toks[0].text == "edge") {
      if (toks.size() < 3 || toks.size() > 4) {
        return line.Error(ErrorCode::kSyntax,
                          "edge line needs: edge <src> <dst> [bytes]",
                          toks[0].col);
      }
      OpId ends[2] = {kInvalidOp, kInvalidOp};
      for (int k = 0; k < 2; ++k) {
        ends[k] = graph.FindOp(std::string(toks[1 + k].text));
        if (ends[k] == kInvalidOp) {
          return line.Error(ErrorCode::kDanglingRef,
                            "unknown op " + Quote(toks[1 + k].text),
                            toks[1 + k].col);
        }
      }
      std::int64_t bytes = -1;  // producer output size
      if (toks.size() == 4) {
        Status read = line.ReadValue(
            toks[3].text, toks[3].col,
            {"", &bytes, Range::kNonNegative, "edge bytes"});
        if (!read.ok()) return read;
      }
      Status added =
          CheckAddEdge(&graph, &pairs, ends[0], ends[1], bytes, opts.limits);
      if (!added.ok()) return added.At(src_name, line.number, toks[1].col);
      edge_sites.emplace_back(line.number, toks[1].col);
      return Status::Ok();
    }
    return line.Error(ErrorCode::kSyntax,
                      "unknown directive " + Quote(toks[0].text), toks[0].col);
  });
  if (!status.ok()) return status;

  status = CycleCheck(graph, edge_sites, src_name);
  if (!status.ok()) return status;
  status = ValidateGraph(graph, opts.limits);
  if (!status.ok()) return status.At(src_name);
  return graph;
}

StatusOr<OpGraph> FromJsonImpl(const std::string& text,
                               const IngestOptions& opts) {
  const std::string& src_name = opts.source_name;
  json::Value root;
  Status status =
      reader::ParseJsonRoot(text, src_name, {"ops", "edges"}, &root);
  if (!status.ok()) return status;

  OpGraph graph;
  std::set<std::pair<OpId, OpId>> pairs;

  const auto read_op = [&](const json::Value& jop, const JsonCtx& ctx) {
    OpDef op;
    const json::Value* name = jop.Find("name");
    if (name == nullptr || !name->is_string() ||
        name->string_value().empty()) {
      return ctx.Error(ErrorCode::kSyntax, " has a missing or empty \"name\"");
    }
    op.name = name->string_value();

    const json::Value* type = jop.Find("type");
    if (type == nullptr || !type->is_string()) {
      return ctx.Error(ErrorCode::kSyntax, " has a missing \"type\"");
    }
    op.type = OpTypeFromName(type->string_value());
    if (op.type == OpType::kNumOpTypes) {
      return ctx.Error(ErrorCode::kUnknownOp,
                       ": unknown op type " + Quote(type->string_value()));
    }

    const json::Value* shape = jop.Find("shape");
    if (shape == nullptr || !shape->is_array()) {
      return ctx.Error(ErrorCode::kSyntax,
                       " has a missing or non-array \"shape\"");
    }
    std::vector<std::int64_t> dims;
    for (const json::Value& dim : shape->items()) {
      std::int64_t d = 0;
      if (!dim.is_number()) {
        return ctx.Error(ErrorCode::kSyntax,
                         " has a non-numeric shape dimension");
      }
      if (!reader::JsonToInt64(dim.number(), &d) || d < 0) {
        return ctx.Error(ErrorCode::kNumericOverflow,
                         " has a negative, fractional or overflowing shape "
                         "dimension");
      }
      dims.push_back(d);
    }
    op.output_shape = TensorShape(std::move(dims));

    Status fields = ctx.ReadFields(
        jop, {{"flops", &op.flops, Range::kNonNegative},
              {"param_bytes", &op.param_bytes, Range::kNonNegative},
              {"temp_bytes", &op.temp_bytes, Range::kNonNegative},
              {"cpu_only", &op.cpu_only},
              {"is_gradient", &op.is_gradient},
              {"layer", &op.layer},
              {"colocation", &op.colocation_group, Range::kGroupOrNone}});
    if (!fields.ok()) return fields;
    return ctx.Wrap(CheckAddOp(&graph, std::move(op), opts.limits));
  };
  status = reader::ForEachObject(root, "ops", src_name, read_op);
  if (!status.ok()) return status;

  const auto read_edge = [&](const json::Value& jedge, const JsonCtx& ctx) {
    OpId endpoints[2] = {kInvalidOp, kInvalidOp};
    const char* endpoint_keys[2] = {"src", "dst"};
    for (int k = 0; k < 2; ++k) {
      const std::string key = endpoint_keys[k];
      const json::Value* v = jedge.Find(key);
      if (v == nullptr || !v->is_number()) {
        return ctx.Error(ErrorCode::kSyntax,
                         " has a missing or non-numeric \"" + key + "\"");
      }
      std::int64_t id = 0;
      if (!reader::JsonToInt64(v->number(), &id)) {
        return ctx.Error(ErrorCode::kNumericOverflow,
                         " has a non-integer \"" + key + "\"");
      }
      if (id < 0 || id >= graph.num_ops()) {
        return ctx.Error(ErrorCode::kDanglingRef,
                         ": \"" + key + "\" " + std::to_string(id) +
                             " names no declared op");
      }
      endpoints[k] = static_cast<OpId>(id);
    }
    std::int64_t bytes = -1;  // producer output size
    Status fields =
        ctx.ReadFields(jedge, {{"bytes", &bytes, Range::kNonNegative}});
    if (!fields.ok()) return fields;
    return ctx.Wrap(CheckAddEdge(&graph, &pairs, endpoints[0], endpoints[1],
                                 bytes, opts.limits));
  };
  status = reader::ForEachObject(root, "edges", src_name, read_edge);
  if (!status.ok()) return status;

  status = CycleCheck(graph, {}, src_name);
  if (!status.ok()) return status;
  status = ValidateGraph(graph, opts.limits);
  if (!status.ok()) return status.At(src_name);
  return graph;
}

}  // namespace

StatusOr<OpGraph> ParseTextGraph(std::istream& in, const IngestOptions& opts) {
  return reader::NoThrow(opts.source_name,
                         [&] { return ParseTextImpl(in, opts); });
}

StatusOr<OpGraph> ParseTextGraph(const std::string& text,
                                 const IngestOptions& opts) {
  std::istringstream in(text);
  return ParseTextGraph(in, opts);
}

StatusOr<OpGraph> FromJson(const std::string& text,
                           const IngestOptions& opts) {
  return reader::NoThrow(opts.source_name,
                         [&] { return FromJsonImpl(text, opts); });
}

StatusOr<OpGraph> ImportGraphFile(const std::string& path,
                                  const IngestOptions& opts) {
  return reader::ImportFile(path, "graph", opts, ParseTextGraph, FromJson);
}

}  // namespace eagle::graph
