#include "sim/cluster_ingest.h"

#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/text_ingest.h"
#include "support/json.h"

namespace eagle::sim {

namespace reader = graph::reader;
using reader::JsonCtx;
using reader::Quote;
using reader::Range;
using reader::TextLine;
using support::ErrorCode;
using support::Status;
using support::StatusOr;
namespace json = support::json;

namespace {

// Shared parser state: name→id resolution, string channel labels mapped
// to dense integer labels in first-use order, duplicate-link detection.
struct Builder {
  ClusterSpec cluster;
  std::map<std::string, DeviceId, std::less<>> device_ids;
  std::map<std::string, int, std::less<>> channel_labels;
  std::set<std::pair<DeviceId, DeviceId>> link_pairs;

  // -1 (no shared channel) for an unlabelled link.
  int ChannelLabel(std::string_view name) {
    if (name.empty()) return -1;
    const auto it = channel_labels.find(name);
    if (it != channel_labels.end()) return it->second;
    const int label = static_cast<int>(channel_labels.size());
    channel_labels.emplace(std::string(name), label);
    return label;
  }
};

// The device kinds, spelled alike in both formats.
bool KindFromName(std::string_view name, DeviceKind* kind) {
  if (name != "cpu" && name != "gpu") return false;
  *kind = name == "cpu" ? DeviceKind::kCPU : DeviceKind::kGPU;
  return true;
}

// Caps + duplicate-name guard applied before a device is admitted.
Status CheckAddDevice(Builder* b, DeviceSpec device,
                      const ClusterLimits& limits) {
  if (b->device_ids.count(device.name) != 0) {
    return Status::Error(ErrorCode::kDuplicateOp,
                         "device " + Quote(device.name) +
                             " already declared");
  }
  if (b->cluster.num_devices() >= limits.max_devices) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "cluster exceeds the " +
                             std::to_string(limits.max_devices) +
                             "-device limit");
  }
  std::string name = device.name;
  const DeviceId id = b->cluster.AddDevice(std::move(device));
  b->device_ids.emplace(std::move(name), id);
  return Status::Ok();
}

// Shared by both parsers once endpoints resolve to valid ids; handles
// the bidir expansion so duplicate detection sees both directions.
Status CheckAddLink(Builder* b, DeviceId src, DeviceId dst, LinkSpec link,
                    int channel_label, bool bidir) {
  const auto& cluster = b->cluster;
  if (src == dst) {
    return Status::Error(ErrorCode::kCycle, "self link on device " +
                                                Quote(cluster.device(src).name));
  }
  const int directions = bidir ? 2 : 1;
  for (int k = 0; k < directions; ++k) {
    const DeviceId s = k == 0 ? src : dst;
    const DeviceId d = k == 0 ? dst : src;
    if (!b->link_pairs.insert({s, d}).second) {
      return Status::Error(ErrorCode::kDuplicateEdge,
                           "duplicate link " +
                               Quote(cluster.device(s).name) + " -> " +
                               Quote(cluster.device(d).name));
    }
    b->cluster.SetLink(s, d, link);
    if (channel_label >= 0) b->cluster.SetLinkChannel(s, d, channel_label);
  }
  return Status::Ok();
}

StatusOr<ClusterSpec> ParseTextImpl(std::istream& in,
                                    const ClusterIngestOptions& opts) {
  Builder b;
  const std::string& src_name = opts.source_name;
  bool saw_default_link = false;

  Status status = reader::ForEachLine(in, src_name, [&](const TextLine& line) {
    const std::vector<reader::Tok>& toks = line.toks;
    if (toks[0].text == "device") {
      if (toks.size() < 3) {
        return line.Error(
            ErrorCode::kSyntax,
            "device line needs: device <name> <cpu|gpu> [attrs]", toks[0].col);
      }
      DeviceSpec device;
      device.name = std::string(toks[1].text);
      if (!KindFromName(toks[2].text, &device.kind)) {
        return line.Error(ErrorCode::kSyntax,
                          "device kind must be 'cpu' or 'gpu', got " +
                              Quote(toks[2].text),
                          toks[2].col);
      }
      Status attrs = line.ReadAttrs(
          3,
          {{"gflops", &device.gflops, Range::kPositive},
           {"mem_bw", &device.mem_bw_gbps, Range::kPositive},
           {"overhead", &device.launch_overhead_us, Range::kNonNegative},
           {"mem", &device.memory_bytes, Range::kNonNegative}},
          "device attribute");
      if (!attrs.ok()) return attrs;
      Status added = CheckAddDevice(&b, std::move(device), opts.limits);
      if (!added.ok()) return added.At(src_name, line.number, toks[1].col);
      return Status::Ok();
    }
    if (toks[0].text == "default_link") {
      if (saw_default_link) {
        return line.Error(ErrorCode::kSyntax,
                          "duplicate default_link directive", toks[0].col);
      }
      LinkSpec link;
      Status attrs = line.ReadAttrs(
          1,
          {{"bw", &link.bandwidth_gbps, Range::kPositive},
           {"lat", &link.latency_us, Range::kNonNegative}},
          "default_link attribute");
      if (!attrs.ok()) return attrs;
      b.cluster.SetDefaultLink(link);
      saw_default_link = true;
      return Status::Ok();
    }
    if (toks[0].text == "link") {
      if (toks.size() < 3) {
        return line.Error(ErrorCode::kSyntax,
                          "link line needs: link <src> <dst> [bw=] [lat=] "
                          "[chan=] [bidir]",
                          toks[0].col);
      }
      DeviceId ends[2] = {-1, -1};
      for (int k = 0; k < 2; ++k) {
        const auto it = b.device_ids.find(toks[1 + k].text);
        if (it == b.device_ids.end()) {
          return line.Error(ErrorCode::kDanglingRef,
                            "unknown device " + Quote(toks[1 + k].text),
                            toks[1 + k].col);
        }
        ends[k] = it->second;
      }
      LinkSpec link;
      std::string channel;
      bool bidir = false;
      Status attrs = line.ReadAttrs(
          3,
          {{"bw", &link.bandwidth_gbps, Range::kPositive},
           {"lat", &link.latency_us, Range::kNonNegative},
           {"chan", &channel, Range::kNonEmpty, "channel label"},
           {"bidir", &bidir}},
          "link attribute");
      if (!attrs.ok()) return attrs;
      Status added = CheckAddLink(&b, ends[0], ends[1], link,
                                  b.ChannelLabel(channel), bidir);
      if (!added.ok()) return added.At(src_name, line.number, toks[1].col);
      return Status::Ok();
    }
    return line.Error(ErrorCode::kSyntax,
                      "unknown directive " + Quote(toks[0].text), toks[0].col);
  });
  if (!status.ok()) return status;

  status = b.cluster.Validate();
  if (!status.ok()) return status.At(src_name);
  return std::move(b.cluster);
}

StatusOr<ClusterSpec> FromJsonImpl(const std::string& text,
                                   const ClusterIngestOptions& opts) {
  const std::string& src_name = opts.source_name;
  json::Value root;
  Status status =
      reader::ParseJsonRoot(text, src_name, {"devices", "links"}, &root);
  if (!status.ok()) return status;

  Builder b;

  const auto read_device = [&](const json::Value& jdev, const JsonCtx& ctx) {
    DeviceSpec device;
    const json::Value* name = jdev.Find("name");
    if (name == nullptr || !name->is_string() ||
        name->string_value().empty()) {
      return ctx.Error(ErrorCode::kSyntax, " has a missing or empty \"name\"");
    }
    device.name = name->string_value();

    const json::Value* kind = jdev.Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return ctx.Error(ErrorCode::kSyntax, " has a missing \"kind\"");
    }
    if (!KindFromName(kind->string_value(), &device.kind)) {
      return ctx.Error(ErrorCode::kSyntax,
                       ": \"kind\" must be \"cpu\" or \"gpu\", got " +
                           Quote(kind->string_value()));
    }

    Status fields = ctx.ReadFields(
        jdev,
        {{"gflops", &device.gflops, Range::kPositive},
         {"mem_bw_gbps", &device.mem_bw_gbps, Range::kPositive},
         {"launch_overhead_us", &device.launch_overhead_us,
          Range::kNonNegative},
         {"memory_bytes", &device.memory_bytes, Range::kNonNegative}});
    if (!fields.ok()) return fields;
    return ctx.Wrap(CheckAddDevice(&b, std::move(device), opts.limits));
  };
  status = reader::ForEachObject(root, "devices", src_name, read_device);
  if (!status.ok()) return status;

  const json::Value* jdefault = root.Find("default_link");
  if (jdefault != nullptr) {
    if (!jdefault->is_object()) {
      return Status::Error(ErrorCode::kSyntax,
                           "\"default_link\" is not an object")
          .At(src_name);
    }
    LinkSpec link;
    status = JsonCtx{src_name, "default_link"}.ReadFields(
        *jdefault, {{"bandwidth_gbps", &link.bandwidth_gbps, Range::kPositive},
                    {"latency_us", &link.latency_us, Range::kNonNegative}});
    if (!status.ok()) return status;
    b.cluster.SetDefaultLink(link);
  }

  const auto read_link = [&](const json::Value& jlink, const JsonCtx& ctx) {
    DeviceId endpoints[2] = {-1, -1};
    const char* endpoint_keys[2] = {"src", "dst"};
    for (int k = 0; k < 2; ++k) {
      const std::string key = endpoint_keys[k];
      const json::Value* v = jlink.Find(key);
      if (v == nullptr || !v->is_string()) {
        return ctx.Error(ErrorCode::kSyntax,
                         " has a missing or non-string \"" + key + "\"");
      }
      const auto it = b.device_ids.find(v->string_value());
      if (it == b.device_ids.end()) {
        return ctx.Error(ErrorCode::kDanglingRef,
                         ": \"" + key + "\" " + Quote(v->string_value()) +
                             " names no declared device");
      }
      endpoints[k] = it->second;
    }
    LinkSpec link;
    std::string channel;
    bool bidir = false;
    Status fields = ctx.ReadFields(
        jlink, {{"bandwidth_gbps", &link.bandwidth_gbps, Range::kPositive},
                {"latency_us", &link.latency_us, Range::kNonNegative},
                {"channel", &channel, Range::kNonEmpty},
                {"bidir", &bidir}});
    if (!fields.ok()) return fields;
    return ctx.Wrap(CheckAddLink(&b, endpoints[0], endpoints[1], link,
                                 b.ChannelLabel(channel), bidir));
  };
  status = reader::ForEachObject(root, "links", src_name, read_link);
  if (!status.ok()) return status;

  status = b.cluster.Validate();
  if (!status.ok()) return status.At(src_name);
  return std::move(b.cluster);
}

}  // namespace

StatusOr<ClusterSpec> ParseTextCluster(std::istream& in,
                                       const ClusterIngestOptions& opts) {
  return reader::NoThrow(opts.source_name,
                         [&] { return ParseTextImpl(in, opts); });
}

StatusOr<ClusterSpec> ParseTextCluster(const std::string& text,
                                       const ClusterIngestOptions& opts) {
  std::istringstream in(text);
  return ParseTextCluster(in, opts);
}

StatusOr<ClusterSpec> ClusterFromJson(const std::string& text,
                                      const ClusterIngestOptions& opts) {
  return reader::NoThrow(opts.source_name,
                         [&] { return FromJsonImpl(text, opts); });
}

StatusOr<ClusterSpec> ImportClusterFile(const std::string& path,
                                        const ClusterIngestOptions& opts) {
  return reader::ImportFile(path, "cluster", opts, ParseTextCluster,
                            ClusterFromJson);
}

StatusOr<ClusterSpec> ResolveCluster(const std::string& spec,
                                     const ClusterIngestOptions& opts) {
  if (spec.empty() || spec == "default") return MakeDefaultCluster();
  if (spec == "2node8") return MakeTwoNodeNvlinkIbCluster();
  if (spec == "mixed") return MakeMixedSpeedCluster();
  return ImportClusterFile(spec, opts);
}

}  // namespace eagle::sim
