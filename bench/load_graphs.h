// --load / --cluster flag plumbing: import user graph files (.eg / .json)
// through the hardened ingestion pipeline for bench_micro's extra
// simulator rows, and resolve cluster topology specs for every bench.
//
// Kept separate from bench_common.h so bench_micro (which links only
// nn/sim/models, not the RL stack) can use it too.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "graph/ingest.h"
#include "sim/cluster_ingest.h"
#include "support/args.h"

namespace eagle::bench {

// Imports and validates every file in the comma-separated `list`;
// returns (row name, graph) pairs in order, the row name being the
// file's basename without extension ("runs/my_net.eg" → "my_net"). A
// malformed graph is a friendly exit 2 with the parser's
// file:line:column diagnostic on stderr — the same convention as the
// tools (inspect_model, trace_placement).
inline std::vector<std::pair<std::string, graph::OpGraph>> ImportGraphsOrExit(
    const std::string& list) {
  std::vector<std::pair<std::string, graph::OpGraph>> graphs;
  for (const std::string& path : support::SplitCommaList(list)) {
    support::StatusOr<graph::OpGraph> parsed = graph::ImportGraphFile(path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      std::exit(2);
    }
    graphs.emplace_back(std::filesystem::path(path).stem().string(),
                        std::move(parsed).value());
  }
  return graphs;
}

// Resolves a --cluster value (builtin name or spec file path) through
// sim::ResolveCluster; a malformed or unvalidatable spec is the same
// friendly exit 2 with the parser's file:line:column diagnostic.
inline sim::ClusterSpec ResolveClusterOrExit(const std::string& spec) {
  support::StatusOr<sim::ClusterSpec> cluster = sim::ResolveCluster(spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(cluster).value();
}

}  // namespace eagle::bench
