#include "sim/placement.h"

#include <map>
#include <sstream>

#include "support/check.h"

namespace eagle::sim {

Placement::Placement(const graph::OpGraph& graph,
                     std::vector<DeviceId> device_per_op)
    : devices_(std::move(device_per_op)) {
  EAGLE_CHECK_MSG(static_cast<int>(devices_.size()) == graph.num_ops(),
                  "placement covers " << devices_.size() << " ops, graph has "
                                      << graph.num_ops());
}

Placement Placement::AllOnDevice(const graph::OpGraph& graph,
                                 const ClusterSpec& cluster, DeviceId device) {
  EAGLE_CHECK(device >= 0 && device < cluster.num_devices());
  Placement placement(graph, std::vector<DeviceId>(
                                 static_cast<std::size_t>(graph.num_ops()),
                                 device));
  placement.Normalize(graph, cluster);
  return placement;
}

DeviceId Placement::device(graph::OpId op) const {
  EAGLE_CHECK(op >= 0 && op < num_ops());
  return devices_[static_cast<std::size_t>(op)];
}

void Placement::Normalize(const graph::OpGraph& graph,
                          const ClusterSpec& cluster) {
  EAGLE_CHECK(static_cast<int>(devices_.size()) == graph.num_ops());
  const DeviceId cpu = cluster.FirstCpu();
  EAGLE_CHECK_MSG(cpu >= 0, "cluster has no CPU device for pinned ops");
  for (auto& d : devices_) {
    EAGLE_CHECK_MSG(d >= 0 && d < cluster.num_devices(),
                    "device id " << d << " out of range");
  }
  // Colocation leaders: the first op seen in each group decides.
  std::map<std::int32_t, DeviceId> leader;
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    const auto& op = graph.op(i);
    if (op.cpu_only) devices_[static_cast<std::size_t>(i)] = cpu;
    if (op.colocation_group >= 0) {
      auto [it, inserted] = leader.emplace(
          op.colocation_group, devices_[static_cast<std::size_t>(i)]);
      if (!inserted) devices_[static_cast<std::size_t>(i)] = it->second;
    }
  }
  // A cpu_only op inside a colocation group drags the group to CPU.
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    const auto& op = graph.op(i);
    if (op.colocation_group >= 0 && op.cpu_only) {
      leader[op.colocation_group] = cpu;
    }
  }
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    const auto& op = graph.op(i);
    if (op.colocation_group >= 0) {
      devices_[static_cast<std::size_t>(i)] = leader[op.colocation_group];
    }
  }
}

std::vector<int> Placement::OpsPerDevice(const ClusterSpec& cluster) const {
  std::vector<int> counts(static_cast<std::size_t>(cluster.num_devices()), 0);
  for (DeviceId d : devices_) counts[static_cast<std::size_t>(d)]++;
  return counts;
}

std::string Placement::ToString(const graph::OpGraph& graph,
                                const ClusterSpec& cluster) const {
  std::ostringstream os;
  const auto counts = OpsPerDevice(cluster);
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    os << cluster.device(d).name << ": " << counts[static_cast<std::size_t>(d)]
       << " ops";
    if (d + 1 < cluster.num_devices()) os << ", ";
  }
  (void)graph;
  return os.str();
}

}  // namespace eagle::sim
