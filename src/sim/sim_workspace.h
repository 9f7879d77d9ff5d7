// Reusable per-run scratch state for ExecutionSimulator.
//
// One discrete-event run used to allocate a dozen vectors, two hash maps,
// and a priority_queue per device — every single call. A SimWorkspace
// keeps all of that storage alive between runs and replaces the hash maps
// with flat arrays indexed by `op * num_devices + device`, stamped with a
// per-run epoch counter so "reset" is bumping one integer instead of
// clearing O(ops × devices) entries. After the first run on a given graph
// shape the simulator performs no heap allocation at all (beyond the
// caller-visible StepResult).
//
// Workspaces are leased from a support::ResourcePool owned by the
// simulator, because Run() is const and called concurrently by the
// evaluation service; each in-flight run gets a private workspace.
//
// This header is, together with nn/arena.h (the one aligned allocator
// behind nn::Tensor), the sanctioned allocation layer for the hot path
// (eagle-lint HP01): simulator.cpp itself must not touch
// new/malloc/unordered_map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/op_graph.h"
#include "sim/device.h"
#include "sim/memory_model.h"

namespace eagle::sim {

// Ready-queue entry: ops ready earlier run first; ties broken by longer
// downstream critical path, then by id for determinism. The comparator is
// a strict total order, so any binary heap pops entries in exactly the
// same sequence — which is what lets the workspace drive std::push_heap /
// std::pop_heap over recycled vectors and still reproduce the historical
// std::priority_queue schedule bit-for-bit.
struct ReadyOp {
  double ready_time;
  int priority;
  graph::OpId op;

  bool operator>(const ReadyOp& other) const {
    if (ready_time != other.ready_time) return ready_time > other.ready_time;
    if (priority != other.priority) return priority < other.priority;
    return op > other.op;
  }
};

struct SimWorkspace {
  // A flat (op × device) entry is live only when its stamp equals `epoch`;
  // everything else is logically reset. Prepare() bumps the epoch.
  std::uint32_t epoch = 0;

  // Per-op scheduling state.
  std::vector<std::uint32_t> ready_epoch;
  std::vector<double> ready_time;
  std::vector<std::uint32_t> pending_epoch;
  std::vector<int> pending_inputs;

  // Per-device / per-channel availability.
  std::vector<double> device_free;
  std::vector<double> link_free;

  // Manual binary heaps (std::push_heap/pop_heap) so the backing vectors
  // survive across runs; priority_queue would own — and free — them.
  std::vector<std::vector<ReadyOp>> heaps;

  // Transfer dedup, exact key (producer, dst device, bytes): the primary
  // slot holds the first byte size shipped producer→dst this run; further
  // distinct sizes chain through the overflow pool via per-slot `next`
  // links, so a lookup walks only the sizes parked on *this* slot. (The
  // previous flat overflow vector was scanned end to end on every
  // mismatch, which made a producer feeding many distinct-size consumers
  // on one device O(out-edges × total-overflow) per run.)
  std::vector<std::uint32_t> transfer_epoch;   // op × device
  std::vector<std::int64_t> transfer_bytes;    // op × device
  std::vector<double> transfer_arrival;        // op × device
  // Head of the slot's overflow chain as index+1 into transfer_overflow
  // (0 = empty). Only meaningful while transfer_epoch[slot] == epoch, and
  // reset when the slot is stamped, so it needs no per-run clearing.
  std::vector<std::uint32_t> transfer_overflow_head;  // op × device
  struct TransferOverflow {
    std::int64_t bytes;
    double arrival;
    std::uint32_t next;  // index+1 of the next entry on this slot; 0 = end
  };
  std::vector<TransferOverflow> transfer_overflow;

  // Liveness accounting: (producer, device) -> index into
  // intervals[device], plus the interval storage itself and the event
  // scratch PeakLiveBytes sweeps over.
  std::vector<std::uint32_t> live_epoch;  // op × device
  std::vector<std::uint32_t> live_index;  // op × device
  std::vector<std::vector<LiveInterval>> intervals;
  std::vector<MemEvent> event_scratch;

  // Sizes storage for (num_ops, num_devices, num_channels) and starts a
  // fresh run epoch. O(devices + channels) when the shape is unchanged.
  void Prepare(int num_ops, int num_devices, int num_channels) {
    const std::size_t ops = static_cast<std::size_t>(num_ops);
    const std::size_t flat = ops * static_cast<std::size_t>(num_devices);
    if (ready_epoch.size() != ops || live_epoch.size() != flat) {
      ready_epoch.assign(ops, 0);
      ready_time.resize(ops);
      pending_epoch.assign(ops, 0);
      pending_inputs.resize(ops);
      transfer_epoch.assign(flat, 0);
      transfer_bytes.resize(flat);
      transfer_arrival.resize(flat);
      transfer_overflow_head.resize(flat);
      live_epoch.assign(flat, 0);
      live_index.resize(flat);
      epoch = 0;
    }
    device_free.assign(static_cast<std::size_t>(num_devices), 0.0);
    link_free.assign(static_cast<std::size_t>(num_channels), 0.0);
    heaps.resize(static_cast<std::size_t>(num_devices));
    for (auto& h : heaps) h.clear();
    intervals.resize(static_cast<std::size_t>(num_devices));
    for (auto& v : intervals) v.clear();
    transfer_overflow.clear();
    if (++epoch == 0) {
      // 2^32 runs wrapped the stamp; restamp everything once and move on.
      std::fill(ready_epoch.begin(), ready_epoch.end(), 0u);
      std::fill(pending_epoch.begin(), pending_epoch.end(), 0u);
      std::fill(transfer_epoch.begin(), transfer_epoch.end(), 0u);
      std::fill(live_epoch.begin(), live_epoch.end(), 0u);
      epoch = 1;
    }
  }
};

}  // namespace eagle::sim
