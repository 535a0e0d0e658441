// The switch-side half of control-plane co-simulation.
//
// ControlPlane equips a fabric's hosted (edge) switches for runtime churn:
// each attached switch gets a mat::VersionedStore, the churn data-plane
// program (ctrl/programs.hpp) replacing the builder's plain routing
// program, and a management-port sink that stages kCtrlUpdate batches
// arriving over topo::Network's in-band control channel. Commits are armed
// by a batch's commit packet and applied at the next commit_tick boundary
// on the *switch's own shard*, so the pending -> active flip is a local,
// deterministic event for any PDES worker count.
//
// Capacity models the paper's architectural contrast: an ADCP switch's
// store is its global partitioned area (full store_capacity); an RMT
// switch must replicate entries into every ingress pipeline, so its
// effective capacity is store_capacity / pipeline_count.
#pragma once

#include <cstddef>
#include <map>
#include <memory>

#include "mat/versioned.hpp"
#include "sim/time.hpp"
#include "topo/network.hpp"

namespace adcp::ctrl {

struct ControlPlaneConfig {
  /// Table entries an ADCP switch can hold; RMT divides by pipeline_count.
  std::size_t store_capacity = 256;
  /// Batch commits apply at the next multiple of this tick.
  sim::Time commit_tick = 10 * sim::kMicrosecond;
};

class ControlPlane {
 public:
  /// The network must have been built with control_channel = true.
  ControlPlane(ControlPlaneConfig config, topo::Network& net);

  /// Equips switch `i` (must have a management port; RMT or ADCP tier).
  /// Aborts with a message when `i` is already attached, is an RTC switch,
  /// or runs the heavy-hitter sketch (telemetry.sketch), whose program the
  /// churn program would silently replace.
  void attach(std::size_t switch_index);
  /// Equips every switch that has a management port (aborts, as attach
  /// does, on any of them already attached).
  void attach_all();

  [[nodiscard]] mat::VersionedStore& store_of(std::size_t switch_index) {
    return *stores_.at(switch_index);
  }
  [[nodiscard]] bool attached(std::size_t switch_index) const {
    return stores_.contains(switch_index);
  }

  // Fabric-wide roll-ups over all attached stores (post-run reporting).
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
  [[nodiscard]] std::uint64_t total_staleness_misses() const;
  [[nodiscard]] std::uint64_t total_installs() const;

 private:
  ControlPlaneConfig config_;
  topo::Network* net_;
  std::map<std::size_t, std::unique_ptr<mat::VersionedStore>> stores_;
};

}  // namespace adcp::ctrl
