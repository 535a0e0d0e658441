// Inter-switch links.
//
// A Trunk connects one TX port of a switch to one RX port of another, in
// both directions. The sending switch already paid the serialization delay
// at its port rate when it handed the packet to its TxHandler, so the
// trunk only adds the Link's propagation delay and (optionally) its loss
// lottery — exactly mirroring what net::Host models on the host side of an
// edge port. Dropped packets recycle into the shared packet::Pool so the
// warm forwarding path stays allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/device.hpp"
#include "net/link.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace adcp::topo {

/// Registry-backed per-trunk counters, resolved once at construction.
struct TrunkMetrics {
  explicit TrunkMetrics(const sim::Scope& s)
      : ab_packets(s.counter("ab.packets")),
        ab_bytes(s.counter("ab.bytes")),
        ba_packets(s.counter("ba.packets")),
        ba_bytes(s.counter("ba.bytes")),
        link_drops(s.counter("drops.link")) {}

  sim::Counter& ab_packets;
  sim::Counter& ab_bytes;
  sim::Counter& ba_packets;
  sim::Counter& ba_bytes;
  sim::Counter& link_drops;
};

/// A bidirectional point-to-point link between two switch ports. The
/// owning topology routes each switch's TX on the trunk port to
/// forward(side): side 0 carries a->b traffic, side 1 carries b->a.
class Trunk {
 public:
  /// One attachment point: a switch and the port the trunk occupies on it.
  struct End {
    net::SwitchDevice* device = nullptr;
    packet::PortId port = 0;
  };

  /// `rng` drives the loss lottery when link.loss_rate > 0 (null =
  /// lossless); `pool` recycles dropped packets; `scope` names the trunk
  /// in a shared MetricRegistry (the Network passes "topo.trunk<i>");
  /// detached falls back to a private registry.
  Trunk(sim::Simulator& sim, End a, End b, net::Link link, sim::Rng* rng = nullptr,
        packet::Pool* pool = nullptr, sim::Scope scope = {})
      : sim_(&sim), a_(a), b_(b), link_(link), rng_(rng), pool_(pool),
        scope_(sim::resolve_scope(scope, own_metrics_, "trunk")), metrics_(scope_),
        spans_(scope_.span_recorder()) {}

  /// Hands one just-transmitted packet to the wire. `side` names the
  /// transmitting end (0 = a, 1 = b); the packet is injected into the
  /// opposite end's switch after the propagation delay.
  void forward(int side, packet::Packet pkt);

  [[nodiscard]] const End& a() const { return a_; }
  [[nodiscard]] const End& b() const { return b_; }
  [[nodiscard]] const net::Link& link() const { return link_; }

  [[nodiscard]] std::uint64_t packets(int side) const {
    return (side == 0 ? metrics_.ab_packets : metrics_.ba_packets).value();
  }
  [[nodiscard]] std::uint64_t bytes(int side) const {
    return (side == 0 ? metrics_.ab_bytes : metrics_.ba_bytes).value();
  }
  [[nodiscard]] std::uint64_t drops() const { return metrics_.link_drops.value(); }

  /// Fraction of the link's capacity used by `side`'s traffic over
  /// `elapsed` picoseconds.
  [[nodiscard]] double utilization(int side, sim::Time elapsed) const {
    if (elapsed == 0 || link_.gbps <= 0.0) return 0.0;
    const double bits = static_cast<double>(bytes(side)) * 8.0;
    return bits * 1000.0 / (link_.gbps * static_cast<double>(elapsed));
  }

 private:
  sim::Simulator* sim_;
  End a_;
  End b_;
  net::Link link_;
  sim::Rng* rng_;            // not owned; shared by the topology
  packet::Pool* pool_;       // not owned; shared by the topology
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  TrunkMetrics metrics_;
  sim::SpanRecorder spans_;
  std::array<sim::Lane, 2> lanes_;  // per direction: arrivals in send order
};

}  // namespace adcp::topo
