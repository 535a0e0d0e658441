// Inter-switch links.
//
// A Trunk connects one TX port of a switch to one RX port of another, in
// both directions. The sending switch already paid the serialization delay
// at its port rate when it handed the packet to its TxHandler, so the
// trunk only adds the Link's propagation delay and (optionally) its loss
// lottery — exactly mirroring what net::Host models on the host side of an
// edge port. Each direction belongs to its sending end: it counts, draws
// and records on the sender's clock and registry, then delivers through a
// local FIFO lane when both ends share a simulator, or through a
// cross-shard mailbox when a shard cut runs between them (sim/parallel.hpp).
// Dropped packets recycle into a packet::Pool so the warm forwarding path
// stays allocation-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/device.hpp"
#include "net/link.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace adcp::sim {
class Mailbox;
}

namespace adcp::topo {

/// A bidirectional point-to-point link between two switch ports. The
/// owning topology routes each switch's TX on the trunk port to
/// forward(side): side 0 carries a->b traffic, side 1 carries b->a.
class Trunk {
 public:
  /// One attachment point: a switch, its index in the owning topology, and
  /// the port the trunk occupies on it.
  struct End {
    net::SwitchDevice* device = nullptr;
    packet::PortId port = 0;
    std::size_t sw = 0;
  };

  /// What the sending end of one direction provides: its clock, the
  /// trunk's scope ("topo.trunk<i>") on its registry, the loss stream, the
  /// pool drops recycle into (null: drops are freed), and the mailbox to
  /// the far end's shard (null: both ends share a simulator).
  struct Sender {
    sim::Simulator* sim = nullptr;
    sim::Scope scope;
    sim::Rng* rng = nullptr;
    packet::Pool* drop_pool = nullptr;
    sim::Mailbox* mailbox = nullptr;
  };

  /// Registers "ab.{packets,bytes}" under `from_a.scope`, "ba.*" under
  /// `from_b.scope`, and "drops.link" under both (one counter when the two
  /// scopes share a registry).
  Trunk(End a, End b, net::Link link, const Sender& from_a, const Sender& from_b);
  // In-flight deliveries hold pointers to the far ends.
  Trunk(const Trunk&) = delete;
  Trunk& operator=(const Trunk&) = delete;

  /// Hands one just-transmitted packet to the wire. `side` names the
  /// transmitting end (0 = a, 1 = b); the packet is injected into the
  /// opposite end's switch after the propagation delay.
  void forward(int side, packet::Packet pkt);

  [[nodiscard]] const End& a() const { return halves_[1].to; }
  [[nodiscard]] const End& b() const { return halves_[0].to; }
  [[nodiscard]] const net::Link& link() const { return link_; }

  [[nodiscard]] std::uint64_t packets(int side) const { return halves_[side].packets->value(); }
  [[nodiscard]] std::uint64_t bytes(int side) const { return halves_[side].bytes->value(); }
  [[nodiscard]] std::uint64_t drops() const {
    const std::uint64_t ab = halves_[0].drops->value();
    return halves_[1].drops == halves_[0].drops ? ab : ab + halves_[1].drops->value();
  }

  /// Fraction of the link's capacity used by `side`'s traffic over
  /// `elapsed` picoseconds.
  [[nodiscard]] double utilization(int side, sim::Time elapsed) const {
    if (elapsed == 0 || link_.gbps <= 0.0) return 0.0;
    const double bits = static_cast<double>(bytes(side)) * 8.0;
    return bits * 1000.0 / (link_.gbps * static_cast<double>(elapsed));
  }

 private:
  /// One direction, living on its sending end's simulator.
  struct Half {
    End to;
    sim::Simulator* sim = nullptr;
    sim::Rng* rng = nullptr;            // not owned
    packet::Pool* drop_pool = nullptr;  // not owned
    sim::Counter* packets = nullptr;
    sim::Counter* bytes = nullptr;
    sim::Counter* drops = nullptr;
    sim::SpanRecorder spans;
    sim::Lane lane;                     // local delivery: arrivals in send order
    sim::Mailbox* mailbox = nullptr;    // cross-shard delivery
  };

  static void wire(Half& h, End to, const Sender& from, const char* dir);

  net::Link link_;
  std::array<Half, 2> halves_;  // [0] = ab, [1] = ba
};

}  // namespace adcp::topo
