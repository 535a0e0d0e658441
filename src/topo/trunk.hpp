// Inter-switch links.
//
// A Trunk connects one TX port of a switch to one RX port of another, in
// both directions. The sending switch already paid the serialization delay
// at its port rate when it handed the packet to its TxHandler, so the
// trunk only adds the Link's propagation delay and (optionally) its loss
// lottery. Each direction is a net::Wire — the same type a net::Host's
// access link uses — owned by its sending end: it draws and records on the
// sender's clock and registry, then delivers through a local FIFO lane or
// a cross-shard mailbox. The trunk adds only the far end and the
// per-direction packet/byte counters. Dropped packets recycle into a
// packet::Pool so the warm forwarding path stays allocation-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/device.hpp"
#include "net/link.hpp"
#include "sim/metrics.hpp"

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
    return net::link_drops(halves_[0].wire, halves_[1].wire);
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
    sim::Counter* packets = nullptr;
    sim::Counter* bytes = nullptr;
    net::Wire wire;
  };

  void attach(Half& h, End to, const Sender& from, const char* dir);

  net::Link link_;
  std::array<Half, 2> halves_;  // [0] = ab, [1] = ba
};

}  // namespace adcp::topo
