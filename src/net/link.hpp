// Point-to-point links: the full-duplex timing spec (Link) and one
// direction of it in flight (Wire).
#pragma once

#include <cstdint>
#include <utility>

#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace adcp::net {

/// A full-duplex link: rate plus propagation delay, with optional random
/// loss (models dirty optics / FEC escape; applied independently per
/// direction by the fabric).
struct Link {
  double gbps = 100.0;
  sim::Time propagation = 500 * sim::kNanosecond;  ///< ~100 m of fiber
  double loss_rate = 0.0;  ///< per-packet drop probability in [0, 1)

  /// Serialization time for `bytes` on this link.
  [[nodiscard]] sim::Time serialize(std::uint64_t bytes) const {
    return sim::serialization_time(bytes, gbps);
  }
};

/// One direction of a link — an access link's uplink or downlink, or one
/// half of a topo::Trunk. It belongs to its sending end: the loss lottery
/// draws, counts and records on the sender's stream, registry and clock,
/// and delivery goes through a local FIFO lane when both ends share a
/// simulator, or through a cross-shard mailbox when a shard cut runs
/// between them (sim/parallel.hpp). Nothing here knows which kind of link
/// it serves.
struct Wire {
  Wire() = default;
  /// Registers "drops.link" and the span recorder under `scope` (the
  /// sender's registry).
  Wire(sim::Simulator& clock, const sim::Scope& scope, sim::Rng* stream, double loss,
       packet::Pool* pool, sim::Mailbox* to_shard)
      : sim(&clock), rng(stream), loss_rate(loss), drop_pool(pool),
        drops(&scope.counter("drops.link")), spans(scope.span_recorder()),
        mailbox(to_shard) {}

  /// Draws the loss lottery for `pkt`. A lost packet is counted, marked
  /// with a kDrop instant at `stamp` and released to the drop pool (freed
  /// without one); returns true when that happened.
  bool lose(packet::Packet& pkt, sim::Time stamp) {
    if (rng == nullptr || loss_rate <= 0.0 || !rng->chance(loss_rate)) return false;
    drops->add();
    spans.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, stamp,
                  static_cast<std::uint64_t>(sim::DropReason::kLink));
    if (drop_pool != nullptr) drop_pool->release(std::move(pkt));
    return true;
  }

  /// Runs `fn` at `at` on the far end's simulator.
  template <typename F>
  void deliver(sim::Time at, F&& fn) {
    if (mailbox != nullptr) {
      mailbox->push(at, std::forward<F>(fn));
    } else {
      sim->at(lane, at, std::forward<F>(fn));
    }
  }

  sim::Simulator* sim = nullptr;
  sim::Rng* rng = nullptr;            // not owned; null = lossless
  double loss_rate = 0.0;
  packet::Pool* drop_pool = nullptr;  // not owned
  sim::Counter* drops = nullptr;
  sim::SpanRecorder spans;
  sim::Lane lane;                   // local delivery: arrivals in send order
  sim::Mailbox* mailbox = nullptr;  // cross-shard delivery (null = same shard)
};

/// Packets lost in both directions of a link. The wires share one counter
/// when their senders report into one registry; it is counted once.
inline std::uint64_t link_drops(const Wire& a, const Wire& b) {
  return b.drops == a.drops ? a.drops->value() : a.drops->value() + b.drops->value();
}

}  // namespace adcp::net
