#include "topo/trunk.hpp"

#include <string>
#include <utility>

#include "sim/parallel.hpp"

namespace adcp::topo {

Trunk::Trunk(End a, End b, net::Link link, const Sender& from_a, const Sender& from_b)
    : link_(link) {
  wire(halves_[0], b, from_a, "ab.");
  wire(halves_[1], a, from_b, "ba.");
}

void Trunk::wire(Half& h, End to, const Sender& from, const char* dir) {
  h.to = to;
  h.sim = from.sim;
  h.rng = from.rng;
  h.drop_pool = from.drop_pool;
  h.mailbox = from.mailbox;
  h.packets = &from.scope.counter(std::string(dir) + "packets");
  h.bytes = &from.scope.counter(std::string(dir) + "bytes");
  h.drops = &from.scope.counter("drops.link");
  h.spans = from.scope.span_recorder();
}

void Trunk::forward(int side, packet::Packet pkt) {
  Half& h = halves_[side];
  h.packets->add();
  h.bytes->add(pkt.size());
  const sim::Time now = h.sim->now();

  if (link_.loss_rate > 0.0 && h.rng->chance(link_.loss_rate)) {
    h.drops->add();
    h.spans.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, now,
                    static_cast<std::uint64_t>(sim::DropReason::kLink));
    if (h.drop_pool != nullptr) h.drop_pool->release(std::move(pkt));
    return;
  }

  const sim::Time arrival = now + link_.propagation;
  h.spans.span(sim::SpanKind::kTrunk, pkt.meta.trace_id, now, arrival,
               static_cast<std::uint64_t>(side), pkt.size());
  auto deliver = [to = &h.to, pkt = std::move(pkt)]() mutable {
    to->device->inject(to->port, std::move(pkt));
  };
  if (h.mailbox != nullptr) {
    h.mailbox->push(arrival, std::move(deliver));
  } else {
    h.sim->at(h.lane, arrival, std::move(deliver));
  }
}

}  // namespace adcp::topo
