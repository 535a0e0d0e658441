#include "topo/trunk.hpp"

#include <string>
#include <utility>

namespace adcp::topo {

Trunk::Trunk(End a, End b, net::Link link, const Sender& from_a, const Sender& from_b)
    : link_(link) {
  attach(halves_[0], b, from_a, "ab.");
  attach(halves_[1], a, from_b, "ba.");
}

void Trunk::attach(Half& h, End to, const Sender& from, const char* dir) {
  h.to = to;
  h.packets = &from.scope.counter(std::string(dir) + "packets");
  h.bytes = &from.scope.counter(std::string(dir) + "bytes");
  h.wire = net::Wire(*from.sim, from.scope, from.rng, link_.loss_rate, from.drop_pool,
                     from.mailbox);
}

void Trunk::forward(int side, packet::Packet pkt) {
  Half& h = halves_[side];
  h.packets->add();
  h.bytes->add(pkt.size());
  const sim::Time now = h.wire.sim->now();
  if (h.wire.lose(pkt, now)) return;
  const sim::Time arrival = now + link_.propagation;
  h.wire.spans.span(sim::SpanKind::kTrunk, pkt.meta.trace_id, now, arrival,
                    static_cast<std::uint64_t>(side), pkt.size());
  h.wire.deliver(arrival, [to = &h.to, pkt = std::move(pkt)]() mutable {
    to->device->inject(to->port, std::move(pkt));
  });
}

}  // namespace adcp::topo
