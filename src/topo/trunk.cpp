#include "topo/trunk.hpp"

#include <utility>

namespace adcp::topo {

void Trunk::forward(int side, packet::Packet pkt) {
  (side == 0 ? metrics_.ab_packets : metrics_.ba_packets).add();
  (side == 0 ? metrics_.ab_bytes : metrics_.ba_bytes).add(pkt.size());

  if (rng_ != nullptr && link_.loss_rate > 0.0 && rng_->chance(link_.loss_rate)) {
    metrics_.link_drops.add();
    spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kLink));
    if (pool_ != nullptr) pool_->release(std::move(pkt));
    return;
  }

  spans_.span(sim::SpanKind::kTrunk, pkt.meta.trace_id, sim_->now(),
              sim_->now() + link_.propagation, static_cast<std::uint64_t>(side),
              pkt.size());
  End* to = side == 0 ? &b_ : &a_;
  sim_->after(lanes_[side], link_.propagation, [to, pkt = std::move(pkt)]() mutable {
    to->device->inject(to->port, std::move(pkt));
  });
}

}  // namespace adcp::topo
