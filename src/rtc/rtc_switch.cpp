#include "rtc/rtc_switch.hpp"

#include <algorithm>
#include <cassert>

#include "packet/fields.hpp"

namespace adcp::rtc {

RtcSwitch::RtcSwitch(sim::Simulator& sim, const RtcConfig& config, sim::Scope scope)
    : hop::SwitchShell(sim, config, scope, "rtc"),
      config_(config),
      metrics_(scope_),
      shared_(config.eager_state) {
  proc_free_.assign(config.processors, 0);
}

void RtcSwitch::load_program(RtcProgram program) {
  assert(program.run && "RtcProgram::run is mandatory");
  install(program);
  run_ = std::move(program.run);
}

void RtcSwitch::on_rx(packet::Packet pkt) {
  pkt.meta.arrival = sim_->now();  // fully received; enters the dispatcher
  if (dispatch_queue_.packets() >= config_.dispatch_queue_packets) {
    drop(std::move(pkt), sim::DropReason::kAdmission, metrics_.queue_drops);
    return;
  }
  // The dispatch queue plays the TM role here: stamp its depth for INT.
  if (tap_ != nullptr) {
    pkt.meta.set_telem_depth(dispatch_queue_.packets());
  }
  spans_.instant(sim::SpanKind::kTmEnqueue, pkt.meta.trace_id, sim_->now(),
                 dispatch_queue_.packets() + 1);
  dispatch_queue_.push(std::move(pkt));
  try_dispatch();
}

void RtcSwitch::try_dispatch() {
  while (!dispatch_queue_.empty()) {
    const auto it = std::min_element(proc_free_.begin(), proc_free_.end());
    if (*it > sim_->now()) {
      // Every processor is busy; wake when the earliest frees up.
      if (!dispatch_pending_) {
        dispatch_pending_ = true;
        sim_->at(*it, [this] {
          dispatch_pending_ = false;
          try_dispatch();
        });
      }
      return;
    }

    packet::Packet pkt = *dispatch_queue_.pop();
    spans_.span(sim::SpanKind::kTmQueue, pkt.meta.trace_id, pkt.meta.arrival, sim_->now());
    const auto proc = static_cast<std::uint64_t>(it - proc_free_.begin());
    // A cache hit charges the memoized cycle count instead of running the
    // program.
    if (hop::Slot* s = fast_probe(pkt)) {
      *it = sim_->now() + busy(s->timing.work);
      spans_.span(sim::SpanKind::kIngress, s->pkt.meta.trace_id, sim_->now(), *it, proc,
                  s->timing.work);
      sim_->at(*it, [this, s] {
        finish_fast(s);
        try_dispatch();
      });
      continue;
    }
    hop::Slot* s = parse(pkt);
    if (s == nullptr) continue;

    const std::uint64_t work = run_(s->pr.phv, shared_, config_);
    *it = sim_->now() + busy(work);
    spans_.span(sim::SpanKind::kIngress, s->pkt.meta.trace_id, sim_->now(), *it, proc, work);
    s->timing = {0, 1, 0, work};
    sim_->at(*it, [this, s] {
      finish(s);
      try_dispatch();
    });
  }
}

void RtcSwitch::finish_fast(hop::Slot* s) {
  metrics_.latency.record(static_cast<double>(sim_->now() - s->pkt.meta.arrival));
  packet::Packet out = take_patched(s);
  const packet::PortId port = out.meta.egress_port;
  transmit(port, std::move(out));
}

void RtcSwitch::finish(hop::Slot* s) {
  metrics_.latency.record(static_cast<double>(sim_->now() - s->pkt.meta.arrival));
  if (program_drop(s)) return;
  const std::uint64_t group = s->pr.phv.get_or(packet::fields::kMetaMulticastGroup, 0);
  const std::uint64_t egress =
      s->pr.phv.get_or(packet::fields::kMetaEgressPort, packet::kInvalidPort);
  // Memoize unicast forward verdicts while the original bytes are intact.
  memoize(*s);
  packet::Packet out = finalize(s);

  const std::span<const packet::PortId> ports = destinations(group, egress, out);
  for (const packet::PortId port : ports) {
    transmit(port, ports.size() == 1 ? std::move(out) : out);
  }
}

}  // namespace adcp::rtc
