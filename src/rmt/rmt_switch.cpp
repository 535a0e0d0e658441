#include "rmt/rmt_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"

namespace adcp::rmt {

RmtSwitch::RmtSwitch(sim::Simulator& sim, const RmtConfig& config, sim::Scope scope)
    : hop::SwitchShell(sim, config, scope, "rmt"), config_(config), metrics_(scope_) {
  assert(config.port_count % config.pipeline_count == 0);
  pipeline::PipelineConfig pc;
  pc.stage_count = config.stages_per_pipeline;
  pc.clock_ghz = config.clock_ghz;
  pc.stage = config.stage;
  for (std::uint32_t i = 0; i < config.pipeline_count; ++i) {
    pc.name = "rmt-ingress-" + std::to_string(i);
    ingress_pipes_.emplace_back(pc);
    pc.name = "rmt-egress-" + std::to_string(i);
    egress_pipes_.emplace_back(pc);
  }
  tm::TmConfig tc;
  tc.outputs = config.port_count;
  tc.buffer_bytes = config.tm_buffer_bytes;
  tc.alpha = config.tm_alpha;
  tc.ecn_threshold_bytes = config.ecn_threshold_bytes;
  tc.track_watermark = config.tm_track_watermark;
  tm_.emplace(std::move(tc), scope_.scope("tm"));
  tm_->set_pool(&pool_);

  recirc_free_.assign(config.pipeline_count, 0);
  drain_pending_.assign(config.port_count, false);
}

void RmtSwitch::load_program(RmtProgram program) {
  install(program);
  for (std::uint32_t i = 0; i < config_.pipeline_count; ++i) {
    if (program.setup_ingress) program.setup_ingress(ingress_pipes_[i], i);
    if (program.setup_egress) program.setup_egress(egress_pipes_[i], i);
  }
}

void RmtSwitch::on_rx(packet::Packet pkt) {
  const std::uint32_t pipe = config_.pipeline_of_port(pkt.meta.ingress_port);
  pipeline::Pipeline& ingress = ingress_pipes_[pipe];
  if (hop::Slot* s = fast_probe(pkt)) {
    const pipeline::Transit tr = replay(ingress, s->timing);
    spans_.span(sim::SpanKind::kIngress, s->pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
                s->pkt.meta.ingress_port);
    sim_->at(tr.exit, [this, s] { after_ingress_fast(s); });
    return;
  }
  hop::Slot* s = parse(pkt);
  if (s == nullptr) return;
  s->pr.phv.set(packet::fields::kMetaRecircPass, s->pkt.meta.recirculations);
  const pipeline::Transit tr = ingress.process(sim_->now(), s->pr.phv);
  s->timing = timing_of(tr);  // kept for fast-path fills
  spans_.span(sim::SpanKind::kIngress, s->pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
              s->pkt.meta.ingress_port);
  sim_->at(tr.exit, [this, s] { after_ingress(s); });
}

void RmtSwitch::after_ingress_fast(hop::Slot* s) { enqueue(take_patched(s)); }

void RmtSwitch::after_ingress(hop::Slot* s) {
  if (program_drop(s)) return;
  const packet::Phv& phv = s->pr.phv;
  const std::uint64_t group = phv.get_or(packet::fields::kMetaMulticastGroup, 0);
  const std::uint64_t egress = phv.get_or(packet::fields::kMetaEgressPort,
                                          packet::kInvalidPort);
  const bool recirc_flag = phv.get_or(packet::fields::kMetaRecirc, 0) != 0;
  // Memoize unicast forward verdicts while the original bytes are intact.
  memoize(*s);

  // Deparsing preserves metadata (recirculation count included).
  packet::Packet out = finalize(s);
  out.meta.drop = false;
  const std::span<const packet::PortId> ports = destinations(group, egress, out);
  if (ports.empty()) return;

  if (group != 0) {
    out.meta.trace_mark = sim_->now();  // copies inherit it; read at dequeue
    const std::size_t admitted = tm_->enqueue_multicast(ports, 0, out);
    spans_.instant(sim::SpanKind::kTmEnqueue, out.meta.trace_id, sim_->now(), admitted,
                   ports.size());
    pool_.release(std::move(out));  // replicas were copies; retire the template
    for (const packet::PortId p : ports) try_drain(p);
    return;
  }
  out.meta.egress_port = ports[0];
  if (recirc_flag) out.meta.recirc_request = true;
  enqueue(std::move(out));
}

void RmtSwitch::enqueue(packet::Packet out) {
  const packet::PortId egress = out.meta.egress_port;
  tm_enqueue(*tm_, egress, std::move(out), /*stamp_depth=*/true);
  try_drain(egress);
}

void RmtSwitch::try_drain(packet::PortId port) {
  if (drain_pending_[port]) return;
  if (egress_fifo_full(port)) return;
  if (tm_->output_packets(port) == 0) return;
  drain_pending_[port] = true;
  sim_->at(sim_->now(), [this, port] { drain(port); });
}

void RmtSwitch::drain(packet::PortId port) {
  drain_pending_[port] = false;
  if (egress_fifo_full(port)) return;
  std::optional<packet::Packet> pkt = tm_->dequeue(port);
  if (!pkt) return;
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark,
              sim_->now(), port);
  if (!enter_egress(*pkt, port)) {
    try_drain(port);
    return;
  }

  // Keep the egress pipe fed: attempt the next dequeue when it can admit
  // another PHV.
  if (tm_->output_packets(port) > 0) {
    drain_pending_[port] = true;
    const pipeline::Pipeline& egress = egress_pipes_[config_.pipeline_of_port(port)];
    sim_->at(std::max(egress.next_free(), sim_->now()), [this, port] { drain(port); });
  }
}

bool RmtSwitch::enter_egress(packet::Packet& pkt, packet::PortId port) {
  const std::uint32_t pipe = config_.pipeline_of_port(port);
  pipeline::Pipeline& egress = egress_pipes_[pipe];
  pipeline::Transit tr;
  hop::Slot* s = fast_passthrough(hop::Edge::kEgress, pkt, egress, tr);
  const bool fast = s != nullptr;
  if (!fast) {
    s = parse(pkt);
    if (s == nullptr) return false;
    s->pr.phv.set(packet::fields::kMetaEgressPort, port);
    s->pr.phv.set(packet::fields::kMetaRecircPass, s->pkt.meta.recirculations);
    tr = egress.process(sim_->now(), s->pr.phv);
    learn_passthrough(hop::Edge::kEgress, tr);
  }
  spans_.span(sim::SpanKind::kEgress, s->pkt.meta.trace_id, sim_->now(), tr.exit, pipe, port);
  s->site = port;
  if (fast) {
    sim_->at(tr.exit, [this, s] {
      const packet::PortId port = s->site;
      transmit(port, take_patched(s));
    });
  } else {
    sim_->at(tr.exit, [this, s] { after_egress(s); });
  }
  return true;
}

void RmtSwitch::after_egress(hop::Slot* s) {
  const packet::PortId port = s->site;
  if (program_drop(s)) {
    try_drain(port);
    return;
  }
  const bool recirc = s->pkt.meta.recirc_request ||
                      s->pr.phv.get_or(packet::fields::kMetaRecirc, 0) != 0;
  packet::Packet out = finalize(s);
  if (recirc) {
    recirculate(std::move(out), config_.pipeline_of_port(port));
    try_drain(port);
    return;
  }
  // Only now does the packet occupy the small egress FIFO awaiting TX.
  transmit(port, std::move(out));
}

void RmtSwitch::recirculate(packet::Packet pkt, std::uint32_t pipe) {
  pkt.meta.recirc_request = false;
  ++pkt.meta.recirculations;
  if (pkt.meta.recirculations > config_.max_recirculations) {
    drop(std::move(pkt), sim::DropReason::kRecircLimit, metrics_.recirc_limit_drops);
    return;
  }
  metrics_.recirculations.add();
  metrics_.recirc_bytes.add(pkt.size());

  // The recirculation port re-serializes the packet into the target
  // pipeline at recirc_gbps — this is the bandwidth tax of §1 issue 1.
  sim::Time& free = recirc_free_[pipe];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), config_.recirc_gbps);
  spans_.span(sim::SpanKind::kRecirc, pkt.meta.trace_id, start, free, pipe,
              pkt.meta.recirculations);
  pkt.meta.ingress_port = pipe * config_.ports_per_pipeline();
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable { on_rx(std::move(pkt)); });
}

}  // namespace adcp::rmt
