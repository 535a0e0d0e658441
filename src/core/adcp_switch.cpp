#include "core/adcp_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "tm/placement.hpp"

namespace adcp::core {

AdcpSwitch::AdcpSwitch(sim::Simulator& sim, const AdcpConfig& config, sim::Scope scope)
    : hop::SwitchShell(sim, config, scope, "adcp"), config_(config) {
  pipeline::PipelineConfig pc;
  pc.stage_count = config.edge_stages;
  pc.clock_ghz = config.edge_clock_ghz;
  pc.stage = config.edge_stage;
  for (std::uint32_t i = 0; i < config.edge_pipeline_count(); ++i) {
    pc.name = "adcp-ingress-" + std::to_string(i);
    ingress_pipes_.emplace_back(pc);
    pc.name = "adcp-egress-" + std::to_string(i);
    egress_pipes_.emplace_back(pc);
  }
  pipeline::PipelineConfig cc;
  cc.stage_count = config.central_stages;
  cc.clock_ghz = config.central_clock_ghz;
  cc.stage = config.central_stage;
  for (std::uint32_t i = 0; i < config.central_pipeline_count; ++i) {
    cc.name = "adcp-central-" + std::to_string(i);
    central_pipes_.emplace_back(cc);
  }

  rr_demux_.assign(config.port_count, 0);
  central_pending_.assign(config.central_pipeline_count, false);
  egress_pending_.assign(config.edge_pipeline_count(), false);
}

void AdcpSwitch::load_program(AdcpProgram program) {
  assert(program.placement && "AdcpProgram::placement is mandatory (§3.1)");
  install(program);
  placement_ = std::move(program.placement);
  demux_ = std::move(program.demux);
  egress_demux_ = std::move(program.egress_demux);

  for (std::uint32_t i = 0; i < config_.edge_pipeline_count(); ++i) {
    if (program.setup_ingress) program.setup_ingress(ingress_pipes_[i], i);
    if (program.setup_egress) program.setup_egress(egress_pipes_[i], i);
  }
  for (std::uint32_t i = 0; i < config_.central_pipeline_count; ++i) {
    if (program.setup_central) program.setup_central(central_pipes_[i], i);
  }

  tm::TmConfig t1;
  t1.outputs = config_.central_pipeline_count;
  t1.buffer_bytes = config_.tm1_buffer_bytes;
  t1.alpha = config_.tm1_alpha;
  t1.make_scheduler = std::move(program.tm1_scheduler);
  t1.track_watermark = config_.tm_track_watermark;
  tm1_.emplace(std::move(t1), scope_.scope("tm1"));

  tm::TmConfig t2;
  t2.outputs = config_.edge_pipeline_count();
  t2.buffer_bytes = config_.tm2_buffer_bytes;
  t2.alpha = config_.tm2_alpha;
  t2.ecn_threshold_bytes = config_.ecn_threshold_bytes;
  t2.make_scheduler = std::move(program.tm2_scheduler);
  t2.track_watermark = config_.tm_track_watermark;
  tm2_.emplace(std::move(t2), scope_.scope("tm2"));
  tm1_->set_pool(&pool_);
  tm2_->set_pool(&pool_);
}

void AdcpSwitch::kick_central(std::uint32_t cp) { try_drain_central(cp); }

void AdcpSwitch::on_rx(packet::Packet pkt) {
  // RX + parse happen at port speed (§3.3: "parsing still needs to be done
  // at port speed"); only then is the PHV handed to a slower edge pipeline.
  const packet::PortId port = pkt.meta.ingress_port;
  std::uint32_t sub = 0;
  if (demux_) {
    sub = demux_(pkt) % config_.demux_factor;
  } else {
    sub = rr_demux_[port];
    rr_demux_[port] = (sub + 1) % config_.demux_factor;
  }
  const std::uint32_t edge_pipe = config_.edge_pipe_index(port, sub);
  pipeline::Pipeline& ingress = ingress_pipes_[edge_pipe];
  pipeline::Transit tr;
  hop::Slot* s = fast_passthrough(hop::Edge::kIngress, pkt, ingress, tr);
  const bool fast = s != nullptr;
  if (!fast) {
    s = parse(pkt);
    if (s == nullptr) return;
    tr = ingress.process(sim_->now(), s->pr.phv);
    learn_passthrough(hop::Edge::kIngress, tr);
  }
  spans_.span(sim::SpanKind::kIngress, s->pkt.meta.trace_id, sim_->now(), tr.exit, edge_pipe);
  if (fast) {
    sim_->at(tr.exit, [this, s] { enqueue_central(take_patched(s)); });
  } else {
    sim_->at(tr.exit, [this, s] { after_ingress(s); });
  }
}

void AdcpSwitch::after_ingress(hop::Slot* s) {
  if (program_drop(s)) return;
  enqueue_central(finalize(s));
}

void AdcpSwitch::enqueue_central(packet::Packet pkt) {
  const std::uint32_t cp = placement_(pkt) % config_.central_pipeline_count;
  tm_enqueue(*tm1_, cp, std::move(pkt), /*stamp_depth=*/false);
  try_drain_central(cp);
}

void AdcpSwitch::try_drain_central(std::uint32_t cp) {
  if (central_pending_[cp]) return;
  if (tm1_->output_packets(cp) == 0) return;
  central_pending_[cp] = true;
  sim_->at(sim_->now(), [this, cp] { drain_central(cp); });
}

void AdcpSwitch::drain_central(std::uint32_t cp) {
  central_pending_[cp] = false;
  std::optional<packet::Packet> pkt = tm1_->dequeue(cp);
  if (!pkt) return;  // empty, or a strict merge is holding back
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark,
              sim_->now(), cp);
  if (!enter_central(*pkt, cp)) {
    try_drain_central(cp);
    return;
  }

  // Keep the central pipe fed.
  if (tm1_->output_packets(cp) > 0) {
    central_pending_[cp] = true;
    sim_->at(std::max(central_pipes_[cp].next_free(), sim_->now()),
             [this, cp] { drain_central(cp); });
  }
}

bool AdcpSwitch::enter_central(packet::Packet& pkt, std::uint32_t cp) {
  pipeline::Pipeline& central = central_pipes_[cp];
  if (hop::Slot* s = fast_probe(pkt)) {
    const pipeline::Transit tr = replay(central, s->timing);
    spans_.span(sim::SpanKind::kCentral, s->pkt.meta.trace_id, sim_->now(), tr.exit, cp);
    sim_->at(tr.exit, [this, s] { route_to_egress(take_patched(s)); });
    return true;
  }
  hop::Slot* s = parse(pkt);
  if (s == nullptr) return false;
  s->pr.phv.set(packet::fields::kMetaCentralPipe, cp);
  const pipeline::Transit tr = central.process(sim_->now(), s->pr.phv);
  s->timing = timing_of(tr);  // kept for fast-path fills
  spans_.span(sim::SpanKind::kCentral, s->pkt.meta.trace_id, sim_->now(), tr.exit, cp);
  sim_->at(tr.exit, [this, s] { after_central(s); });
  return true;
}

void AdcpSwitch::after_central(hop::Slot* s) {
  if (program_drop(s)) return;
  const std::uint64_t group = s->pr.phv.get_or(packet::fields::kMetaMulticastGroup, 0);
  const std::uint64_t egress =
      s->pr.phv.get_or(packet::fields::kMetaEgressPort, packet::kInvalidPort);
  // Memoize unicast forward verdicts while the original bytes are intact.
  memoize(*s);
  packet::Packet out = finalize(s);
  const std::span<const packet::PortId> ports = destinations(group, egress, out);
  if (ports.empty()) return;

  if (group == 0) {
    out.meta.egress_port = ports[0];
    route_to_egress(std::move(out));
    return;
  }
  for (const packet::PortId port : ports) {
    packet::Packet copy = pool_.acquire();
    copy.data = out.data;
    copy.meta = out.meta;
    copy.meta.egress_port = port;
    route_to_egress(std::move(copy));
  }
  pool_.release(std::move(out));  // replicas were copies; retire the template
}

void AdcpSwitch::route_to_egress(packet::Packet pkt) {
  // TM2 behaves as a classic scheduler. The egress sub-pipeline choice
  // defaults to a flow-id hash so each flow stays in order across the m:1
  // TX mux (programs may override via AdcpProgram::egress_demux).
  const packet::PortId port = pkt.meta.egress_port;
  std::uint32_t sub = 0;
  if (egress_demux_) {
    sub = egress_demux_(pkt) % config_.demux_factor;
  } else {
    sub = static_cast<std::uint32_t>(tm::placement::mix(pkt.meta.flow_id) %
                                     config_.demux_factor);
  }
  const std::uint32_t edge_pipe = config_.edge_pipe_index(port, sub);
  tm_enqueue(*tm2_, edge_pipe, std::move(pkt), /*stamp_depth=*/true);
  try_drain_egress(edge_pipe);
}

void AdcpSwitch::kick_port_egress(std::uint32_t port) {
  // The in-flight cap is per PORT; freeing a slot may unblock any of the
  // port's m egress sub-pipelines.
  for (std::uint32_t sub = 0; sub < config_.demux_factor; ++sub) {
    try_drain_egress(config_.edge_pipe_index(port, sub));
  }
}

void AdcpSwitch::try_drain_egress(std::uint32_t edge_pipe) {
  if (egress_pending_[edge_pipe]) return;
  if (egress_fifo_full(config_.port_of_edge_pipe(edge_pipe))) return;
  if (tm2_->output_packets(edge_pipe) == 0) return;
  egress_pending_[edge_pipe] = true;
  sim_->at(sim_->now(), [this, edge_pipe] { drain_egress(edge_pipe); });
}

void AdcpSwitch::drain_egress(std::uint32_t edge_pipe) {
  egress_pending_[edge_pipe] = false;
  if (egress_fifo_full(config_.port_of_edge_pipe(edge_pipe))) return;
  std::optional<packet::Packet> pkt = tm2_->dequeue(edge_pipe);
  if (!pkt) return;
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark,
              sim_->now(), edge_pipe);
  if (!enter_egress(*pkt, edge_pipe)) {
    try_drain_egress(edge_pipe);
    return;
  }

  // Keep the egress pipe fed.
  if (tm2_->output_packets(edge_pipe) > 0) {
    egress_pending_[edge_pipe] = true;
    sim_->at(std::max(egress_pipes_[edge_pipe].next_free(), sim_->now()),
             [this, edge_pipe] { drain_egress(edge_pipe); });
  }
}

bool AdcpSwitch::enter_egress(packet::Packet& pkt, std::uint32_t edge_pipe) {
  pipeline::Pipeline& egress = egress_pipes_[edge_pipe];
  pipeline::Transit tr;
  hop::Slot* s = fast_passthrough(hop::Edge::kEgress, pkt, egress, tr);
  const bool fast = s != nullptr;
  if (!fast) {
    s = parse(pkt);
    if (s == nullptr) return false;
    s->pr.phv.set(packet::fields::kMetaEgressPort, s->pkt.meta.egress_port);
    tr = egress.process(sim_->now(), s->pr.phv);
    learn_passthrough(hop::Edge::kEgress, tr);
  }
  spans_.span(sim::SpanKind::kEgress, s->pkt.meta.trace_id, sim_->now(), tr.exit, edge_pipe,
              config_.port_of_edge_pipe(edge_pipe));
  s->site = edge_pipe;
  if (fast) {
    sim_->at(tr.exit, [this, s] {
      const std::uint32_t port = config_.port_of_edge_pipe(s->site);
      transmit(port, take_patched(s));
    });
  } else {
    sim_->at(tr.exit, [this, s] { after_egress(s); });
  }
  return true;
}

void AdcpSwitch::after_egress(hop::Slot* s) {
  const std::uint32_t port = config_.port_of_edge_pipe(s->site);
  if (program_drop(s)) {
    kick_port_egress(port);
    return;
  }
  // m:1 mux back onto the port: TX serialization at full port rate. The
  // packet occupies the small egress FIFO from pipe exit to TX completion.
  transmit(port, finalize(s));
}

}  // namespace adcp::core
