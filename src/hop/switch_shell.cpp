#include "hop/switch_shell.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "telem/tap.hpp"

namespace adcp::hop {

SwitchShell::SwitchShell(sim::Simulator& sim, const ShellConfig& config,
                         const sim::Scope& scope, std::string_view fallback)
    : sim_(&sim),
      scope_(sim::resolve_scope(scope, own_metrics_, fallback)),
      hop_(scope_),
      spans_(scope_.span_recorder()),
      pool_(4096, scope_.scope("pool")),
      port_count_(config.port_count),
      port_gbps_(config.port_gbps),
      fastpath_entries_(config.fastpath_entries) {
  rx_free_.assign(port_count_, 0);
  tx_free_.assign(port_count_, 0);
  rx_lanes_.resize(port_count_);
  tx_lanes_.resize(port_count_);
  in_flight_.assign(port_count_, 0);
}

void SwitchShell::install(Program& program) {
  assert(program.parse && program.deparse && "a program carries both graphs");
  parse_graph_ = std::move(program.parse);
  parser_.emplace(parse_graph_.get());
  deparser_ = std::move(program.deparse);
  contract_ = std::move(program.fastpath);
  fast_.reset();
  edge_sites_ = {};
  if (fastpath_entries_ > 0 && contract_.valid()) fast_.emplace(fastpath_entries_);
}

void SwitchShell::set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports) {
  multicast_[group] = std::move(ports);
}

void SwitchShell::inject(packet::PortId port, packet::Packet pkt) {
  assert(port < port_count_);
  assert(parser_ && "load_program() must be called before traffic");
  hop_.rx_packets.add();
  hop_.rx_bytes.add(pkt.size());
  pkt.meta.ingress_port = port;
  pkt.meta.arrival = sim_->now();

  // RX serialization at port speed; the parser runs at port speed too
  // (paper §3.3), so the packet is PHV-ready when its last bit lands.
  sim::Time& free = rx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), port_gbps_);
  spans_.span(sim::SpanKind::kRx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(rx_lanes_[port], free,
           [this, pkt = std::move(pkt)]() mutable { on_rx(std::move(pkt)); });
}

Slot* SwitchShell::acquire() {
  if (free_.empty()) {
    slots_.push_back(std::make_unique<Slot>());
    return slots_.back().get();
  }
  Slot* slot = free_.back();
  free_.pop_back();
  return slot;
}

void SwitchShell::release(Slot* slot) {
  slot->patch = fastpath::Patch::kPassthrough;
  slot->egress = packet::kInvalidPort;
  free_.push_back(slot);
}

void SwitchShell::drop(packet::Packet pkt, sim::DropReason reason, sim::Counter& counter) {
  counter.add();
  spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                 static_cast<std::uint64_t>(reason));
  tap_drop(pkt, reason);
  pool_.release(std::move(pkt));
}

void SwitchShell::tap_drop(const packet::Packet& pkt, sim::DropReason reason) {
  if (tap_ != nullptr) tap_->on_drop(pkt, reason, sim_->now());
}

Slot* SwitchShell::parse(packet::Packet& pkt) {
  Slot* slot = acquire();
  parser_->parse_into(pkt, slot->pr);
  if (!slot->pr.accepted) {
    drop(std::move(pkt), sim::DropReason::kParse, hop_.parse_drops);
    release(slot);
    return nullptr;
  }
  slot->pkt = std::move(pkt);
  return slot;
}

bool SwitchShell::program_drop(Slot* slot) {
  if (slot->pr.phv.get_or(packet::fields::kMetaDrop, 0) == 0) return false;
  drop(std::move(slot->pkt), sim::DropReason::kProgram, hop_.program_drops);
  release(slot);
  return true;
}

packet::Packet SwitchShell::finalize(Slot* slot) {
  // Only INC packets are written back; anything else is forwarded
  // byte-identical (the deparser's emit program is INC-shaped).
  const packet::Phv& phv = slot->pr.phv;
  packet::Packet out =
      phv.get_or(packet::fields::kUdpDst, 0) == packet::kIncUdpPort
          ? deparser_->rewrite(phv, std::move(slot->pkt), slot->pr.consumed, pool_)
          : std::move(slot->pkt);
  release(slot);
  return out;
}

std::span<const packet::PortId> SwitchShell::destinations(std::uint64_t group,
                                                          std::uint64_t egress,
                                                          packet::Packet& out) {
  if (group != 0) {
    const auto it = multicast_.find(static_cast<std::uint32_t>(group));
    if (it != multicast_.end() && !it->second.empty()) return it->second;
  } else if (egress < port_count_) {
    unicast_ = static_cast<packet::PortId>(egress);
    return {&unicast_, 1};
  }
  drop(std::move(out), sim::DropReason::kNoRoute, hop_.no_route_drops);
  return {};
}

void SwitchShell::tm_enqueue(tm::TrafficManager& tm, std::uint32_t queue, packet::Packet pkt,
                             bool stamp_depth) {
  const std::uint64_t trace_id = pkt.meta.trace_id;
  pkt.meta.trace_mark = sim_->now();  // TM residency span begins here
  if (tap_ != nullptr) {
    if (stamp_depth) pkt.meta.set_telem_depth(tm.output_packets(queue));
    if (!tm.buffer().admits(queue, pkt.size())) tap_drop(pkt, sim::DropReason::kAdmission);
  }
  if (!tm.enqueue(queue, 0, std::move(pkt))) {
    spans_.instant(sim::SpanKind::kDrop, trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kAdmission), queue);
  } else {
    spans_.instant(sim::SpanKind::kTmEnqueue, trace_id, sim_->now(),
                   tm.output_packets(queue), queue);
  }
}

void SwitchShell::transmit(packet::PortId port, packet::Packet out) {
  ++in_flight_[port];
  out.meta.egress_port = port;
  sim::Time& free = tx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  if (tap_ != nullptr) tap_->at_tx(out, start, port);
  free = start + sim::serialization_time(out.size(), port_gbps_);
  spans_.span(sim::SpanKind::kTx, out.meta.trace_id, start, free, port, out.size());
  // The port rides in the packet metadata: {this, Packet} fills the inline
  // callback capacity exactly, so one more captured word would heap-spill.
  sim_->at(tx_lanes_[port], free, [this, out = std::move(out)]() mutable {
    const packet::PortId port = out.meta.egress_port;
    hop_.tx_packets.add();
    hop_.tx_bytes.add(out.size());
    if (first_tx_ == 0) first_tx_ = sim_->now();
    last_tx_ = sim_->now();
    --in_flight_[port];
    if (tx_handler_) tx_handler_(port, std::move(out));
    on_tx_done(port);
  });
}

bool SwitchShell::is_query(const fastpath::WireView& w) const {
  return contract_.store != nullptr &&
         w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
}

Slot* SwitchShell::fast_probe(packet::Packet& pkt) {
  if (!fast_) return nullptr;
  fast_->sync(contract_);
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return nullptr;
  if (w.ttl < 2) return nullptr;  // the slow path owns the TTL-expiry drop
  if (pkt.meta.recirc_request) return nullptr;
  const bool query = is_query(w);
  const fastpath::FlowCache::Entry* e = fast_->probe(w, pkt.meta.ingress_port, query);
  if (e == nullptr) return nullptr;
  Slot* slot = acquire();
  slot->patch = fastpath::Patch::kForward;
  slot->egress = e->forward_port;
  // Store-dependent behavior runs live (ctrl.* counters stay identical
  // cache-on/off); the entry only memoizes the two possible verdicts.
  if (query) {
    std::uint32_t value = 0;
    if (contract_.store->lookup(w.worker_id, value) == mat::VersionedStore::Lookup::kHit) {
      slot->patch = fastpath::Patch::kServed;
      slot->egress = e->served_port;
    }
  }
  slot->timing = e->timing;
  slot->wire = w;
  slot->pkt = std::move(pkt);
  return slot;
}

Slot* SwitchShell::fast_passthrough(Edge edge, packet::Packet& pkt, pipeline::Pipeline& pipe,
                                    pipeline::Transit& tr) {
  const std::optional<fastpath::Timing>& site = edge_sites_[static_cast<std::size_t>(edge)];
  if (!site || pkt.meta.recirc_request) return nullptr;
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return nullptr;
  tr = replay(pipe, *site);
  Slot* slot = acquire();
  slot->wire = w;
  slot->pkt = std::move(pkt);
  return slot;
}

void SwitchShell::learn_passthrough(Edge edge, const pipeline::Transit& tr) {
  std::optional<fastpath::Timing>& site = edge_sites_[static_cast<std::size_t>(edge)];
  if (contract_.passthrough_edges && !site) site = timing_of(tr);
}

void SwitchShell::memoize(const Slot& slot) {
  if (!fast_) return;
  const packet::Phv& phv = slot.pr.phv;
  if (phv.get_or(packet::fields::kMetaMulticastGroup, 0) != 0) return;
  if (phv.get_or(packet::fields::kMetaRecirc, 0) != 0 || slot.pkt.meta.recirc_request) return;
  const std::uint64_t egress = phv.get_or(packet::fields::kMetaEgressPort, packet::kInvalidPort);
  if (egress >= port_count_) return;
  fastpath::WireView w;
  if (!fastpath::inspect(slot.pkt, contract_.parse_max_elems, w)) return;
  if (w.ttl < 2) return;
  const bool query = is_query(w);
  // Precompute both churn branches; memoize only if the contract's route
  // reproduces the verdict the program actually emitted for this packet.
  const packet::PortId forward = contract_.route(w.ip_dst, w.ip_src, w.udp_src, w.udp_dst);
  packet::PortId served = forward;
  bool served_branch = false;
  if (query) {
    served = contract_.route(w.ip_src, w.ip_dst, w.udp_src, w.udp_dst);
    served_branch = phv.get_or(packet::fields::kIncOpcode, 0) ==
                    static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit);
  }
  if ((served_branch ? served : forward) != egress) return;
  fast_->fill(w, slot.pkt.meta.ingress_port, query, forward, served, slot.timing);
}

packet::Packet SwitchShell::take_patched(Slot* slot) {
  packet::Packet out =
      fastpath::copy_patch(*deparser_, pool_, std::move(slot->pkt), slot->wire, slot->patch);
  if (slot->egress != packet::kInvalidPort) out.meta.egress_port = slot->egress;
  release(slot);
  return out;
}

HopStats SwitchShell::stats() const {
  return {hop_.rx_packets.value(),     hop_.rx_bytes.value(),
          hop_.tx_packets.value(),     hop_.tx_bytes.value(),
          hop_.parse_drops.value(),    hop_.program_drops.value(),
          hop_.no_route_drops.value(), first_tx_,
          last_tx_};
}

double SwitchShell::achieved_tx_gbps() const {
  if (last_tx_ <= first_tx_) return 0.0;
  return static_cast<double>(hop_.tx_bytes.value()) * 8.0 * 1000.0 /
         static_cast<double>(last_tx_ - first_tx_);
}

}  // namespace adcp::hop
