// The per-hop shell every switch model is built on (DESIGN.md §15).
//
// The paper derives ADCP from RMT by keeping the port-speed edges — RX,
// parse, a traffic manager, deparse, TX — and replacing only what sits
// between them (1:m demux, TM1/TM2, central pipes); RTC replaces the
// pipelines with a processor pool. SwitchShell is those shared edges,
// written once: program install (parser, deparser, fast-path contract),
// RX serialization, drops, deparse-or-passthrough, TM admission, TX and the
// fast-path probe/verdict/fill. RmtSwitch, AdcpSwitch and RtcSwitch derive
// from it and keep only what makes their architecture different.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fastpath/fastpath.hpp"
#include "hop/contract.hpp"
#include "net/device.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::hop {

/// Registry-backed counters every model shares; one canonical name per
/// drop reason so cross-switch comparisons line up.
struct HopMetrics {
  explicit HopMetrics(const sim::Scope& s)
      : rx_packets(s.counter("rx.packets")),
        rx_bytes(s.counter("rx.bytes")),
        tx_packets(s.counter("tx.packets")),
        tx_bytes(s.counter("tx.bytes")),
        parse_drops(s.counter("drops.parse")),
        program_drops(s.counter("drops.program")),
        no_route_drops(s.counter("drops.no_route")) {}

  sim::Counter& rx_packets;
  sim::Counter& rx_bytes;
  sim::Counter& tx_packets;
  sim::Counter& tx_bytes;
  sim::Counter& parse_drops;
  sim::Counter& program_drops;
  sim::Counter& no_route_drops;
};

/// Snapshot of the hop counters (the registry is the source of truth) and
/// the TX interval; RmtStats and RtcStats extend it with their own.
struct HopStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t parse_drops = 0;
  std::uint64_t program_drops = 0;
  std::uint64_t no_route_drops = 0;
  sim::Time first_tx = 0;
  sim::Time last_tx = 0;
};

/// Per-packet state parked between a pipeline (or processor) entry and its
/// exit event. Pooled and handed to continuations by pointer: a Phv is far
/// larger than the inline callback capacity, and {this, Packet} alone
/// fills it, so capturing anything by value would heap-spill every packet.
/// One type serves both paths: the slow path fills `pr` and `timing`, the
/// fast path fills `wire`, `patch` and `egress`. The large ParseResult
/// comes last so a fast-path transit touches only the slot's first lines.
struct Slot {
  packet::Packet pkt;
  fastpath::Timing timing;  ///< slow path: what a fill memoizes; fast: replay
  fastpath::WireView wire;  ///< fast path: the inspected header fields
  fastpath::Patch patch = fastpath::Patch::kPassthrough;
  packet::PortId egress = packet::kInvalidPort;  ///< fast-path verdict
  std::uint32_t site = 0;  ///< model-defined: the port or pipe to resume at
  packet::ParseResult pr;  ///< slow path: the parse being processed
};

/// The edge pipelines a program may leave empty (contract.passthrough_edges).
enum class Edge : std::uint8_t { kIngress, kEgress };

class SwitchShell : public net::SwitchDevice {
 public:
  // Scheduled continuations hold `this`.
  SwitchShell(const SwitchShell&) = delete;
  SwitchShell& operator=(const SwitchShell&) = delete;

  // SwitchDevice interface.
  /// RX serialization at port speed, then on_rx() when the last bit lands.
  void inject(packet::PortId port, packet::Packet pkt) final;
  void set_tx_handler(net::TxHandler handler) final { tx_handler_ = std::move(handler); }
  [[nodiscard]] std::uint32_t port_count() const final { return port_count_; }
  [[nodiscard]] double port_gbps() const final { return port_gbps_; }
  void set_telemetry_tap(telem::TelemetryTap* tap) final { tap_ = tap; }

  /// Registers multicast group `group` -> `ports` (programs select it via
  /// kMetaMulticastGroup).
  void set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports);

  /// The registry this switch (and its TMs and pool) report into.
  [[nodiscard]] sim::MetricRegistry& metrics() { return *scope_.registry(); }
  [[nodiscard]] const sim::Scope& metric_scope() const { return scope_; }
  /// The installed parse graph / deparser. Shared (use_count > 1) when the
  /// program's graphs came from a topo::SwitchTemplate.
  [[nodiscard]] const std::shared_ptr<const packet::ParseGraph>& parse_graph() const {
    return parse_graph_;
  }
  [[nodiscard]] const std::shared_ptr<const packet::Deparser>& deparser() const {
    return deparser_;
  }
  /// The switch-internal recycling pool (deparse outputs, multicast copies,
  /// retired originals and drops all flow through it).
  packet::Pool& pool() { return pool_; }

  [[nodiscard]] HopStats stats() const;
  /// Achieved egress throughput over the interval [first_tx, last_tx].
  [[nodiscard]] double achieved_tx_gbps() const;

  /// Flow fast-path counters (empty stats when the fast path is off).
  /// Deliberately not registry-backed: snapshots must be byte-identical
  /// cache-on vs cache-off (topo::Network::export_fastpath reports them).
  [[nodiscard]] fastpath::FlowCacheStats fastpath_stats() const {
    return fast_ ? fast_->stats() : fastpath::FlowCacheStats{};
  }

 protected:
  /// Packets allowed between egress-pipe exit and TX completion per port —
  /// a small egress FIFO so TX back-pressures the TM realistically.
  static constexpr std::uint32_t kMaxInFlightPerPort = 4;

  /// `scope` names the switch in a shared registry; detached falls back to
  /// a private registry under `fallback` (the model's own name).
  SwitchShell(sim::Simulator& sim, const ShellConfig& config, const sim::Scope& scope,
              std::string_view fallback);

  /// Installs the program parts every model shares (moved out of
  /// `program`): the parse graph, the deparser and the fast-path contract.
  /// Re-arms the fast path from scratch: load_program may be called again
  /// over a programmed switch (ControlPlane::attach does), and any memoized
  /// verdict belongs to the replaced program.
  void install(Program& program);

  /// Called when a packet's last bit has landed on RX (ingress_port set).
  virtual void on_rx(packet::Packet pkt) = 0;
  /// Called after a TX completion handed the packet on.
  virtual void on_tx_done(packet::PortId port) = 0;

  /// Counts the drop, records its kDrop span, tells the tap and retires the
  /// packet to the pool.
  void drop(packet::Packet pkt, sim::DropReason reason, sim::Counter& counter);
  /// Parses `pkt` into a fresh slot (consuming it), or drops it as kParse
  /// and returns nullptr.
  Slot* parse(packet::Packet& pkt);
  /// True (slot released) when the pass's program set kMetaDrop.
  bool program_drop(Slot* slot);
  /// Write-back-or-passthrough: INC packets go through Deparser::rewrite
  /// (the original is retired); others pass through. Releases the slot.
  packet::Packet finalize(Slot* slot);
  /// The slow-path verdict's destinations: the multicast group's ports, or
  /// the one unicast port. An unknown or empty group, or an out-of-range
  /// port, is a kNoRoute drop of `out` (empty result).
  std::span<const packet::PortId> destinations(std::uint64_t group, std::uint64_t egress,
                                               packet::Packet& out);

  /// TM admission: stamps the residency mark (and, with `stamp_depth`, the
  /// INT queue depth), runs the tap's admission pre-check and records the
  /// kDrop or kTmEnqueue span.
  void tm_enqueue(tm::TrafficManager& tm, std::uint32_t queue, packet::Packet pkt,
                  bool stamp_depth);
  /// TX serialization on `port`. The tap runs before the window is sized
  /// (it may append INT trailer bytes); the packet occupies the egress FIFO
  /// until completion, which updates tx.*, hands it to the TX handler and
  /// calls on_tx_done.
  void transmit(packet::PortId port, packet::Packet out);
  [[nodiscard]] bool egress_fifo_full(packet::PortId port) const {
    return in_flight_[port] >= kMaxInFlightPerPort;
  }

  /// Fast-path verdict site: on a cache hit parks `pkt` in a slot carrying
  /// the memoized timing and the verdict (store-dependent behavior runs
  /// live, here, at the event the slow path would run it). nullptr leaves
  /// `pkt` to the slow path.
  Slot* fast_probe(packet::Packet& pkt);
  /// Static edge passthrough: once `edge` has a measured timing template, a
  /// guard-passing packet replays it through `pipe` (into `tr`) and is
  /// parked in a slot; nullptr leaves `pkt` to the slow path. Armed by the
  /// contract, with or without the flow cache.
  Slot* fast_passthrough(Edge edge, packet::Packet& pkt, pipeline::Pipeline& pipe,
                         pipeline::Transit& tr);
  /// Edge pipelines carry no per-flow program under the passthrough
  /// contract; one measured transit is the timing template for every
  /// later packet.
  void learn_passthrough(Edge edge, const pipeline::Transit& tr);
  /// Memoizes a slow-path unicast verdict; call before finalize so the
  /// original wire bytes are still available.
  void memoize(const Slot& slot);
  /// Copy-and-patch of a fast-path slot (releases it); a verdict slot's
  /// egress lands in the packet metadata.
  packet::Packet take_patched(Slot* slot);

  /// Replays a memoized timing template through `pipe`.
  pipeline::Transit replay(pipeline::Pipeline& pipe, const fastpath::Timing& t) const {
    return pipe.advance(sim_->now(), t.cycles, t.max_service, t.stall_cycles);
  }
  static fastpath::Timing timing_of(const pipeline::Transit& tr) {
    return {tr.cycles, tr.max_service, tr.stall_cycles, 0};
  }

  sim::Simulator* sim_;
  // Declared before pool_/hop_, which register through the scope.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  HopMetrics hop_;
  sim::SpanRecorder spans_;
  packet::Pool pool_;
  telem::TelemetryTap* tap_ = nullptr;  ///< not owned; null = disarmed
  sim::Time first_tx_ = 0;
  sim::Time last_tx_ = 0;

 private:
  Slot* acquire();
  void release(Slot* slot);
  /// The tap's drop-site hook (a postcard, when armed).
  void tap_drop(const packet::Packet& pkt, sim::DropReason reason);
  [[nodiscard]] bool is_query(const fastpath::WireView& w) const;

  std::uint32_t port_count_;
  double port_gbps_;
  std::uint32_t fastpath_entries_;
  std::optional<packet::Parser> parser_;
  std::shared_ptr<const packet::ParseGraph> parse_graph_;
  std::shared_ptr<const packet::Deparser> deparser_;
  fastpath::FastpathContract contract_;
  std::optional<fastpath::FlowCache> fast_;  ///< armed by install
  std::array<std::optional<fastpath::Timing>, 2> edge_sites_;  ///< by Edge, once measured
  std::vector<std::unique_ptr<Slot>> slots_;  ///< owns every slot
  std::vector<Slot*> free_;                   ///< warm free list
  net::TxHandler tx_handler_;
  std::unordered_map<std::uint32_t, std::vector<packet::PortId>> multicast_;
  packet::PortId unicast_ = packet::kInvalidPort;  ///< destinations() storage
  std::vector<sim::Time> rx_free_;        // per port
  std::vector<sim::Time> tx_free_;        // per port
  std::vector<sim::Lane> rx_lanes_;       // per port: RX completions, in order
  std::vector<sim::Lane> tx_lanes_;       // per port: TX completions, in order
  std::vector<std::uint32_t> in_flight_;  // per port: egress pipe exit -> TX done
};

}  // namespace adcp::hop
