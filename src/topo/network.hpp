// Multi-switch topology builder.
//
// A Network composes the single-switch building blocks into a datacenter
// fabric: one switch (RMT, ADCP, or RTC) per tier position, a net::Fabric
// attaching hosts to each edge switch's low ports, and topo::Trunks on the
// remaining ports. Two canned generators cover the shapes the coflow
// workloads need:
//
//   leaf_spine(L, S, H):  L leaf switches with H hosts each, every leaf
//                         connected to all S spines (a single pod).
//   fat_tree(k):          the classic 3-tier k-ary fat-tree — k pods of
//                         k/2 edge + k/2 aggregation switches, (k/2)^2
//                         cores, k^3/4 hosts.
//
// Forwarding is exact-match for directly attached hosts and
// longest-prefix + seeded per-flow ECMP towards the upper tiers (see
// routing.hpp for the address plan). Metrics thread through one
// sim::MetricRegistry under the network's scope: "topo.sw<i>.*" for
// switches/hosts/pools, "topo.trunk<i>.*" for trunks, plus the network-
// level "topo.hops" histogram (hop count of every delivered packet,
// recovered from the wire TTL) and the derived "topo.ecmp.imbalance" /
// "topo.trunk.max_utilization" gauges (finalize_metrics()).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fastpath/fastpath.hpp"
#include "net/host.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "telem/collector.hpp"
#include "telem/sketch.hpp"
#include "telem/tap.hpp"
#include "topo/routing.hpp"
#include "topo/tier_profile.hpp"
#include "topo/trunk.hpp"

namespace adcp::topo {

/// Parameters of the single-pod leaf–spine generator.
struct LeafSpineParams {
  std::uint32_t leaves = 4;
  std::uint32_t spines = 2;
  std::uint32_t hosts_per_leaf = 16;
  SwitchKind kind = SwitchKind::kAdcp;
  /// How every switch is provisioned (TierProfile::slim() by default:
  /// first-touch state, shared templates; full() restores the legacy
  /// eager build). Replaces the former raw-config construction paths.
  TierProfile profile{};
  net::Link host_link{};
  net::Link trunk_link{100.0, 1000 * sim::kNanosecond};
  std::uint64_t ecmp_seed = 0x7e1e'c0de;
  std::uint64_t loss_seed = 0xfab21c;
  /// Span tracing (off by default; see sim/span.hpp). When enabled the
  /// network arms every registry's SpanBuffer and stamps sampled flows at
  /// the sending hosts; read the result through span_buffers().
  sim::TraceConfig trace{};
  /// Gives every *hosted* switch an in-band control channel: one extra
  /// management port (id = the switch's old port count) and a control
  /// address make_ip(pod, tor, 255) routed to it by an exact FIB entry, so
  /// a ctrl::ControlAgent can reach any edge switch through the ordinary
  /// fabric (see ctrl_ip_of/mgmt_port_of/set_control_sink). Requires
  /// hosts_per_leaf <= 255 (host address 255 becomes the control address).
  bool control_channel = false;
};

/// Parameters of the k-ary fat-tree generator (`k` even, >= 2).
struct FatTreeParams {
  std::uint32_t k = 4;
  SwitchKind kind = SwitchKind::kAdcp;
  /// See LeafSpineParams::profile.
  TierProfile profile{};
  net::Link host_link{};
  net::Link trunk_link{100.0, 1000 * sim::kNanosecond};
  std::uint64_t ecmp_seed = 0x7e1e'c0de;
  std::uint64_t loss_seed = 0xfab21c;
  /// Span tracing (off by default; see LeafSpineParams::trace).
  sim::TraceConfig trace{};
  /// See LeafSpineParams::control_channel (edge switches only).
  bool control_channel = false;
};

/// A fully wired multi-switch fabric. Construct with one of the parameter
/// structs; hosts are addressed by a global index (rack-major) and carry
/// the IPs of routing.hpp's address plan. Not movable: switches, fabrics
/// and trunks hold stable self-references through the event queue.
class Network {
 public:
  Network(sim::Simulator& sim, const LeafSpineParams& params, sim::Scope scope = {});
  Network(sim::Simulator& sim, const FatTreeParams& params, sim::Scope scope = {});

  /// Sharded construction for conservative-parallel runs: every switch gets
  /// a private shard (Simulator + MetricRegistry) on `psim`, and so do its
  /// hosts and their packet pool whenever the access link's propagation
  /// delay is nonzero (it is the cut's lookahead; host events dominate
  /// incast scenarios, so splitting them off lets the partitioner balance
  /// workers). Each link direction that crosses a cut delivers through a
  /// mailbox whose latency is the link's propagation delay. The sequential
  /// constructors build the same fabric on one borrowed shard: the caller's
  /// Simulator and scope. Drive the run with psim.run(); read results
  /// through merged_snapshot()/merged_hops()/finalize_metrics(), which
  /// reproduce the sequential path's metric names and (for lossless links)
  /// bit-identical values — same final time, same snapshot bytes; only the
  /// executed-event count may differ from the monolithic build by a few
  /// coalesced idle-wakes (see ParallelSimulator::run). Lossy links stay
  /// deterministic for any worker count, but cut trunk directions and split
  /// downlinks draw from private RNG streams, so their drop patterns differ
  /// from the sequential shared-stream ones.
  Network(sim::ParallelSimulator& psim, const LeafSpineParams& params);
  Network(sim::ParallelSimulator& psim, const FatTreeParams& params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// True when built on a ParallelSimulator (shard-per-switch mode).
  [[nodiscard]] bool parallel() const { return psim_ != nullptr; }

  [[nodiscard]] std::size_t host_count() const { return host_loc_.size(); }
  /// Host by global index; leaf_spine orders leaf-major (host g lives on
  /// leaf g / hosts_per_leaf), fat_tree pod-major.
  net::Host& host(std::size_t i);
  /// The address the plan assigned to host `i` (what senders put in
  /// ip_dst so the fabric routes to it).
  [[nodiscard]] std::uint32_t ip_of(std::size_t i) const { return host_ip_.at(i); }

  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  net::SwitchDevice& device(std::size_t i) { return *switches_.at(i).device; }
  net::Fabric& fabric(std::size_t i) { return *switches_.at(i).fabric; }
  [[nodiscard]] std::size_t trunk_count() const { return trunks_.size(); }
  Trunk& trunk(std::size_t i) { return *trunks_.at(i); }
  [[nodiscard]] std::uint64_t trunk_packets(std::size_t i, int side) const;
  [[nodiscard]] std::uint64_t trunk_bytes(std::size_t i, int side) const;

  /// The Simulator that owns host/switch `i`'s events: the shared one in
  /// sequential mode, the owning shard in parallel mode (workloads must
  /// schedule a host's sends on its own shard).
  [[nodiscard]] sim::Simulator& sim_of_host(std::size_t i);
  [[nodiscard]] sim::Simulator& sim_of_switch(std::size_t i);

  /// Installs `tracker` on every host of every rack.
  void set_tracker(coflow::CoflowTracker* tracker);
  /// Host::reset() on every host (between back-to-back runs in one bench).
  void reset_hosts();

  /// The registry everything reports into (shared when an attached scope
  /// was passed, private otherwise). In parallel mode this is only the
  /// network-level gauge registry; use merged_snapshot() for the full view.
  [[nodiscard]] sim::MetricRegistry& metrics() { return *scope_.registry(); }
  [[nodiscard]] const sim::Scope& scope() const { return scope_; }
  /// Hop count of every delivered IPv4 packet ("topo.hops"). reserve() it
  /// before a zero-allocation measuring window. In parallel mode this is
  /// only the first shard's histogram; merged_hops() covers every shard.
  [[nodiscard]] sim::Histogram& hops() { return *shards_.front().hops; }
  /// All shards' hop samples folded into one histogram (sequential mode:
  /// a copy of hops()).
  [[nodiscard]] sim::Histogram merged_hops() const;

  /// One deterministic snapshot covering the whole fabric. Sequential
  /// mode: the registry's snapshot. Parallel mode: the per-shard registry
  /// snapshots folded with Snapshot::merge in shard order, plus the
  /// network-level gauges — same metric names, and for lossless trunks the
  /// same adcp-metrics-v1 bytes, as the sequential path.
  [[nodiscard]] sim::Snapshot merged_snapshot() const;
  /// Per-shard registry, indexed by shard id (see sim_of_switch/sim_of_host
  /// for the switch/host -> shard mapping; a sequential build has one).
  [[nodiscard]] sim::MetricRegistry& shard_metrics(std::size_t i) {
    return *shards_.at(i).scope.registry();
  }

  /// Every SpanBuffer of the fabric in deterministic order, ready for the
  /// span exporters: the network registry's buffer in sequential mode, the
  /// per-shard buffers in shard order in parallel mode. Empty buffers are
  /// included (harmless to the exporters).
  [[nodiscard]] std::vector<const sim::SpanBuffer*> span_buffers() const;
  /// The head sampler hosts stamp trace ids with (disabled when the params
  /// left trace.sample_every == 0).
  [[nodiscard]] const sim::TraceSampler& trace_sampler() const { return sampler_; }
  [[nodiscard]] const sim::TraceConfig& trace_config() const { return trace_cfg_; }

  // Aggregate accounting for conservation checks (tx == rx + drops).
  [[nodiscard]] std::uint64_t total_host_tx_packets() const;
  [[nodiscard]] std::uint64_t total_host_rx_packets() const;
  [[nodiscard]] std::uint64_t total_host_link_drops() const;
  [[nodiscard]] std::uint64_t total_trunk_drops() const;

  /// Derives the gauge metrics from the counters accumulated so far:
  /// per-trunk "topo.trunk<i>.{ab,ba}.utilization", the network-wide
  /// "topo.trunk.max_utilization", and "topo.ecmp.imbalance" (worst
  /// max/mean uplink-packet ratio over all ECMP groups). Call once after
  /// the run, before snapshotting the registry.
  void finalize_metrics();

  /// What building this fabric cost. Byte figures are deltas of
  /// mat::StateAccounting over the constructor, so they cover exactly this
  /// network's switches: `bytes_reserved` is what the configs declared,
  /// `bytes_touched` what actually materialized (equal on the full
  /// profile; near zero on slim until traffic runs).
  struct ConstructionStats {
    double build_ms = 0.0;
    std::uint64_t bytes_reserved = 0;
    std::uint64_t bytes_touched = 0;
    std::uint64_t templates_built = 0;   ///< distinct (kind, ports) keys
    std::uint64_t templates_shared = 0;  ///< template-cache hits
  };
  [[nodiscard]] const ConstructionStats& construction() const { return construction_; }
  /// Writes the construction stats as gauges ("build_ms",
  /// "bytes_reserved", "bytes_touched", "templates_built",
  /// "templates_shared") under `scope` — pass a scope of a *reporting*
  /// registry, not this network's own: build wall-clock is host-dependent
  /// and must stay out of the snapshots the determinism gates compare.
  void export_construction(sim::Scope scope) const;

  /// Flow fast-path counters of switch `i` (all-zero when the cache is off
  /// — the stats deliberately live outside the switch registries so the
  /// determinism gates can compare snapshots cache-on vs cache-off).
  [[nodiscard]] fastpath::FlowCacheStats fastpath_stats_of(std::size_t i) const;
  /// fastpath_stats_of summed over every switch of the fabric.
  [[nodiscard]] fastpath::FlowCacheStats fastpath_totals() const;
  /// Writes the totals as gauges ("fastpath.{hits,misses,invalidations,
  /// evictions,occupancy,hit_rate_pct}") under `scope` — pass a scope of a
  /// *reporting* registry, not this network's own (see export_construction
  /// for the same rule and reason).
  void export_fastpath(sim::Scope scope) const;

  // --- In-band telemetry (profile.telemetry.armed) ---------------------
  //
  // Arming telemetry in the TierProfile gives every switch a management
  // port and a TelemetryTap (INT stamping + postcards injected in-band),
  // puts a telem::Collector on the last host, and makes every other host
  // forward sampled trailer reports to it (DESIGN.md §14). Disarmed
  // fabrics build byte-identically to pre-telemetry ones.

  /// True when the fabric was built with telemetry armed.
  [[nodiscard]] bool telemetry_armed() const { return profile_.telemetry.armed; }
  /// The collector riding the last host (nullptr when disarmed).
  [[nodiscard]] telem::Collector* collector() { return collector_.get(); }
  /// Global index of the collector host (the last host when armed).
  [[nodiscard]] std::size_t collector_host() const { return host_loc_.size() - 1; }
  /// The address postcards and reports are sent to (0 when disarmed).
  [[nodiscard]] std::uint32_t collector_ip() const { return collector_ip_; }
  /// Switch `i`'s telemetry tap (nullptr when disarmed).
  [[nodiscard]] telem::TelemetryTap* telemetry_tap_of(std::size_t i) {
    return telem_taps_.empty() ? nullptr : telem_taps_.at(i).get();
  }
  /// Switch `i`'s heavy-hitter sketch (nullptr unless telemetry.sketch).
  [[nodiscard]] telem::HeavyHitterSketch* sketch_of(std::size_t i) {
    return sketches_.empty() ? nullptr : sketches_.at(i).get();
  }

  // --- In-band control channel (params.control_channel = true) ---------
  //
  // Hosted switches gain a management port reachable at a per-switch
  // control address; anything the switch routes out that port (i.e. every
  // packet addressed to ctrl_ip_of) is handed to the switch's control
  // sink on the switch's own shard — the hook ctrl::ControlPlane uses to
  // receive update batches that traveled the fabric as real packets.

  /// True when the fabric was built with the control channel.
  [[nodiscard]] bool control_channel() const { return control_channel_; }
  /// Control address of switch `i` (0 when it has none — non-edge tiers
  /// and fabrics built without the channel).
  [[nodiscard]] std::uint32_t ctrl_ip_of(std::size_t i) const { return ctrl_ip_.at(i); }
  /// Management port of switch `i` (packet::kInvalidPort when none).
  [[nodiscard]] packet::PortId mgmt_port_of(std::size_t i) const {
    return mgmt_port_.at(i);
  }
  /// Installs the consumer of switch `i`'s management-port traffic. The
  /// sink runs on the switch's shard at TX time; the packet is recycled
  /// (or destroyed) by the network afterwards, so sinks must copy what
  /// they keep. Install before the run starts.
  void set_control_sink(std::size_t i, std::function<void(const packet::Packet&)> sink);
  /// Switch `i`'s forwarding table (programs capture it by shared_ptr,
  /// exactly like the builder's own routing programs).
  [[nodiscard]] std::shared_ptr<ForwardingTable> fib_of(std::size_t i) {
    return switches_.at(i).fib;
  }
  /// The tier kind switch `i` was built as.
  [[nodiscard]] SwitchKind kind_of(std::size_t i) const { return kind_.at(i); }
  /// The "topo.sw<i>" scope on the registry that owns switch `i` (the
  /// shard registry in parallel mode) — extra per-switch components (e.g.
  /// a versioned control store) register here so metric names match the
  /// sequential build byte-for-byte in merged_snapshot().
  [[nodiscard]] sim::Scope switch_scope(std::size_t i);
  /// The "topo" scope on the registry that owns host `i`'s shard (the
  /// network scope in sequential mode) — for components that ride a host,
  /// like ctrl::ControlAgent.
  [[nodiscard]] sim::Scope host_shard_scope(std::size_t i);

  [[nodiscard]] const TierProfile& profile() const { return profile_; }
  /// The shared template for (kind, port_count), or nullptr if no switch
  /// of that shape exists. use_count() reflects only cache+caller refs —
  /// switches share the parse/deparse members, not the template object.
  [[nodiscard]] std::shared_ptr<const SwitchTemplate> template_of(
      SwitchKind kind, std::uint32_t port_count) const;

 private:
  struct SwitchSlot {
    std::unique_ptr<net::SwitchDevice> device;
    std::unique_ptr<net::Fabric> fabric;
    std::shared_ptr<ForwardingTable> fib;
  };

  /// One event domain of the fabric: its clock, the "topo" scope on its
  /// registry, and that registry's "topo.hops" histogram. A sequential
  /// build has exactly one, borrowed from the caller (no owned registry).
  struct Shard {
    sim::Simulator* sim = nullptr;
    sim::Scope scope;
    sim::Histogram* hops = nullptr;
    std::unique_ptr<sim::MetricRegistry> registry;  // parallel mode only
  };

  /// Bracket the constructor body: snapshot the state-accounting counters
  /// and the wall clock and take the trace and loss-seed parameters; then
  /// wire the fabric (finish_wiring) and fill construction_ with the deltas.
  void begin_build(const sim::TraceConfig& trace, std::uint64_t loss_seed);
  void end_build();
  /// The shared template for this (kind, port_count), building and caching
  /// it on first request; counts cache hits as templates_shared.
  const SwitchTemplate& template_for(SwitchKind kind, std::uint32_t port_count);
  /// Appends a shard driven by `sim` reporting under `scope` (its "topo"
  /// scope) and returns its index; arms the registry's spans when tracing.
  std::size_t add_shard(sim::Simulator& sim, sim::Scope scope,
                        std::unique_ptr<sim::MetricRegistry> registry = nullptr);
  /// Parallel mode: appends a fresh psim shard with its own registry.
  std::size_t add_shard();
  void build_leaf_spine(const LeafSpineParams& p);
  void build_fat_tree(const FatTreeParams& p);
  /// Creates switch i (device + fabric with `host_count` hosts) and loads
  /// the tier's routing program for `fib`. In parallel mode the switch is
  /// built on a fresh shard with a fresh registry.
  SwitchSlot& add_switch(SwitchKind kind, std::uint32_t port_count,
                         std::shared_ptr<ForwardingTable> fib, std::size_t host_count,
                         net::Link host_link, std::uint64_t loss_seed);
  /// Creates the next trunk between port `a_port` of switch `a` and port
  /// `b_port` of switch `b`; `a` must be the lower tier (side 0 = upward
  /// traffic, the direction ECMP spreads). Returns the trunk index.
  std::size_t add_trunk(std::size_t a, packet::PortId a_port, std::size_t b,
                        packet::PortId b_port, net::Link link);
  /// After all switches and trunks exist: point every switch's hostless
  /// TX ports at its trunks and hook the hop-count probe on every host.
  void finish_wiring();
  /// Telemetry-armed port count for a switch with `data_ports` real ports:
  /// +1 management port, padded so rmt_pipelines_for keeps the data-port
  /// pipeline count (armed vs disarmed RMT switches stay comparable).
  [[nodiscard]] static std::uint32_t telem_ports(std::uint32_t data_ports);
  /// profile_.telemetry.armed: builds the taps, the collector, and the
  /// sink-host report forwarding (no-op when disarmed).
  void arm_telemetry();

  sim::ParallelSimulator* psim_ = nullptr;
  TierProfile profile_{};
  std::map<std::pair<int, std::uint32_t>, std::shared_ptr<const SwitchTemplate>> templates_;
  ConstructionStats construction_;
  double build_t0_ms_ = 0.0;           // begin_build() wall-clock origin
  std::uint64_t build_reserved0_ = 0;  // StateAccounting at begin_build()
  std::uint64_t build_touched0_ = 0;
  bool split_hosts_ = false;          // hosts on their own shards (parallel)
  std::uint64_t loss_seed_base_ = 0;  // seeds trunk and split-downlink streams
  sim::TraceConfig trace_cfg_{};
  sim::TraceSampler sampler_;  // stable address: hosts keep a pointer
  // Declared before scope_, which may register through it.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  sim::Rng trunk_rng_{0};          // shared by trunks inside one shard
  /// Cut trunk directions' and split downlinks' loss streams, apart from
  /// the wires so two shards never write one cache line.
  std::deque<sim::Rng> streams_;
  std::vector<Shard> shards_;
  std::vector<SwitchSlot> switches_;
  std::vector<std::unique_ptr<Trunk>> trunks_;
  std::vector<std::size_t> switch_shard_;  // switch index -> shard
  std::vector<std::size_t> host_shard_;    // switch index -> its hosts' shard
  bool control_channel_ = false;
  std::vector<SwitchKind> kind_;             // switch index -> tier kind
  std::vector<std::uint32_t> ctrl_ip_;       // switch index -> control addr (0 = none)
  std::vector<packet::PortId> mgmt_port_;    // switch index -> mgmt port
  /// Stable slots the TX closures point into; set_control_sink fills them.
  std::vector<std::function<void(const packet::Packet&)>> ctrl_sinks_;
  /// Telemetry (armed profiles only; all empty/null when disarmed).
  std::vector<std::unique_ptr<telem::HeavyHitterSketch>> sketches_;  // per switch
  std::vector<std::unique_ptr<telem::TelemetryTap>> telem_taps_;     // per switch
  std::unique_ptr<telem::Collector> collector_;
  std::uint32_t collector_ip_ = 0;
  std::vector<std::uint32_t> host_ip_;  // global host index -> address
  std::vector<std::pair<std::uint32_t, std::uint32_t>> host_loc_;  // -> (switch, local)
  std::vector<std::vector<std::size_t>> ecmp_groups_;  // uplink fan-outs (trunk indices)
};

}  // namespace adcp::topo
