// topo:: subsystem — forwarding table semantics, trunk wiring, ECMP
// determinism, per-flow ordering, packet conservation across hops, a
// determinism pin (event count + final time + metric snapshot hash)
// mirroring test_event_count_determinism.cpp, and the zero-allocation
// warm-path guard with trunks in the forwarding chain on every switch
// model (this binary links the counting operator new of
// support/counting_new.cpp, which sees every allocation in the process).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "coflow/tracker.hpp"
#include "packet/headers.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "topo/network.hpp"
#include "topo/programs.hpp"
#include "topo/routing.hpp"
#include "workload/rack_coflow.hpp"

#include "support/counting_new.hpp"

namespace adcp {
namespace {

std::vector<workload::RackHost> rack_hosts(topo::Network& net) {
  std::vector<workload::RackHost> hosts;
  hosts.reserve(net.host_count());
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  return hosts;
}

std::uint64_t total_reordered(topo::Network& net) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < net.host_count(); ++i) total += net.host(i).rx_reordered();
  return total;
}

constexpr std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- ForwardingTable unit behavior ---------------------------------------

TEST(ForwardingTable, ExactBeatsPrefixAndLongestPrefixWins) {
  topo::ForwardingTable fib(1);
  fib.add_prefix(topo::kAddressBase, 8, {{9}});
  fib.add_prefix(topo::make_ip(0, 3, 0), 24, {{5}});
  fib.add_exact(topo::make_ip(0, 3, 7), 2);

  EXPECT_EQ(fib.lookup(topo::make_ip(0, 3, 7), 0, 0, 0), 2u);   // exact
  EXPECT_EQ(fib.lookup(topo::make_ip(0, 3, 1), 0, 0, 0), 5u);   // /24
  EXPECT_EQ(fib.lookup(topo::make_ip(0, 8, 1), 0, 0, 0), 9u);   // /8
  EXPECT_EQ(fib.lookup(0x0b00'0001, 0, 0, 0), topo::ForwardingTable::kNoRoute);
}

TEST(ForwardingTable, EcmpIsPerFlowStableAndCoversAllPorts) {
  topo::ForwardingTable fib(42);
  fib.add_prefix(topo::kAddressBase, 8, {{4, 5, 6, 7}});

  std::vector<std::uint64_t> hits(8, 0);
  for (std::uint16_t sport = 0; sport < 256; ++sport) {
    const packet::PortId first = fib.lookup(topo::make_ip(0, 1, 1), 99, sport, 7);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(fib.lookup(topo::make_ip(0, 1, 1), 99, sport, 7), first);
    }
    ASSERT_GE(first, 4u);
    ASSERT_LT(first, 8u);
    ++hits[first];
  }
  for (packet::PortId p = 4; p < 8; ++p) EXPECT_GT(hits[p], 0u) << "port " << p << " unused";
}

TEST(ForwardingTable, SeedChangesTheSpread) {
  topo::ForwardingTable a(1);
  topo::ForwardingTable b(2);
  a.add_prefix(topo::kAddressBase, 8, {{0, 1, 2, 3}});
  b.add_prefix(topo::kAddressBase, 8, {{0, 1, 2, 3}});
  int differ = 0;
  for (std::uint16_t sport = 0; sport < 64; ++sport) {
    if (a.lookup(topo::make_ip(0, 1, 1), 7, sport, 9) !=
        b.lookup(topo::make_ip(0, 1, 1), 7, sport, 9)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

// --- fabric construction --------------------------------------------------

TEST(TopoNetwork, LeafSpineShape) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 4;
  p.spines = 2;
  p.hosts_per_leaf = 16;
  topo::Network net(sim, p);

  EXPECT_EQ(net.switch_count(), 6u);
  EXPECT_EQ(net.trunk_count(), 8u);
  EXPECT_EQ(net.host_count(), 64u);
  EXPECT_EQ(net.device(0).port_count(), 18u);  // 16 hosts + 2 uplinks
  EXPECT_EQ(net.device(4).port_count(), 4u);   // spine: one port per leaf
  EXPECT_EQ(net.fabric(0).size(), 16u);
  EXPECT_EQ(net.fabric(4).size(), 0u);  // spines carry no hosts
  EXPECT_EQ(net.ip_of(0), topo::make_ip(0, 0, 0));
  EXPECT_EQ(net.ip_of(17), topo::make_ip(0, 1, 1));
}

TEST(TopoNetwork, FabricSubsetLeavesTrunkPortsHostless) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  // Sending to a cross-rack address must not be swallowed by a host on the
  // uplink port: the packet arrives at the real destination.
  workload::RackIncastParams inc;
  inc.sink = 5;  // leaf 1, host 1
  inc.senders = 1;
  inc.packets_per_sender = 3;
  auto hosts = rack_hosts(net);
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_EQ(net.host(5).rx_packets(), 3u);
  EXPECT_EQ(net.host(0).tx_packets(), 3u);
}

// --- ECMP path selection --------------------------------------------------

/// One flow must ride exactly one spine uplink; the choice repeats under
/// the same seed in an independently built fabric.
TEST(TopoEcmp, FlowSticksToOneUplinkDeterministically) {
  auto uplink_of = [](std::uint64_t ecmp_seed) -> std::vector<std::uint64_t> {
    sim::Simulator sim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 4;
    p.ecmp_seed = ecmp_seed;
    topo::Network net(sim, p);
    auto hosts = rack_hosts(net);
    workload::RackIncastParams inc;
    inc.sink = 6;  // leaf 1
    inc.senders = 1;  // host 0 only
    inc.packets_per_sender = 16;
    workload::start_rack_incast(hosts, inc, 0);
    sim.run();
    return {net.trunk(0).packets(0), net.trunk(1).packets(0)};
  };

  const auto first = uplink_of(0xfeedULL);
  const auto second = uplink_of(0xfeedULL);
  EXPECT_EQ(first, second);
  // All 16 packets of the single flow on exactly one of leaf 0's uplinks.
  EXPECT_EQ(first[0] + first[1], 16u);
  EXPECT_TRUE(first[0] == 0 || first[1] == 0) << first[0] << "/" << first[1];
}

TEST(TopoEcmp, ManyFlowsSpreadOverBothSpines) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 8;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 8;  // leaf 1
  inc.senders = 8;
  inc.packets_per_sender = 8;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_GT(net.trunk(0).packets(0), 0u);
  EXPECT_GT(net.trunk(1).packets(0), 0u);
  net.finalize_metrics();
  const double imbalance = net.scope().gauge("ecmp.imbalance").value();
  EXPECT_GE(imbalance, 1.0);
  EXPECT_LE(imbalance, 2.0);  // 2.0 = everything polarized on one uplink
}

// --- ordering, conservation, hops ----------------------------------------

TEST(TopoNetwork, CrossRackFlowsArriveInOrder) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  // Every host streams two interleaved flows to its cross-rack twin.
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  for (std::uint32_t src = 0; src < 8; ++src) {
    const std::uint32_t dst = (src + 4) % 8;
    spec.ip_src = hosts[src].ip;
    spec.ip_dst = hosts[dst].ip;
    for (std::uint32_t s = 0; s < 32; ++s) {
      for (std::uint32_t f = 0; f < 2; ++f) {  // interleave the two flows
        spec.inc.flow_id = 100 + src * 2 + f;
        spec.udp_src = workload::rack_flow_udp_src(spec.inc.flow_id);
        spec.inc.seq = s;
        hosts[src].host->send_inc(spec, 0);
      }
    }
  }
  sim.run();

  EXPECT_EQ(total_reordered(net), 0u);
  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
  EXPECT_EQ(net.total_host_tx_packets(), 8u * 32 * 2);
  EXPECT_EQ(net.total_trunk_drops(), 0u);
  // Every packet crossed leaf -> spine -> leaf.
  EXPECT_EQ(net.hops().count(), 8u * 32 * 2);
  EXPECT_EQ(net.hops().quantile(0.0), 3.0);
  EXPECT_EQ(net.hops().quantile(1.0), 3.0);
}

TEST(TopoNetwork, SameRackStaysOneHop) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 1;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 1;  // same leaf as the senders below
  inc.senders = 2;  // hosts 0 and 2 — both leaf 0
  inc.packets_per_sender = 4;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_EQ(net.hops().count(), 8u);
  EXPECT_EQ(net.hops().quantile(1.0), 1.0);
  EXPECT_EQ(net.trunk(0).packets(0), 0u);  // nothing went upstairs
}

TEST(TopoNetwork, LossyTrunksConservePackets) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.trunk_link.loss_rate = 0.2;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 6;
  inc.senders = 7;
  inc.packets_per_sender = 32;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();

  EXPECT_GT(net.total_trunk_drops(), 0u);
  EXPECT_EQ(net.total_host_tx_packets(),
            net.total_host_rx_packets() + net.total_trunk_drops() +
                net.total_host_link_drops());
  EXPECT_EQ(total_reordered(net), 0u);  // loss is not reordering
}

// --- all three switch tiers route ----------------------------------------

class TopoTiers : public ::testing::TestWithParam<topo::SwitchKind> {};

TEST_P(TopoTiers, CoflowCompletesAcrossRacks) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.kind = GetParam();
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  workload::RackIncastParams inc;
  inc.sink = 5;
  inc.senders = 7;
  inc.packets_per_sender = 8;
  tracker.start(workload::rack_incast_descriptor(inc, hosts.size()), 0);
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_TRUE(tracker.all_complete());
  EXPECT_EQ(total_reordered(net), 0u);
  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopoTiers,
                         ::testing::Values(topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp,
                                           topo::SwitchKind::kRtc));

// --- fat tree -------------------------------------------------------------

TEST(TopoNetwork, FatTreeRoutesAcrossPodsWithFiveHops) {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 4;
  p.kind = topo::SwitchKind::kRtc;
  topo::Network net(sim, p);
  EXPECT_EQ(net.host_count(), 16u);   // k^3/4
  EXPECT_EQ(net.switch_count(), 20u);  // 8 edge + 8 agg + 4 core
  EXPECT_EQ(net.trunk_count(), 32u);

  auto hosts = rack_hosts(net);
  // host 0 (pod 0) -> host 15 (pod 3): edge-agg-core-agg-edge.
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.ip_src = hosts[0].ip;
  spec.ip_dst = hosts[15].ip;
  spec.inc.flow_id = 1;
  for (std::uint32_t s = 0; s < 4; ++s) {
    spec.inc.seq = s;
    hosts[0].host->send_inc(spec, 0);
  }
  // host 2 -> host 1: same pod, different edge: edge-agg-edge.
  spec.ip_src = hosts[2].ip;
  spec.ip_dst = hosts[1].ip;
  spec.inc.flow_id = 2;
  for (std::uint32_t s = 0; s < 4; ++s) {
    spec.inc.seq = s;
    hosts[2].host->send_inc(spec, 0);
  }
  sim.run();
  EXPECT_EQ(net.host(15).rx_packets(), 4u);
  EXPECT_EQ(net.host(1).rx_packets(), 4u);
  EXPECT_EQ(net.hops().quantile(1.0), 5.0);
  EXPECT_EQ(net.hops().quantile(0.0), 3.0);
  EXPECT_EQ(total_reordered(net), 0u);
}

// --- determinism pin ------------------------------------------------------

/// Pins the exact event count, final time, and the FNV-1a hash of the full
/// metric snapshot of a small two-rack incast on the ADCP tier, once over
/// lossless trunks, once over 20%-lossy ones (the shared trunk loss stream
/// and the drop pool's counters land in the snapshot) and once over
/// 20%-lossy access links (the fabric's shared host stream). Any change
/// to event ordering, routing, metric naming, or JSON formatting moves one
/// of these — bump deliberately with the simulator-determinism change that
/// caused it (see test_event_count_determinism.cpp).
constexpr std::uint64_t kPinnedEvents = 1018;
constexpr sim::Time kPinnedNow = 3'487'120;
constexpr std::uint64_t kPinnedHash = 993'120'951'399'456'147ull;
constexpr std::uint64_t kPinnedLossyEvents = 828;
constexpr sim::Time kPinnedLossyNow = 3'477'360;
constexpr std::uint64_t kPinnedLossyHash = 8'380'874'811'534'764'009ull;
constexpr std::uint64_t kPinnedLossyHostEvents = 644;
constexpr sim::Time kPinnedLossyHostNow = 3'379'760;
constexpr std::uint64_t kPinnedLossyHostHash = 3'888'236'790'988'215'232ull;

TEST(TopoDeterminism, EventCountTimeAndSnapshotHashPinned) {
  const auto run = [](double loss_rate, double host_loss_rate = 0.0) {
    sim::Simulator sim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 4;
    p.trunk_link.loss_rate = loss_rate;
    p.host_link.loss_rate = host_loss_rate;
    topo::Network net(sim, p);
    auto hosts = rack_hosts(net);
    workload::RackIncastParams inc;
    inc.sink = 0;
    inc.senders = 7;
    inc.packets_per_sender = 8;
    workload::start_rack_incast(hosts, inc, 0);
    const std::uint64_t events = sim.run();
    net.finalize_metrics();
    const std::string json = net.metrics().snapshot().to_json("pin");
    return std::tuple{events, sim.now(), fnv1a(json),
                      net.total_trunk_drops() + net.total_host_link_drops()};
  };

  const auto [events, now, hash, drops] = run(0.0);
  const auto [events2, now2, hash2, drops2] = run(0.0);
  EXPECT_EQ(events, events2);
  EXPECT_EQ(now, now2);
  EXPECT_EQ(hash, hash2);
  EXPECT_EQ(drops, 0u);

  EXPECT_EQ(events, kPinnedEvents) << "events=" << events;
  EXPECT_EQ(now, kPinnedNow) << "now=" << now;
  EXPECT_EQ(hash, kPinnedHash) << "hash=" << hash;

  const auto [lossy_events, lossy_now, lossy_hash, lossy_drops] = run(0.2);
  EXPECT_GT(lossy_drops, 0u);
  EXPECT_EQ(lossy_events, kPinnedLossyEvents) << "events=" << lossy_events;
  EXPECT_EQ(lossy_now, kPinnedLossyNow) << "now=" << lossy_now;
  EXPECT_EQ(lossy_hash, kPinnedLossyHash) << "hash=" << lossy_hash;

  const auto [host_events, host_now, host_hash, host_drops] = run(0.0, 0.2);
  EXPECT_GT(host_drops, 0u);
  EXPECT_EQ(host_events, kPinnedLossyHostEvents) << "events=" << host_events;
  EXPECT_EQ(host_now, kPinnedLossyHostNow) << "now=" << host_now;
  EXPECT_EQ(host_hash, kPinnedLossyHostHash) << "hash=" << host_hash;
}

// --- zero-allocation warm path -------------------------------------------

class TopoZeroAlloc : public ::testing::TestWithParam<topo::SwitchKind> {};

/// Steady-state cross-rack forwarding through two trunks must not allocate
/// on any switch model: pools feed the hosts, trunk hops reuse the pooled
/// buffers, every hop parks its transit state in pooled slots, and the hops
/// histogram is pre-reserved. Mirrors test_packet_pool's guard, with the
/// multi-switch chain host -> leaf -> trunk -> spine -> trunk -> leaf -> host.
TEST_P(TopoZeroAlloc, SteadyStateTrunkForwardingDoesNotAllocate) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 2;
  p.kind = GetParam();
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  std::uint32_t seq = 0;
  // Balanced bidirectional traffic so each rack's pool reclaims what it
  // spends. Zero-element INC payloads keep the decode path vector-free.
  const auto burst = [&] {
    packet::IncPacketSpec spec;
    spec.inc.opcode = packet::IncOpcode::kPlain;
    for (std::uint32_t i = 0; i < 8; ++i) {
      spec.ip_src = hosts[0].ip;
      spec.ip_dst = hosts[2].ip;
      spec.inc.flow_id = 1;
      spec.udp_src = workload::rack_flow_udp_src(1);
      spec.inc.seq = seq;
      hosts[0].host->send_inc(spec, 0);
      spec.ip_src = hosts[2].ip;
      spec.ip_dst = hosts[0].ip;
      spec.inc.flow_id = 2;
      spec.udp_src = workload::rack_flow_udp_src(2);
      hosts[2].host->send_inc(spec, 0);
      ++seq;
    }
    sim.run();
  };

  for (int warm = 0; warm < 4; ++warm) burst();
  net.hops().reserve(net.hops().count() + 256);
  if (GetParam() == topo::SwitchKind::kRtc) {
    // RTC also samples every packet's residence; reserve it like hops.
    for (std::size_t i = 0; i < net.switch_count(); ++i) {
      sim::Histogram& residence = net.switch_scope(i).histogram("latency.residence_ps");
      residence.reserve(residence.count() + 256);
    }
  }

  const std::uint64_t before = g_allocations;
  for (int measured = 0; measured < 4; ++measured) burst();
  EXPECT_EQ(g_allocations - before, 0u)
      << "steady-state trunk forwarding allocated " << (g_allocations - before) << " times";

  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
  EXPECT_EQ(total_reordered(net), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopoZeroAlloc,
                         ::testing::Values(topo::SwitchKind::kRmt,
                                           topo::SwitchKind::kAdcp,
                                           topo::SwitchKind::kRtc),
                         [](const auto& info) {
                           switch (info.param) {
                             case topo::SwitchKind::kRmt: return "Rmt";
                             case topo::SwitchKind::kAdcp: return "Adcp";
                             default: return "Rtc";
                           }
                         });

/// The same steady-state guard with span tracing armed in flight-recorder
/// mode: every flow sampled into a small ring that wraps during the
/// measured bursts, so both the record path and the overwrite-oldest path
/// are proven allocation-free.
TEST(TopoZeroAlloc, TracingArmedFlightRecorderDoesNotAllocate) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 2;
  p.kind = topo::SwitchKind::kRmt;
  p.trace.sample_every = 1;   // trace every packet
  p.trace.ring_capacity = 64; // small: the ring must wrap while measured
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  std::uint32_t seq = 0;
  const auto burst = [&] {
    packet::IncPacketSpec spec;
    spec.inc.opcode = packet::IncOpcode::kPlain;
    for (std::uint32_t i = 0; i < 8; ++i) {
      spec.ip_src = hosts[0].ip;
      spec.ip_dst = hosts[2].ip;
      spec.inc.flow_id = 1;
      spec.udp_src = workload::rack_flow_udp_src(1);
      spec.inc.seq = seq;
      hosts[0].host->send_inc(spec, 0);
      spec.ip_src = hosts[2].ip;
      spec.ip_dst = hosts[0].ip;
      spec.inc.flow_id = 2;
      spec.udp_src = workload::rack_flow_udp_src(2);
      hosts[2].host->send_inc(spec, 0);
      ++seq;
    }
    sim.run();
  };

  for (int warm = 0; warm < 4; ++warm) burst();
  net.hops().reserve(net.hops().count() + 256);

  const std::uint64_t before = g_allocations;
  for (int measured = 0; measured < 4; ++measured) burst();
  EXPECT_EQ(g_allocations - before, 0u)
      << "traced trunk forwarding allocated " << (g_allocations - before) << " times";

  ASSERT_EQ(net.span_buffers().size(), 1u);
  const sim::SpanBuffer& buf = *net.span_buffers()[0];
  EXPECT_EQ(buf.size(), 64u);        // ring full...
  EXPECT_GT(buf.dropped(), 0u);      // ...and wrapped (flight recorder)
  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
}

// --- span chains across the fabric ----------------------------------------

/// One sampled cross-rack packet on the 4-leaf/2-spine fabric must leave a
/// connected span chain host.tx -> leaf -> trunk -> spine -> trunk -> leaf
/// -> host.rx under a single trace id, with flow arrows in the export.
TEST(TopoTracing, SampledPacketChainsHostLeafSpineLeafHost) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 4;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.trace.sample_every = 1;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.ip_src = hosts[0].ip;
  spec.ip_dst = hosts[p.hosts_per_leaf].ip;  // first host of rack 1
  spec.inc.flow_id = 77;
  spec.udp_src = workload::rack_flow_udp_src(77);
  spec.inc.seq = 0;
  hosts[0].host->send_inc(spec, 0);
  sim.run();
  net.finalize_metrics();

  ASSERT_EQ(net.span_buffers().size(), 1u);
  const sim::SpanBuffer& buf = *net.span_buffers()[0];
  const std::uint64_t id = net.trace_sampler().trace_id(77, 0);

  // Collect the packet's spans in begin-time order (recording is already
  // chronological per component; a stable scan suffices for one packet).
  std::vector<sim::Span> chain;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf.at(i).trace_id == id) chain.push_back(buf.at(i));
  }
  std::stable_sort(chain.begin(), chain.end(),
                   [](const sim::Span& a, const sim::Span& b) { return a.begin < b.begin; });
  ASSERT_GE(chain.size(), 7u);  // tx + 3 switch traversals + 2 trunks + rx

  EXPECT_EQ(chain.front().kind, sim::SpanKind::kHostTx);
  EXPECT_EQ(chain.back().kind, sim::SpanKind::kHostRx);
  std::size_t trunks = 0;
  std::set<std::string> switches;
  for (const sim::Span& s : chain) {
    trunks += s.kind == sim::SpanKind::kTrunk;
    const std::string& comp = buf.component_names()[s.component];
    if (comp.find("host") == std::string::npos && comp.find("trunk") == std::string::npos &&
        (s.kind == sim::SpanKind::kRx || s.kind == sim::SpanKind::kTx)) {
      switches.insert(comp);
    }
  }
  EXPECT_EQ(trunks, 2u) << "leaf->spine and spine->leaf hops";
  EXPECT_EQ(switches.size(), 3u) << "leaf, spine, leaf";

  // Connected: every span starts no earlier than the previous one began,
  // and the chain is bracketed by the host send/deliver timestamps.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i - 1].begin, chain[i].begin);
    EXPECT_LE(chain[i].begin, chain[i].end);
  }
  EXPECT_LT(chain.front().begin, chain.back().begin);

  // The export draws the arrows: a flow start and finish with this id.
  char idbuf[32];
  std::snprintf(idbuf, sizeof(idbuf), "0x%llx", static_cast<unsigned long long>(id));
  const std::string json = sim::spans_to_perfetto(net.span_buffers());
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":\"" + std::string(idbuf) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"id\":\"" + std::string(idbuf) + "\""),
            std::string::npos);
}

}  // namespace
}  // namespace adcp
