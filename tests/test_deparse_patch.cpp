// Write-back only what the program wrote: Deparser::rewrite (the switch's
// write-back, which patches the written fixed-offset scalars into a copy of
// the original bytes when it can) must give exactly the bytes and metadata
// of the full reference deparse, deparse_into, for every parse graph the
// switch models use and for any write set. The property test draws packets
// and write sets from a seeded generator; the fabric guard sends a packet
// whose constant bytes are not canonical through cache-off fabrics whose
// edges skip the parse for canonical packets: it must still arrive with the
// bytes a full deparse gives.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "core/program.hpp"
#include "fastpath/fastpath.hpp"
#include "packet/deparser.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "rmt/programs.hpp"
#include "rtc/rtc_switch.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"

namespace adcp {
namespace {

namespace f = packet::fields;
namespace af = packet::array_fields;

void expect_same_meta(const packet::Metadata& a, const packet::Metadata& b) {
  EXPECT_EQ(a.ingress_port, b.ingress_port);
  EXPECT_EQ(a.egress_port, b.egress_port);
  ASSERT_EQ(a.egress_ports.size(), b.egress_ports.size());
  for (std::size_t i = 0; i < a.egress_ports.size(); ++i) {
    EXPECT_EQ(a.egress_ports[i], b.egress_ports[i]);
  }
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.recirculations, b.recirculations);
  EXPECT_EQ(a.recirc_request, b.recirc_request);
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.telem_depth, b.telem_depth);
  EXPECT_EQ(a.flow_id, b.flow_id);
  EXPECT_EQ(a.coflow_id, b.coflow_id);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.trace_mark, b.trace_mark);
  EXPECT_EQ(a.flow_hash, b.flow_hash);
}

/// A random INC packet with 0..64 elements and random metadata.
packet::Packet random_packet(std::mt19937_64& rng) {
  packet::IncPacketSpec spec;
  spec.ip_src = static_cast<std::uint32_t>(rng());
  spec.ip_dst = static_cast<std::uint32_t>(rng());
  spec.udp_src = static_cast<std::uint16_t>(rng());
  spec.inc.opcode = static_cast<packet::IncOpcode>(1 + rng() % 21);
  spec.inc.coflow_id = static_cast<std::uint16_t>(rng());
  spec.inc.flow_id = static_cast<std::uint32_t>(rng());
  spec.inc.seq = static_cast<std::uint32_t>(rng());
  spec.inc.worker_id = static_cast<std::uint32_t>(rng());
  spec.inc.elements.resize(rng() % 65);
  for (auto& e : spec.inc.elements) {
    e = {static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng())};
  }
  packet::Packet pkt = packet::make_inc_packet(spec);
  pkt.meta.ingress_port = static_cast<packet::PortId>(rng() % 16);
  pkt.meta.egress_port = static_cast<packet::PortId>(rng() % 16);
  for (std::uint64_t n = rng() % 3; n > 0; --n) {
    pkt.meta.egress_ports.push_back(static_cast<packet::PortId>(rng() % 16));
  }
  pkt.meta.arrival = rng() % 1'000'000;
  pkt.meta.recirculations = static_cast<std::uint32_t>(rng() % 3);
  pkt.meta.telem_depth = static_cast<std::uint16_t>(rng());
  pkt.meta.trace_id = rng() % 2 == 0 ? 0 : rng();
  pkt.meta.flow_hash = rng() % 2 == 0 ? 0 : rng();
  return pkt;
}

/// Wire damage the write-back must survive: non-canonical constant bytes,
/// an element count the packet does not carry, truncation, trailing bytes
/// (an INT trailer) — or none.
void damage(std::mt19937_64& rng, packet::Packet& pkt) {
  packet::Buffer& b = pkt.data;
  switch (rng() % 8) {
    case 0: {
      // Version/IHL, IP identification, flags, IP checksum, UDP checksum.
      constexpr std::size_t kAt[] = {14, 18, 20, 24, 40};
      constexpr std::size_t kWidth[] = {1, 2, 2, 2, 2};
      const std::size_t i = rng() % 5;
      b.write(kAt[i], kWidth[i], b.read(kAt[i], kWidth[i]) ^ (1 + rng() % 0xff));
      break;
    }
    case 1:
      b.write(43, 1, rng() % 70);
      break;
    case 2:
      b.resize(rng() % (b.size() + 1));
      break;
    case 3:
      for (std::uint64_t n = 1 + rng() % 40; n > 0; --n) b.append(1, rng());
      break;
    default:
      break;
  }
}

/// A random write set: TTL, ToS/ECN, an IP swap, opcode, element count,
/// flow ids, metadata, user scalars, clear()ed fields and array writes, each
/// with its own odds, so most sets are small and some are empty.
void random_writes(std::mt19937_64& rng, packet::Phv& phv) {
  const auto odds = [&](unsigned n) { return rng() % n == 0; };
  if (odds(2)) phv.set(f::kIpTtl, odds(8) ? rng() % 512 : phv.get_or(f::kIpTtl, 1) - 1);
  if (odds(5)) phv.set(f::kIpTos, phv.get_or(f::kIpTos, 0) | 0x3);
  if (odds(6)) {
    const std::uint64_t src = phv.get_or(f::kIpSrc, 0);
    phv.set(f::kIpSrc, phv.get_or(f::kIpDst, 0));
    phv.set(f::kIpDst, src);
  }
  if (odds(6)) phv.set(f::kIncOpcode, rng() % 256);
  if (odds(8)) phv.set(f::kIncElemCount, rng() % 70);
  if (odds(8)) phv.set(f::kIncFlowId, rng());
  if (odds(8)) phv.set(f::kIncCoflowId, rng() % 0x10000);
  if (odds(8)) phv.set(f::kUdpDst, odds(2) ? packet::kIncUdpPort : rng() % 0x10000);
  if (odds(4)) phv.set(f::kMetaEgressPort, rng() % 16);
  if (odds(6)) phv.set(f::kMetaFlowHash, rng());
  if (odds(10)) phv.set(f::kMetaDrop, 1);
  if (odds(6)) phv.set(f::user_field(rng() % 8), rng() % 0x1'0000'0000);
  if (odds(10)) phv.clear(static_cast<packet::FieldId>(rng() % 40));
  if (odds(8)) {
    std::vector<std::uint64_t>& keys = phv.array(af::kIncKeys);
    switch (rng() % 4) {
      case 0:
        keys.push_back(rng() % 0x1'0000'0000);
        break;
      case 1:
        if (!keys.empty()) keys[rng() % keys.size()] ^= 1;
        break;
      case 2:
        keys.resize(keys.size() / 2);
        break;
      default:
        break;  // a taken reference counts as a write
    }
  }
}

TEST(DeparsePatch, RewriteEqualsFullDeparseOverRandomWriteSets) {
  struct Program {
    packet::ParseGraph graph;
    packet::Deparser deparser;
  };
  const std::vector<Program> programs = {
      // The RMT scalar-only graph (elements stay in the payload) and the
      // ADCP and RTC lane graphs, with the standard deparser.
      {packet::standard_parse_graph(0), packet::standard_deparser()},
      {packet::standard_parse_graph(core::kAdcpParseLanes), packet::standard_deparser()},
      {packet::standard_parse_graph(rtc::kRtcParseLanes), packet::standard_deparser()},
      // RMT's unrolled aggregation program: elements in scalar user fields.
      {rmt::scalar_unrolled_parse_graph(4), rmt::scalar_unrolled_deparser(4)},
      // A mismatched pair: the header the deparser emits is shorter than
      // the parse consumed, so only a full deparse is right.
      {rmt::scalar_unrolled_parse_graph(4), packet::standard_deparser()}};
  std::mt19937_64 rng(0x5eedda7a);
  packet::Pool pool;
  packet::ParseResult pr;
  std::uint64_t patched = 0;
  std::uint64_t deparsed = 0;
  for (int i = 0; i < 30'000; ++i) {
    packet::Packet pkt = random_packet(rng);
    damage(rng, pkt);
    const std::size_t g = rng() % programs.size();
    packet::Parser(&programs[g].graph).parse_into(pkt, pr);
    const packet::Deparser& deparser = programs[g].deparser;
    if (!pr.accepted) continue;
    ASSERT_EQ(pr.phv.writes().scalars, 0u);
    ASSERT_FALSE(pr.phv.writes().arrays);
    random_writes(rng, pr.phv);

    packet::Packet reference;
    deparser.deparse_into(pr.phv, pkt, pr.consumed, reference);
    const bool patch = deparser.can_patch(pr.phv, pkt, pr.consumed);
    const packet::Pool::Stats before = pool.stats();
    const packet::Packet out = deparser.rewrite(pr.phv, pkt, pr.consumed, pool);
    const packet::Pool::Stats after = pool.stats();

    ASSERT_EQ(out.data, reference.data) << "case " << i << " graph " << g
                                        << (patch ? " (patched)" : " (deparsed)");
    expect_same_meta(out.meta, reference.meta);
    // One acquire and one release either way: the pool counters are
    // snapshot metrics.
    EXPECT_EQ(after.fresh + after.recycled, before.fresh + before.recycled + 1);
    EXPECT_EQ(after.released, before.released + 1);
    ++(patch ? patched : deparsed);
  }
  EXPECT_GE(patched + deparsed, 10'000u);
  // Both write-backs are exercised, not one by accident.
  EXPECT_GE(patched, 3'000u);
  EXPECT_GE(deparsed, 3'000u);
}

TEST(DeparsePatch, TtlOnlyWriteIsPatched) {
  const packet::ParseGraph g = packet::standard_parse_graph(16);
  const packet::Deparser deparser = packet::standard_deparser();
  packet::IncPacketSpec spec;
  spec.inc.elements.resize(8);
  const packet::Packet pkt = packet::make_inc_packet(spec);
  packet::ParseResult pr = packet::Parser(&g).parse(pkt);
  ASSERT_TRUE(pr.accepted);
  pr.phv.set(f::kIpTtl, pr.phv.get(f::kIpTtl) - 1);
  pr.phv.set(f::kMetaEgressPort, 3);  // not on the wire
  EXPECT_EQ(pr.phv.writes().scalars,
            (std::uint64_t{1} << f::kIpTtl) | (std::uint64_t{1} << f::kMetaEgressPort));
  EXPECT_TRUE(deparser.can_patch(pr.phv, pkt, pr.consumed));

  packet::Pool pool;
  const packet::Packet out = deparser.rewrite(pr.phv, pkt, pr.consumed, pool);
  packet::Buffer expected = pkt.data;
  expected.write(22, 1, packet::kIncInitialTtl - 1u);
  EXPECT_EQ(out.data, expected);

  // A read through the mutable array accessor forces the full deparse.
  (void)pr.phv.array(af::kIncKeys);
  EXPECT_FALSE(deparser.can_patch(pr.phv, pkt, pr.consumed));
}

TEST(DeparsePatch, PhvEqualityIgnoresTheWriteRecord) {
  packet::Phv a;
  packet::Phv b;
  a.set(f::kIpTtl, 7);
  b.set(f::kIpTtl, 7);
  b.mark_clean();
  EXPECT_NE(a.writes().scalars, b.writes().scalars);
  EXPECT_EQ(a, b);
}

// --- fabric guard: a non-canonical packet takes the slow edge ---------------

/// The bytes host `to` receives after host `from` sends `pkt` through
/// `net` (nullopt if it never arrives).
std::optional<packet::Buffer> deliver(sim::Simulator& sim, topo::Network& net, std::size_t from,
                                      std::size_t to, packet::Packet pkt) {
  std::optional<packet::Buffer> got;
  net.host(to).set_rx_callback(
      [&](net::Host&, const packet::Packet& rx) { got = rx.data; });
  net.host(from).send(std::move(pkt), sim.now());
  sim.run();
  return got;
}

packet::Packet flow_packet(const topo::Network& net, std::size_t from, std::size_t to) {
  packet::IncPacketSpec spec;
  spec.ip_src = net.ip_of(from);
  spec.ip_dst = net.ip_of(to);
  spec.udp_src = 41'000;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = 5;
  spec.inc.elements.resize(4);
  return packet::make_inc_packet(spec);
}

/// A packet with a non-canonical IP identification must arrive with the
/// bytes the full deparse gives (identification zeroed, TTL decremented per
/// hop), exactly as its canonical twin does — sent after the twin, so every
/// edge passthrough site on the path is armed.
void expect_slow_edge_canonicalizes(sim::Simulator& sim, topo::Network& net, std::size_t from,
                                    std::size_t to, std::uint64_t hops) {
  const packet::Packet twin = flow_packet(net, from, to);
  packet::Packet odd = flow_packet(net, from, to);
  odd.data.write(18, 2, 0x1234);
  fastpath::WireView w;
  ASSERT_TRUE(fastpath::inspect(twin, 0, w));
  ASSERT_FALSE(fastpath::inspect(odd, 0, w));

  const std::optional<packet::Buffer> canonical = deliver(sim, net, from, to, twin);
  ASSERT_TRUE(canonical.has_value());
  packet::Buffer expected = twin.data;
  expected.write(22, 1, packet::kIncInitialTtl - hops);
  EXPECT_EQ(*canonical, expected);

  const std::optional<packet::Buffer> repaired = deliver(sim, net, from, to, odd);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->read(18, 2), 0u);
  EXPECT_EQ(*repaired, expected);
}

TEST(DeparsePatchFabric, CacheOffAdcpFatTreeRestoresCanonicalBytes) {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 4;
  p.kind = topo::SwitchKind::kAdcp;
  p.profile.fastpath_entries = 0;
  topo::Network net(sim, p);
  // Host 0 and the last host sit in different pods: edge, aggregation,
  // core, aggregation, edge.
  expect_slow_edge_canonicalizes(sim, net, 0, net.host_count() - 1, 5);
}

TEST(DeparsePatchFabric, CacheOffRmtLeafSpineRestoresCanonicalBytes) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.kind = topo::SwitchKind::kRmt;
  p.profile.fastpath_entries = 0;
  topo::Network net(sim, p);
  // Leaf, spine, leaf.
  expect_slow_edge_canonicalizes(sim, net, 0, p.hosts_per_leaf, 3);
}

}  // namespace
}  // namespace adcp
