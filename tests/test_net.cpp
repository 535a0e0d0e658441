// Unit tests for links, hosts, and the fabric against a loopback device.
#include <gtest/gtest.h>

#include <vector>

#include "net/device.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace adcp::net {
namespace {

/// Test double: reflects every injected packet back out of the same port
/// after a fixed latency.
class LoopbackDevice final : public SwitchDevice {
 public:
  LoopbackDevice(sim::Simulator& sim, std::uint32_t ports, sim::Time latency)
      : sim_(&sim), ports_(ports), latency_(latency) {}

  void inject(packet::PortId port, packet::Packet pkt) override {
    ++injected_;
    sim_->after(latency_, [this, port, pkt = std::move(pkt)]() mutable {
      if (handler_) handler_(port, std::move(pkt));
    });
  }
  void set_tx_handler(TxHandler handler) override { handler_ = std::move(handler); }
  [[nodiscard]] std::uint32_t port_count() const override { return ports_; }
  [[nodiscard]] double port_gbps() const override { return 100.0; }

  std::uint64_t injected_ = 0;

 private:
  sim::Simulator* sim_;
  std::uint32_t ports_;
  sim::Time latency_;
  TxHandler handler_;
};

packet::Packet inc_pkt(std::uint32_t flow, std::uint32_t seq, std::size_t elems = 2) {
  packet::IncPacketSpec spec;
  spec.inc.flow_id = flow;
  spec.inc.seq = seq;
  for (std::size_t i = 0; i < elems; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(i), 0});
  }
  return packet::make_inc_packet(spec);
}

TEST(Link, SerializeUsesRate) {
  const Link l{10.0, 0};
  EXPECT_EQ(l.serialize(125), 100'000u);  // 1000 bits at 10 Gbps = 100 ns
}

TEST(Wire, DeliversThroughItsLaneInSendOrder) {
  sim::Simulator sim;
  sim::MetricRegistry reg;
  sim::Rng rng(7);
  // A stream with a zero loss rate never draws: the lottery is skipped.
  Wire w(sim, reg.scope("w"), &rng, 0.0, nullptr, nullptr);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    packet::Packet pkt = inc_pkt(1, static_cast<std::uint32_t>(i));
    EXPECT_FALSE(w.lose(pkt, 0));
    w.deliver(100 + static_cast<sim::Time>(i), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 102u);
  EXPECT_EQ(reg.counter("w.drops.link").value(), 0u);
  EXPECT_EQ(rng.uniform01(), sim::Rng(7).uniform01());
}

TEST(Wire, LostPacketIsCountedAndRecycled) {
  sim::Simulator sim;
  sim::MetricRegistry reg;
  sim::Rng rng(7);
  packet::Pool pool;
  Wire w(sim, reg.scope("w"), &rng, 1.0, &pool, nullptr);
  packet::Packet pkt = inc_pkt(1, 0);
  EXPECT_TRUE(w.lose(pkt, 5));
  EXPECT_EQ(reg.counter("w.drops.link").value(), 1u);
  EXPECT_EQ(pool.stats().released, 1u);
  // Without a stream the same rate is lossless.
  Wire lossless(sim, reg.scope("v"), nullptr, 1.0, &pool, nullptr);
  packet::Packet kept = inc_pkt(1, 1);
  EXPECT_FALSE(lossless.lose(kept, 5));
  EXPECT_GT(kept.size(), 0u);
}

TEST(Host, SendPacesAtNicRate) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 2, 0);
  Fabric fabric(sim, dev, Link{10.0, 0});  // slow NIC, zero propagation

  const sim::Time a1 = fabric.host(0).send(inc_pkt(1, 0));
  const sim::Time a2 = fabric.host(0).send(inc_pkt(1, 1));
  // Second packet's first bit waits for the first's serialization.
  const Link nic{10.0, 0};
  EXPECT_EQ(a2 - a1, nic.serialize(packet::inc_packet_bytes(2)));
  sim.run();
  EXPECT_EQ(dev.injected_, 2u);
}

TEST(Host, PropagationDelaysArrival) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 1, 0);
  Fabric fabric(sim, dev, Link{100.0, 700 * sim::kNanosecond});
  const sim::Time arrival = fabric.host(0).send(inc_pkt(1, 0));
  EXPECT_EQ(arrival, 700 * sim::kNanosecond);
}

TEST(Host, CountsRxAndGoodput) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 1, 1000);
  Fabric fabric(sim, dev, Link{100.0, 0});
  fabric.host(0).send(inc_pkt(1, 0, 4));
  sim.run();
  EXPECT_EQ(fabric.host(0).rx_packets(), 1u);
  EXPECT_EQ(fabric.host(0).rx_bytes(), packet::inc_packet_bytes(4));
  EXPECT_EQ(fabric.host(0).rx_goodput_bytes(), 4 * packet::kIncElementBytes);
}

TEST(Host, DetectsReordering) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 1, 0);
  Fabric fabric(sim, dev, Link{100.0, 0});
  Host& h = fabric.host(0);
  // Deliver seq 5 then seq 3 of the same flow directly.
  h.deliver_from_switch(inc_pkt(7, 5));
  h.deliver_from_switch(inc_pkt(7, 3));
  h.deliver_from_switch(inc_pkt(7, 6));
  sim.run();
  EXPECT_EQ(h.rx_reordered(), 1u);
}

TEST(Host, RxCallbackFires) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 1, 0);
  Fabric fabric(sim, dev, Link{100.0, 0});
  int called = 0;
  fabric.host(0).set_rx_callback([&](Host&, const packet::Packet&) { ++called; });
  fabric.host(0).send(inc_pkt(1, 0));
  sim.run();
  EXPECT_EQ(called, 1);
}

TEST(Host, TrackerReceivesDeliveries) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 1, 0);
  Fabric fabric(sim, dev, Link{100.0, 0});
  coflow::CoflowTracker tracker;
  coflow::CoflowDescriptor d;
  d.id = 9;
  d.flows.push_back(coflow::FlowSpec{4, 0, 0, 0, 1});
  tracker.start(d, 0);
  fabric.set_tracker(&tracker);

  packet::IncPacketSpec spec;
  spec.inc.coflow_id = 9;
  spec.inc.flow_id = 4;
  fabric.host(0).send(packet::make_inc_packet(spec));
  sim.run();
  EXPECT_TRUE(tracker.all_complete());
}

TEST(Fabric, OneHostPerPort) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 5, 0);
  Fabric fabric(sim, dev, Link{100.0, 0});
  EXPECT_EQ(fabric.size(), 5u);
  EXPECT_EQ(fabric.host(3).port(), 3u);
}

TEST(Fabric, HostCountLeavesHighPortsToDefaultTx) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 5, 0);
  Fabric fabric(sim, dev, Link{100.0, 0}, 0xfab21c, {}, 2);
  EXPECT_EQ(fabric.size(), 2u);

  // TX on a hostless port goes to the default handler (a trunk, in the
  // topology layer), not to any host.
  int defaulted = 0;
  fabric.set_default_tx([&](packet::PortId port, packet::Packet) {
    EXPECT_EQ(port, 4u);
    ++defaulted;
  });
  dev.inject(4, inc_pkt(1, 0));  // loopback reflects out of port 4
  sim.run();
  EXPECT_EQ(defaulted, 1);
  EXPECT_EQ(fabric.host(0).rx_packets(), 0u);
}

TEST(Host, ResetClearsPerFlowReorderState) {
  sim::Simulator sim;
  LoopbackDevice dev(sim, 1, 0);
  Fabric fabric(sim, dev, Link{100.0, 0});
  Host& h = fabric.host(0);
  h.deliver_from_switch(inc_pkt(7, 5));
  sim.run();
  ASSERT_EQ(h.rx_reordered(), 0u);

  // A fresh run re-starts flows at seq 0: without reset() this would count
  // as reordering against the stale highest_seq_ map.
  h.reset();
  EXPECT_EQ(h.last_rx_time(), 0u);
  h.deliver_from_switch(inc_pkt(7, 0));
  sim.run();
  EXPECT_EQ(h.rx_reordered(), 0u);
}

}  // namespace
}  // namespace adcp::net
