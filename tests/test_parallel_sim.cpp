// Sharded conservative-parallel driver: kernel window primitives, mailbox
// FIFO/injection determinism, the merge algebra (Summary / Histogram /
// Snapshot), and the headline equivalence contract — a fabric built on a
// ParallelSimulator executes the same event count, reaches the same final
// time, and exports the same adcp-metrics-v1 bytes as the monolithic
// single-Simulator build, for any worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "coflow/tracker.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/stats.hpp"
#include "topo/network.hpp"
#include "workload/rack_coflow.hpp"

namespace adcp {
namespace {

constexpr std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<workload::RackHost> rack_hosts(topo::Network& net) {
  std::vector<workload::RackHost> hosts;
  hosts.reserve(net.host_count());
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  return hosts;
}

// --- kernel window primitives ---------------------------------------------

TEST(SimWindow, NextEventTimeSeesEarliestLiveEvent) {
  sim::Simulator sim;
  EXPECT_EQ(sim.next_event_time(), sim::Simulator::kNoEventTime);

  auto h = sim.at(50, [] {});
  sim.at(90, [] {});
  EXPECT_EQ(sim.next_event_time(), 50u);

  h.cancel();  // the stale heap entry must be skipped, not returned
  EXPECT_EQ(sim.next_event_time(), 90u);
}

TEST(SimWindow, RunWindowStopsAtBoundaryWithoutBumpingNow) {
  sim::Simulator sim;
  std::vector<sim::Time> fired;
  for (sim::Time t : {10u, 20u, 30u}) {
    sim.at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }

  // End is exclusive: the event at 30 stays pending, and now() parks on
  // the last executed event instead of the window boundary.
  EXPECT_EQ(sim.run_window(30), 2u);
  EXPECT_EQ(fired, (std::vector<sim::Time>{10, 20}));
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.next_event_time(), 30u);

  EXPECT_EQ(sim.run_window(31), 1u);
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.run_window(1000), 0u);  // empty window is a no-op
  EXPECT_EQ(sim.now(), 30u);
}

// --- ParallelSimulator unit behaviour -------------------------------------

TEST(ParallelSim, CrossShardHandoffPreservesFifoAndTime) {
  sim::ParallelSimulator psim(1);
  sim::Simulator& a = psim.add_shard();
  psim.add_shard();
  sim::Mailbox& mbox = psim.add_mailbox(0, 1, 100);
  EXPECT_EQ(psim.lookahead(), 100u);

  // Three same-timestamp messages sent within one epoch must arrive in
  // push (FIFO) order; a later-timestamp message sorts after them.
  std::vector<int> order;
  a.at(0, [&] {
    mbox.push(150, [&order] { order.push_back(1); });
    mbox.push(150, [&order] { order.push_back(2); });
    mbox.push(130, [&order] { order.push_back(0); });  // earlier time wins
    mbox.push(150, [&order] { order.push_back(3); });
  });

  const std::uint64_t events = psim.run();
  EXPECT_EQ(events, 5u);  // 1 producer + 4 injected arrivals
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(psim.now(), 150u);
  EXPECT_GE(psim.epochs(), 2u);
}

TEST(ParallelSim, PingPongAcrossShardsRunsToQuiescence) {
  // A deterministic two-shard ping-pong: each side re-sends until 10 hops
  // have happened. Exercises multiple epochs and the drain-before-exit
  // rule (a message in flight at an empty-heap moment must not be lost).
  const auto run = [](unsigned threads) {
    sim::ParallelSimulator psim(threads);
    psim.add_shard();
    psim.add_shard();
    sim::Mailbox& ab = psim.add_mailbox(0, 1, 500);
    sim::Mailbox& ba = psim.add_mailbox(1, 0, 500);

    // bounce(side) always executes on shard `side`, so each push honours
    // the mailbox's single-producer contract.
    int hops = 0;
    std::function<void(int)> bounce = [&](int side) {
      if (++hops >= 10) return;
      sim::Mailbox& out = side == 0 ? ab : ba;
      out.push(psim.shard(side).now() + 500, [&bounce, side] { bounce(1 - side); });
    };
    psim.shard(0).at(0, [&bounce] { bounce(0); });

    const std::uint64_t events = psim.run();
    return std::tuple{events, psim.now(), hops};
  };

  const auto [e1, t1, h1] = run(1);
  const auto [e4, t4, h4] = run(4);
  EXPECT_EQ(h1, 10);
  EXPECT_EQ(t1, 9u * 500u);
  EXPECT_EQ(e1, e4);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(h1, h4);
}

// --- merge algebra ---------------------------------------------------------

TEST(MergeAlgebra, SummaryMergeMatchesSequentialRecord) {
  sim::Summary seq, a, b;
  const double xs[] = {3.0, 1.5, -2.0, 8.0, 0.25, 4.0};
  for (int i = 0; i < 6; ++i) {
    seq.record(xs[i]);
    (i < 3 ? a : b).record(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), seq.count());
  EXPECT_DOUBLE_EQ(a.mean(), seq.mean());
  EXPECT_DOUBLE_EQ(a.total(), seq.total());
  EXPECT_DOUBLE_EQ(a.min(), seq.min());
  EXPECT_DOUBLE_EQ(a.max(), seq.max());
  EXPECT_NEAR(a.variance(), seq.variance(), 1e-12);

  sim::Summary empty;
  a.merge(empty);  // both directions of the empty case are identities
  EXPECT_EQ(a.count(), 6u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 6u);
  EXPECT_DOUBLE_EQ(empty.mean(), a.mean());
}

TEST(MergeAlgebra, HistogramMergeGivesExactQuantiles) {
  sim::Histogram seq, a, b;
  for (int i = 0; i < 100; ++i) {
    seq.record(i);
    (i % 2 ? a : b).record(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), seq.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.99), seq.quantile(0.99));
  EXPECT_DOUBLE_EQ(a.mean(), seq.mean());
}

TEST(MergeAlgebra, SnapshotMergeCombinesByKindAndUnionsNames) {
  sim::MetricRegistry ra, rb, rseq;
  ra.counter("shared.count").add(3);
  rb.counter("shared.count").add(4);
  rseq.counter("shared.count").add(7);
  ra.gauge("only.a").set(1.5);
  rb.gauge("only.b").set(2.5);
  rseq.gauge("only.a").set(1.5);
  rseq.gauge("only.b").set(2.5);
  for (int i = 0; i < 10; ++i) {
    ra.histogram("shared.hist").record(i);
    rb.histogram("shared.hist").record(100 + i);
    rseq.histogram("shared.hist").record(i);
    rseq.histogram("shared.hist").record(100 + i);
  }

  sim::Snapshot merged = ra.snapshot();
  merged.merge(rb.snapshot());
  // The merged export must be byte-identical to the one a single registry
  // holding all the samples produces — that is the whole determinism story.
  EXPECT_EQ(merged.to_json("m"), rseq.snapshot().to_json("m"));
}

// --- fabric equivalence: parallel vs monolithic ---------------------------

struct RunResult {
  std::uint64_t events = 0;
  sim::Time now = 0;
  std::uint64_t hash = 0;
  std::uint64_t rx = 0;
  std::vector<sim::Time> ccts;
};

RunResult run_leaf_spine_incast_monolithic() {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = 7;
  inc.packets_per_sender = 8;
  tracker.start(workload::rack_incast_descriptor(inc, hosts.size()), 0);
  workload::start_rack_incast(hosts, inc, 0);
  RunResult r;
  r.events = sim.run();
  net.finalize_metrics();
  r.now = sim.now();
  r.hash = fnv1a(net.merged_snapshot().to_json("pin"));
  r.rx = net.total_host_rx_packets();
  r.ccts = tracker.completion_times();
  return r;
}

RunResult run_leaf_spine_incast_parallel(unsigned threads) {
  sim::ParallelSimulator psim(threads);
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(psim, p);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = 7;
  inc.packets_per_sender = 8;
  tracker.start(workload::rack_incast_descriptor(inc, hosts.size()), 0);
  workload::start_rack_incast(hosts, inc, 0);
  RunResult r;
  r.events = psim.run();
  net.finalize_metrics();
  r.now = psim.now();
  r.hash = fnv1a(net.merged_snapshot().to_json("pin"));
  r.rx = net.total_host_rx_packets();
  r.ccts = tracker.completion_times();
  return r;
}

TEST(ParallelEquivalence, LeafSpineIncastMatchesMonolithic) {
  const RunResult mono = run_leaf_spine_incast_monolithic();
  ASSERT_GT(mono.rx, 0u);
  ASSERT_EQ(mono.ccts.size(), 1u);

  for (unsigned threads : {1u, 2u, 4u}) {
    const RunResult par = run_leaf_spine_incast_parallel(threads);
    EXPECT_EQ(par.events, mono.events) << "threads=" << threads;
    EXPECT_EQ(par.now, mono.now) << "threads=" << threads;
    EXPECT_EQ(par.hash, mono.hash) << "threads=" << threads;
    EXPECT_EQ(par.rx, mono.rx) << "threads=" << threads;
    EXPECT_EQ(par.ccts, mono.ccts) << "threads=" << threads;
  }
}

// --- lossy trunks under PDES ----------------------------------------------

/// TopoNetwork.LossyTrunksConservePackets' fabric on the sharded engine.
/// Every trunk direction draws its own loss stream and every shard cut is a
/// mailbox, so drops, deliveries and snapshot bytes are a function of the
/// topology and seed alone — never of the worker count. The pins fix that
/// function, so a change to the per-direction streams or the mailbox order
/// shows here even when every worker count agrees.
constexpr std::uint64_t kLossyShardedEvents = 3528;
constexpr sim::Time kLossyShardedNow = 4'102'000;
constexpr std::uint64_t kLossyShardedHash = 8'554'819'715'187'304'078ull;
/// The same fabric with lossless trunks and lossy access links: the host
/// shard draws the uplink lottery from its fabric's stream, the switch
/// shard draws the downlink lottery from a per-host stream.
constexpr std::uint64_t kLossyHostEvents = 3086;
constexpr sim::Time kLossyHostNow = 4'111'760;
constexpr std::uint64_t kLossyHostHash = 6'625'931'834'960'207'186ull;
constexpr std::uint64_t kLossyHostRx = 150;

RunResult run_leaf_spine_lossy_parallel(unsigned threads, double trunk_loss = 0.2,
                                        double host_loss = 0.0) {
  sim::ParallelSimulator psim(threads);
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.trunk_link.loss_rate = trunk_loss;
  p.host_link.loss_rate = host_loss;
  topo::Network net(psim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 6;
  inc.senders = 7;
  inc.packets_per_sender = 32;
  workload::start_rack_incast(hosts, inc, 0);
  RunResult r;
  r.events = psim.run();
  net.finalize_metrics();
  r.now = psim.now();
  r.hash = fnv1a(net.merged_snapshot().to_json("pin"));
  r.rx = net.total_host_rx_packets();
  EXPECT_EQ(net.total_trunk_drops() > 0, trunk_loss > 0.0) << "threads=" << threads;
  EXPECT_EQ(net.total_host_link_drops() > 0, host_loss > 0.0) << "threads=" << threads;
  // Each host reports both directions of its access link, although with
  // split hosts the downlink counts on the switch shard.
  std::uint64_t host_drops = 0;
  for (std::size_t i = 0; i < net.host_count(); ++i) host_drops += net.host(i).link_drops();
  EXPECT_EQ(host_drops, net.total_host_link_drops()) << "threads=" << threads;
  EXPECT_EQ(net.total_host_tx_packets(),
            r.rx + net.total_trunk_drops() + net.total_host_link_drops())
      << "threads=" << threads;
  // The Trunk objects and the network's per-trunk accessors read the same
  // sending-shard counters.
  for (std::size_t i = 0; i < net.trunk_count(); ++i) {
    for (int side : {0, 1}) {
      EXPECT_EQ(net.trunk(i).packets(side), net.trunk_packets(i, side))
          << "trunk=" << i << " side=" << side;
    }
  }
  return r;
}

TEST(ParallelEquivalence, LossyTrunksIdenticalAcrossWorkerCounts) {
  const RunResult one = run_leaf_spine_lossy_parallel(1);
  ASSERT_GT(one.rx, 0u);
  EXPECT_EQ(one.events, kLossyShardedEvents) << "events=" << one.events;
  EXPECT_EQ(one.now, kLossyShardedNow) << "now=" << one.now;
  EXPECT_EQ(one.hash, kLossyShardedHash) << "hash=" << one.hash;
  for (unsigned threads : {2u, 4u}) {
    const RunResult par = run_leaf_spine_lossy_parallel(threads);
    EXPECT_EQ(par.events, one.events) << "threads=" << threads;
    EXPECT_EQ(par.now, one.now) << "threads=" << threads;
    EXPECT_EQ(par.hash, one.hash) << "threads=" << threads;
    EXPECT_EQ(par.rx, one.rx) << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, LossyHostLinksIdenticalAcrossWorkerCounts) {
  const RunResult one = run_leaf_spine_lossy_parallel(1, 0.0, 0.2);
  EXPECT_EQ(one.events, kLossyHostEvents) << "events=" << one.events;
  EXPECT_EQ(one.now, kLossyHostNow) << "now=" << one.now;
  EXPECT_EQ(one.hash, kLossyHostHash) << "hash=" << one.hash;
  EXPECT_EQ(one.rx, kLossyHostRx) << "rx=" << one.rx;
  for (unsigned threads : {2u, 4u}) {
    const RunResult par = run_leaf_spine_lossy_parallel(threads, 0.0, 0.2);
    EXPECT_EQ(par.events, one.events) << "threads=" << threads;
    EXPECT_EQ(par.now, one.now) << "threads=" << threads;
    EXPECT_EQ(par.hash, one.hash) << "threads=" << threads;
    EXPECT_EQ(par.rx, one.rx) << "threads=" << threads;
  }
}

// --- the acceptance pin: fat_tree(4) rack-allreduce -----------------------

RunResult run_fat_tree_allreduce_monolithic() {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 4;
  topo::Network net(sim, p);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  auto hosts = rack_hosts(net);
  workload::RackAllReduceParams ap;
  ap.ps = 0;
  for (std::uint32_t w = 1; w < hosts.size(); ++w) ap.workers.push_back(w);
  workload::RackAllReduce ar(ap);
  ar.attach(hosts, sim, &tracker);
  ar.start(0);
  RunResult r;
  r.events = sim.run();
  EXPECT_TRUE(ar.complete());
  net.finalize_metrics();
  r.now = sim.now();
  r.hash = fnv1a(net.merged_snapshot().to_json("pin"));
  r.rx = net.total_host_rx_packets();
  r.ccts = tracker.completion_times();
  return r;
}

RunResult run_fat_tree_allreduce_parallel(unsigned threads) {
  sim::ParallelSimulator psim(threads);
  topo::FatTreeParams p;
  p.k = 4;
  topo::Network net(psim, p);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  auto hosts = rack_hosts(net);
  workload::RackAllReduceParams ap;
  ap.ps = 0;
  for (std::uint32_t w = 1; w < hosts.size(); ++w) ap.workers.push_back(w);
  workload::RackAllReduce ar(ap);
  ar.attach(hosts, net.sim_of_host(ap.ps), &tracker);
  ar.start(0);
  RunResult r;
  r.events = psim.run();
  EXPECT_TRUE(ar.complete());
  net.finalize_metrics();
  r.now = psim.now();
  r.hash = fnv1a(net.merged_snapshot().to_json("pin"));
  r.rx = net.total_host_rx_packets();
  r.ccts = tracker.completion_times();
  return r;
}

TEST(ParallelEquivalence, FatTreeAllReduceThreads4MatchesThreads1AndMonolithic) {
  const RunResult mono = run_fat_tree_allreduce_monolithic();
  const RunResult par1 = run_fat_tree_allreduce_parallel(1);
  const RunResult par4 = run_fat_tree_allreduce_parallel(4);

  // threads=1 vs threads=4: the determinism contract proper.
  EXPECT_EQ(par1.events, par4.events);
  EXPECT_EQ(par1.now, par4.now);
  EXPECT_EQ(par1.hash, par4.hash);
  EXPECT_EQ(par1.ccts, par4.ccts);

  // Sharded vs monolithic: every observable output is bit-identical —
  // final time, the full adcp-metrics-v1 export, deliveries, CCTs.
  EXPECT_EQ(par1.now, mono.now);
  EXPECT_EQ(par1.hash, mono.hash);
  EXPECT_EQ(par1.rx, mono.rx);
  EXPECT_EQ(par1.ccts, mono.ccts);

  // Executed-event counts differ by exactly two idle-wake events on this
  // scenario: AdcpSwitch::try_drain_* schedules a same-tick wake only when
  // none is pending, and whether two same-tick arrivals share one wake
  // depends on intra-tick tie order — which the sharded run resolves by
  // (time, mailbox, seq) instead of the monolithic global insertion
  // counter. Both orders are valid schedules of the same packet timeline
  // (the hash/now/CCT pins above prove it); only the wake bookkeeping
  // coalesces differently. The skew is a deterministic constant of the
  // (topology, workload, seed) triple — the leaf_spine test above pins
  // exact equality where no such tie occurs, and any real divergence
  // (lost or duplicated packets) moves this by hundreds, so pin it exact.
  ASSERT_GE(mono.events, par1.events);
  EXPECT_EQ(mono.events - par1.events, 2u)
      << "par=" << par1.events << " mono=" << mono.events;
}

// --- tracing determinism: the pin extended to span output ------------------

struct TraceRun {
  std::string perfetto;
  std::string csv;
  sim::Snapshot pdes;          ///< the engine's private self-profile registry
  std::string pdes_perfetto;  ///< its busy/wait spans, wall-clock microseconds
};

/// The pinned fat_tree(4) allreduce with head-sampling armed (1-in-2 by
/// flow hash, so both the sampled and the unsampled branch execute);
/// `profile` also arms the engine's wall-clock profile spans.
TraceRun run_fat_tree_allreduce_traced(unsigned threads, bool profile = false) {
  sim::ParallelSimulator psim(threads);
  topo::FatTreeParams p;
  p.k = 4;
  p.trace.sample_every = 2;
  topo::Network net(psim, p);
  if (profile) psim.enable_profile_spans();
  auto hosts = rack_hosts(net);
  workload::RackAllReduceParams ap;
  ap.ps = 0;
  for (std::uint32_t w = 1; w < hosts.size(); ++w) ap.workers.push_back(w);
  workload::RackAllReduce ar(ap);
  ar.attach(hosts, net.sim_of_host(ap.ps));
  ar.start(0);
  psim.run();
  EXPECT_TRUE(ar.complete());
  net.finalize_metrics();
  TraceRun t;
  t.perfetto = sim::spans_to_perfetto(net.span_buffers());
  t.csv = sim::spans_to_csv(net.span_buffers());
  t.pdes = psim.metrics().snapshot();
  t.pdes_perfetto = sim::spans_to_perfetto(psim.profile_span_buffers(), 1e-3);
  return t;
}

std::set<std::string> trace_ids_of(const std::string& csv) {
  std::set<std::string> ids;
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    ids.insert(line.substr(0, line.find(',')));
  }
  return ids;
}

TEST(ParallelEquivalence, FatTreeTraceOutputIdenticalAcrossThreads) {
  const TraceRun par1 = run_fat_tree_allreduce_traced(1);
  const TraceRun par4 = run_fat_tree_allreduce_traced(4);

  // Sampling decisions and span ids are pure functions of (flow, seq,
  // seed); recording order within a shard never depends on the worker
  // count — so both exports must be byte-identical, not just equivalent.
  ASSERT_FALSE(par1.perfetto.empty());
  EXPECT_EQ(par1.perfetto, par4.perfetto);
  EXPECT_EQ(par1.csv, par4.csv);
  EXPECT_EQ(trace_ids_of(par1.csv), trace_ids_of(par4.csv));
  EXPECT_GT(trace_ids_of(par1.csv).size(), 1u);  // head-sampling kept some flows

  // The PDES self-profile must be populated for every shard — values are
  // wall-clock (nondeterministic), so only presence and shape are pinned.
  for (const TraceRun* t : {&par1, &par4}) {
    ASSERT_NE(t->pdes.find("pdes.shard0.busy_ns"), nullptr);
    ASSERT_NE(t->pdes.find("pdes.shard0.idle_ns"), nullptr);
    ASSERT_NE(t->pdes.find("pdes.shard0.horizon_wait_ns"), nullptr);
    const sim::Snapshot::Entry* occ = t->pdes.find("pdes.mailbox.occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_GT(occ->count, 0u);  // cross-shard traffic drained in batches
    EXPECT_GT(t->pdes.value("pdes.shard0.busy_ns") +
                  t->pdes.value("pdes.shard0.horizon_wait_ns"),
              0.0);
  }
}

/// Checks the trace-event structure Perfetto relies on and returns the
/// number of events: each has "ph" and "pid", each non-metadata event a
/// "ts", and "X" slices start at non-decreasing times on every (pid, tid)
/// track. spans_to_perfetto writes one event per line.
std::size_t expect_perfetto_structure(const std::string& json) {
  const auto field = [](const std::string& ev, const std::string& key) {
    const std::size_t at = ev.find("\"" + key + "\":");
    if (at == std::string::npos) return std::optional<std::string>{};
    const std::size_t begin = at + key.size() + 3;
    return std::optional<std::string>{ev.substr(begin, ev.find_first_of(",}", begin) - begin)};
  };
  std::map<std::pair<std::string, std::string>, double> last_ts;
  std::size_t events = 0;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t open = line.find("{\"name\":");
    if (open == std::string::npos) continue;
    const std::string ev = line.substr(open);
    ++events;
    const auto ph = field(ev, "ph");
    const auto pid = field(ev, "pid");
    if (!ph || !pid) {
      ADD_FAILURE() << "no ph or pid: " << ev;
      continue;
    }
    if (*ph == "\"M\"") continue;
    const auto ts = field(ev, "ts");
    const auto tid = field(ev, "tid");
    if (!ts || (*ph == "\"X\"" && !tid)) {
      ADD_FAILURE() << "no ts, or an X slice without tid: " << ev;
      continue;
    }
    if (*ph != "\"X\"") continue;
    double& last = last_ts[{*pid, *tid}];
    const double t = std::stod(*ts);
    EXPECT_GE(t, last) << ev;
    last = t;
  }
  return events;
}

TEST(PerfettoExport, SpanAndProfileTracesHaveTraceEventStructure) {
  const TraceRun t = run_fat_tree_allreduce_traced(2, /*profile=*/true);
  EXPECT_GT(expect_perfetto_structure(t.perfetto), 1u);       // simulated packet spans
  EXPECT_GT(expect_perfetto_structure(t.pdes_perfetto), 1u);  // PDES wall-clock profile
}

TEST(ParallelSim, ProfileSpansRecordWorkBurstsPerShard) {
  sim::ParallelSimulator psim(2);
  sim::Simulator& a = psim.add_shard();
  psim.add_shard();
  sim::Mailbox& mbox = psim.add_mailbox(0, 1, 100);
  psim.enable_profile_spans(1024);

  int delivered = 0;
  a.at(0, [&] { mbox.push(100, [&delivered] { ++delivered; }); });
  psim.run();
  EXPECT_EQ(delivered, 1);

  // Lookahead rounds only record spans for rounds that did real work, so
  // the pin is per-shard presence, not a per-epoch count: both shards
  // executed events, so both buffers must hold at least one kPdesBusy.
  const std::vector<const sim::SpanBuffer*> bufs = psim.profile_span_buffers();
  ASSERT_EQ(bufs.size(), 2u);
  std::uint64_t total = 0;
  for (std::size_t shard = 0; shard < bufs.size(); ++shard) {
    const sim::SpanBuffer& prof = *bufs[shard];
    EXPECT_GE(prof.recorded(), 1u);
    total += prof.recorded();
    bool saw_busy = false;
    for (std::size_t i = 0; i < prof.size(); ++i) {
      const sim::Span& s = prof.at(i);
      EXPECT_LE(s.begin, s.end);
      EXPECT_EQ(s.trace_id, shard + 1);  // shard index + 1
      saw_busy = saw_busy || s.kind == sim::SpanKind::kPdesBusy;
    }
    EXPECT_TRUE(saw_busy);
  }
  EXPECT_GE(total, 2u);
  // Both shards' tracks appear in the export, under their own names.
  const std::string json = sim::spans_to_perfetto(bufs, 1e-3);
  EXPECT_NE(json.find("pdes.shard0/pdes.busy"), std::string::npos);
  EXPECT_NE(json.find("pdes.shard1/pdes.busy"), std::string::npos);
}

}  // namespace
}  // namespace adcp
