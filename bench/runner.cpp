// The benchmark runner: every fabric scenario and sweep in one binary, one
// adcp-metrics-v1 report per invocation (see bench_report.hpp, DESIGN.md
// "Simulator performance" and EXPERIMENTS.md E10, E18-E24).
//
// Usage:
//   bench_runner [--quick] [--scenario NAME] [--threads N[,N...]] [--repeat N]
//                [--scale S[,S...]] [--tier-profile full|slim]
//                [--out FILE] [--trace-out FILE]
//
// Modes, with the report each writes:
//   (default)                    [kernel] the timed scenarios event_kernel,
//       rmt_all_to_all, adcp_all_to_all, parser_loop, tm_loop, leaf_spine,
//       control_churn and parallel_fabric: all of them, or the one named by
//       --scenario. (scenario, seed) jobs fan across --threads worker
//       threads; each simulation stays single-threaded and deterministic,
//       except that parallel_fabric runs its sharded engine with --threads
//       workers. Reports ns/op and ops/sec per scenario.
//   --scenario rack_coflows      [leaf_spine] E18: RMT vs ADCP tiers.
//   --scale S1,S2,...            [parallel] E19-E22: monolithic vs sharded.
//   --scenario control_grid      [control] E23: arch x poll x shift grid.
//   --scenario datapath_fastpath [datapath] E24: flow cache off vs on.
// Each sweep's function below documents its cells and its gates.
//
// --out FILE writes the report; without it the runner prints its results
// and writes no file (so a run from the repository root never overwrites a
// committed BENCH_*.json). A report or trace that cannot be written fails
// the run (exit 1), as does a broken invariant in any scenario or sweep;
// bad flags exit 2. --scale, --trace-out and a comma list in --threads
// belong to the parallel sweep only. --tier-profile selects the
// topo::TierProfile every fabric is built with: "slim" (default) shares
// templates and materializes state on first touch, "full" forces the
// legacy eager build.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench_report.hpp"
#include "coflow/tracker.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "tm/traffic_manager.hpp"
#include "topo/network.hpp"
#include "workload/churn.hpp"
#include "workload/rack_coflow.hpp"

namespace {

using namespace adcp;
using Clock = std::chrono::steady_clock;

struct Options {
  bool quick = false;
  std::string scenario;  // empty = every timed scenario
  std::vector<unsigned> threads{std::max(1u, std::thread::hardware_concurrency())};
  unsigned repeat = 3;
  std::vector<std::string> scales;  // the parallel sweep's fabrics
  std::string out;        // empty (no --out): print the results, write no file
  std::string trace_out;  // empty = no trace capture
};

/// The tier profile every fabric builds with. Scenario functions share a
/// fixed signature, so the --tier-profile flag lands here once at startup
/// (before any worker thread runs) instead of threading through every
/// ScenarioFn.
topo::TierProfile g_profile{};

double now_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// --- fabric cells ------------------------------------------------------------

/// The fabrics every scenario and sweep builds. Both parameter structs
/// share their field names, so `edit` tunes either one.
using Fabric = std::variant<topo::LeafSpineParams, topo::FatTreeParams>;

Fabric leaf_spine(std::uint32_t leaves, std::uint32_t spines, std::uint32_t hosts_per_leaf) {
  topo::LeafSpineParams p;
  p.leaves = leaves;
  p.spines = spines;
  p.hosts_per_leaf = hosts_per_leaf;
  p.profile = g_profile;
  return p;
}

Fabric fat_tree(std::uint32_t k) {
  topo::FatTreeParams p;
  p.k = k;
  p.profile = g_profile;
  return p;
}

template <typename Fn>
Fabric edit(Fabric f, Fn fn) {
  std::visit(fn, f);
  return f;
}

/// The parallel sweep's --scale fabrics; nullopt for an unknown name.
std::optional<Fabric> scale_fabric(const std::string& name) {
  if (name == "leaf_spine") return leaf_spine(4, 2, 16);
  // Thousands of hosts: 32 racks x 64 hosts = 2048 hosts behind 16
  // spines, 80 shards once hosts split off.
  if (name == "leaf_spine_2k") return leaf_spine(32, 16, 64);
  if (name == "fat_tree_4") return fat_tree(4);
  if (name == "fat_tree_8") return fat_tree(8);
  return std::nullopt;
}

/// One fabric on one engine, the unit every scenario and sweep runs:
/// `threads == 0` builds it on a monolithic sim::Simulator, otherwise
/// sharded on a sim::ParallelSimulator(threads).
class Cell {
 public:
  Cell(const Fabric& fabric, unsigned threads) {
    if (threads > 0) {
      par_ = std::make_unique<sim::ParallelSimulator>(threads);
    } else {
      mono_ = std::make_unique<sim::Simulator>();
    }
    std::visit(
        [this](const auto& p) {
          net_ = par_ ? std::make_unique<topo::Network>(*par_, p)
                      : std::make_unique<topo::Network>(*mono_, p);
        },
        fabric);
  }

  topo::Network& net() { return *net_; }
  sim::ParallelSimulator* par() { return par_.get(); }
  sim::Time now() const { return par_ ? par_->now() : mono_->now(); }
  std::uint64_t run() { return par_ ? par_->run() : mono_->run(); }

  std::vector<workload::RackHost> hosts() {
    std::vector<workload::RackHost> hosts;
    hosts.reserve(net_->host_count());
    for (std::size_t i = 0; i < net_->host_count(); ++i) {
      hosts.push_back({&net_->host(i), net_->ip_of(i)});
    }
    return hosts;
  }

  /// Every packet a host sent was received or dropped on a link.
  bool conserved() const {
    return net_->total_host_tx_packets() == net_->total_host_rx_packets() +
                                                net_->total_host_link_drops() +
                                                net_->total_trunk_drops();
  }

 private:
  std::unique_ptr<sim::Simulator> mono_;
  std::unique_ptr<sim::ParallelSimulator> par_;
  std::unique_ptr<topo::Network> net_;  // last: destroyed before its engine
};

/// One cross-rack incast round: every host but a rotating sink sends `pps`
/// packets to it under per-round flow ids, starting now (registered with
/// `tracker` when given). Runs to quiescence and readies the hosts for
/// the next round; returns the events executed.
std::uint64_t incast_round(Cell& c, std::uint32_t round, std::uint32_t pps,
                           coflow::CoflowTracker* tracker = nullptr) {
  std::vector<workload::RackHost> hosts = c.hosts();
  workload::RackIncastParams inc;
  inc.sink = round % static_cast<std::uint32_t>(hosts.size());
  inc.senders = static_cast<std::uint32_t>(hosts.size() - 1);
  inc.packets_per_sender = pps;
  inc.flow_base = 70'000 + round * 1000;
  if (tracker != nullptr) {
    tracker->start(workload::rack_incast_descriptor(inc, hosts.size()), c.now());
  }
  workload::start_rack_incast(hosts, inc, c.now());
  const std::uint64_t events = c.run();
  c.net().reset_hosts();
  return events;
}

struct AllReduceRun {
  sim::Time start = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  bool complete = false;
};

/// A parameter-server allreduce (reduce to `ar.ps`, then broadcast back)
/// started now and run to quiescence; wall_ms times the run alone.
AllReduceRun run_allreduce(Cell& c, const workload::RackAllReduceParams& ar,
                           coflow::CoflowTracker* tracker = nullptr) {
  std::vector<workload::RackHost> hosts = c.hosts();
  workload::RackAllReduce job(ar);
  job.attach(hosts, c.net().sim_of_host(ar.ps), tracker);
  AllReduceRun r;
  r.start = c.now();
  job.start(r.start);
  const auto t0 = Clock::now();
  r.events = c.run();
  r.wall_ms = now_ns(t0) / 1e6;
  r.complete = job.complete();
  return r;
}

/// The control-churn co-simulation: a mat::VersionedStore and the churn
/// query program on every edge switch (ctrl::ControlPlane), a
/// ctrl::ControlAgent on the last host shipping install/evict batches as
/// in-band kCtrlUpdate packets, shifting-Zipf query clients on the other
/// hosts, and optionally a background rack incast (from 50 us) so control
/// and data contend for the same trunks.
struct ChurnSpec {
  ctrl::ControlPlaneConfig plane{};
  ctrl::ControlAgentConfig agent{};
  workload::ChurnParams queries{};
  std::optional<workload::RackIncastParams> background;
};

/// The timed scenarios' churn: 25 us polls over 512 keys whose popularity
/// shifts by 64 every 200 us.
ChurnSpec churn_spec(std::uint32_t queries_per_client, std::uint64_t seed) {
  ChurnSpec s;
  s.agent.period = 25 * sim::kMicrosecond;
  s.queries.key_space = 512;
  s.queries.queries_per_client = queries_per_client;
  s.queries.shift_period = 200 * sim::kMicrosecond;
  s.queries.shift_step = 64;
  s.queries.seed = seed;
  return s;
}

struct ChurnRun {
  double ns = 0;  ///< wall time of the run alone
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t staleness_misses = 0;
  std::uint64_t installs = 0;
  std::uint64_t agent_polls = 0;
  std::uint64_t agent_packets = 0;
  double hit_rate = 0;
  double hit_latency_ns = 0;
  double miss_latency_ns = 0;
  double bg_cct_us = 0;

  /// Every query was answered (the fabric is lossless) and the warmed-up
  /// stores produced hits: a broken control channel, handoff or churn
  /// program fails this.
  bool ok() const { return outstanding == 0 && hits > 0; }
};

ChurnRun run_churn(Cell& c, ChurnSpec spec) {
  topo::Network& net = c.net();
  const std::size_t backing = net.host_count() - 1;
  ctrl::ControlPlane cp(spec.plane, net);
  cp.attach_all();
  ctrl::ControlAgent agent(spec.agent, net, backing);
  agent.add_all_targets();
  agent.start();
  spec.queries.backing_host = backing;
  workload::ChurnQuery churn(spec.queries, net);
  churn.start(0);

  coflow::CoflowTracker tracker;
  if (spec.background) {
    std::vector<workload::RackHost> hosts = c.hosts();
    net.set_tracker(&tracker);
    const sim::Time bg_start = 50 * sim::kMicrosecond;
    tracker.start(workload::rack_incast_descriptor(*spec.background, hosts.size()), bg_start);
    workload::start_rack_incast(hosts, *spec.background, bg_start);
  }

  // The agent polls via every(), which never quiesces on its own: stop it
  // after the last query could have been issued, then drain.
  const sim::Time t_stop =
      spec.queries.interval * spec.queries.queries_per_client + 100 * sim::kMicrosecond;
  net.sim_of_host(backing).at(t_stop, [&agent] { agent.stop(); });

  ChurnRun r;
  const auto t0 = Clock::now();
  r.events = c.run();
  r.ns = now_ns(t0);
  r.sent = churn.sent();
  r.hits = churn.hits();
  r.misses = churn.misses();
  r.outstanding = churn.outstanding();
  r.staleness_misses = cp.total_staleness_misses();
  r.installs = cp.total_installs();
  r.agent_polls = agent.polls();
  r.agent_packets = agent.update_packets();
  r.hit_rate = churn.hit_rate();
  r.hit_latency_ns = churn.hit_latency_ns().mean();
  r.miss_latency_ns = churn.miss_latency_ns().mean();
  if (spec.background) {
    r.bg_cct_us = static_cast<double>(
                      tracker.record(spec.background->coflow_id)->completion_time()) /
                  1e6;
    net.set_tracker(nullptr);
  }
  return r;
}

// --- timed scenarios -----------------------------------------------------------

/// One timed run: `ops` operations took `ns` nanoseconds. `ok == false`
/// flags a scenario-detected failure (lost packets, nondeterminism) that
/// must surface in the runner's exit code.
struct Sample {
  double ns = 0;
  std::uint64_t ops = 0;
  bool ok = true;
};

/// Pure event-kernel churn: schedule/fire batches of events, some periodic,
/// some cancelled — the op count is events *fired*.
Sample run_event_kernel(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const int rounds = quick ? 20 : 200;
  const int batch = 1000;
  sim::Simulator sim;
  sim::Rng rng(seed);
  std::uint64_t fired = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<sim::EventHandle> cancelable;
    cancelable.reserve(batch / 4);
    for (int i = 0; i < batch; ++i) {
      const auto at = sim.now() + 1 + rng.uniform(0, 5000);
      if (i % 4 == 0) {
        cancelable.push_back(sim.at(at, [&fired] { ++fired; }));
      } else {
        sim.at(at, [&fired] { ++fired; });
      }
    }
    for (std::size_t i = 0; i < cancelable.size(); i += 2) cancelable[i].cancel();
    sim.run();
  }
  return {now_ns(t0), fired};
}

packet::IncPacketSpec spec_to_host(std::uint32_t dst_host, std::uint32_t flow,
                                   std::uint32_t seq) {
  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000000 | dst_host;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = flow;
  spec.inc.seq = seq;
  spec.inc.elements.push_back({seq, seq * 2});
  return spec;
}

/// All-to-all forwarding on an 8-port RMT switch; ops = events executed.
Sample run_rmt_all_to_all(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint32_t packets_per_pair = quick ? 5 : 40;
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 8;
  cfg.pipeline_count = 2;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  for (std::uint32_t i = 0; i < packets_per_pair; ++i) {
    for (std::uint32_t s = 0; s < 8; ++s)
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        fabric.host(s).send_inc(spec_to_host(d, s * 100 + d + seed, i));
      }
    executed += sim.run();
  }
  return {now_ns(t0), executed};
}

/// Same scenario on the ADCP switch.
Sample run_adcp_all_to_all(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint32_t packets_per_pair = quick ? 5 : 40;
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  cfg.demux_factor = 2;
  cfg.central_pipeline_count = 2;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  for (std::uint32_t i = 0; i < packets_per_pair; ++i) {
    for (std::uint32_t s = 0; s < 8; ++s)
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        fabric.host(s).send_inc(spec_to_host(d, s * 100 + d + seed, i));
      }
    executed += sim.run();
  }
  return {now_ns(t0), executed};
}

/// Parser + deparser reuse loop over the standard graph; ops = packets.
Sample run_parser_loop(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint64_t iters = quick ? 20'000 : 500'000;
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kAggUpdate;
  for (std::uint32_t i = 0; i < 16; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(seed + i), 1});
  }
  const packet::Packet pkt = packet::make_inc_packet(spec);
  packet::ParseResult pr;
  packet::Packet out;
  const auto t0 = Clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    parser.parse_into(pkt, pr);
    dep.deparse_into(pr.phv, pkt, pr.consumed, out);
    sink += out.size();
  }
  if (sink == 0) std::abort();  // defeat over-optimization
  return {now_ns(t0), iters};
}

/// Pool-fed TM enqueue/dequeue churn across 16 outputs; ops = packets.
Sample run_tm_loop(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint64_t iters = quick ? 50'000 : 1'000'000;
  tm::TmConfig cfg;
  cfg.outputs = 16;
  cfg.buffer_bytes = 1ull << 30;
  tm::TrafficManager tm(cfg);
  packet::Pool pool;
  tm.set_pool(&pool);
  packet::IncPacketSpec spec;
  for (std::uint32_t i = 0; i < 4; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(seed + i), 1});
  }
  const auto t0 = Clock::now();
  std::uint32_t out = 0;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    packet::Packet pkt = pool.acquire();
    packet::make_inc_packet_into(spec, pkt);
    tm.enqueue(out & 15, 0, std::move(pkt));
    if (auto got = tm.dequeue(out & 15)) {
      sink += got->size();
      pool.release(std::move(*got));
    }
    ++out;
  }
  if (sink == 0) std::abort();
  return {now_ns(t0), iters};
}

/// Cross-rack incast rounds on a 2-leaf/2-spine ADCP fabric; ops = events.
Sample run_leaf_spine(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  Cell c(edit(leaf_spine(2, 2, 8), [&](auto& p) { p.ecmp_seed = seed; }), 0);
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  for (std::uint32_t r = 0; r < (quick ? 2u : 10u); ++r) {
    executed += incast_round(c, r, quick ? 4 : 16);
  }
  return {now_ns(t0), executed};
}

/// The control-churn co-simulation on a 2x2 ADCP leaf-spine (hosts +
/// spines + mgmt = 8 ports, 4 RMT pipelines); fails unless every query was
/// answered with a working hit path. ops = events.
Sample run_control_churn(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  Cell c(edit(leaf_spine(2, 2, 5),
              [&](auto& p) {
                p.ecmp_seed = seed;
                p.control_channel = true;
              }),
         0);
  const ChurnRun r = run_churn(c, churn_spec(quick ? 150 : 500, seed));
  if (!r.ok()) {
    std::fprintf(stderr, "control_churn: outstanding=%llu hits=%llu (want 0 / >0)\n",
                 static_cast<unsigned long long>(r.outstanding),
                 static_cast<unsigned long long>(r.hits));
  }
  return {r.ns, r.events, r.ok()};
}

/// The sharded engine on a 2-leaf/2-spine fabric: one cross-rack incast
/// per round on a fresh ParallelSimulator(threads). Checks packet
/// conservation and completion, so a silently broken barrier or mailbox
/// fails the runner instead of just skewing the numbers. ops = events.
Sample run_parallel_fabric(std::uint64_t seed, bool quick, unsigned threads) {
  const Fabric fabric = edit(leaf_spine(2, 2, 8), [&](auto& p) { p.ecmp_seed = seed; });
  const std::uint32_t pps = quick ? 4 : 16;
  Sample out;
  const auto t0 = Clock::now();
  for (std::uint32_t r = 0; r < (quick ? 2u : 10u); ++r) {
    Cell c(fabric, threads);
    out.ops += incast_round(c, r, pps);
    const std::uint64_t expected = (c.net().host_count() - 1) * pps;
    out.ok = out.ok && c.net().total_host_rx_packets() == expected && c.conserved();
  }
  out.ns = now_ns(t0);
  return out;
}

using ScenarioFn = Sample (*)(std::uint64_t seed, bool quick, unsigned threads);

struct Scenario {
  const char* name;
  ScenarioFn fn;
  const char* unit;  ///< what one "op" is
};

constexpr Scenario kScenarios[] = {
    {"event_kernel", run_event_kernel, "event"},
    {"rmt_all_to_all", run_rmt_all_to_all, "event"},
    {"adcp_all_to_all", run_adcp_all_to_all, "event"},
    {"parser_loop", run_parser_loop, "packet"},
    {"tm_loop", run_tm_loop, "packet"},
    {"leaf_spine", run_leaf_spine, "event"},
    {"control_churn", run_control_churn, "event"},
    {"parallel_fabric", run_parallel_fabric, "event"},
};

// --- modes -------------------------------------------------------------------

/// A mode's verdict, plus any engine self-profile to fold into its report.
struct Outcome {
  bool ok = true;
  sim::Snapshot extra{};
};

/// The timed scenarios (or the one --scenario names) x --repeat seeds,
/// fanned across --threads workers.
Outcome run_scenarios(const Options& opt, sim::MetricRegistry& report) {
  struct Job {
    const Scenario* sc;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  for (const Scenario& sc : kScenarios) {
    if (!opt.scenario.empty() && opt.scenario != sc.name) continue;
    for (unsigned r = 0; r < opt.repeat; ++r) jobs.push_back({&sc, 0x5eed0000ull + r});
  }

  std::mutex mu;
  std::size_t next_job = 0;
  std::vector<std::vector<Sample>> samples(std::size(kScenarios));
  auto worker = [&] {
    for (;;) {
      std::size_t j;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (next_job >= jobs.size()) return;
        j = next_job++;
      }
      const Sample s = jobs[j].sc->fn(jobs[j].seed, opt.quick, opt.threads.front());
      std::lock_guard<std::mutex> lk(mu);
      samples[static_cast<std::size_t>(jobs[j].sc - kScenarios)].push_back(s);
    }
  };
  const unsigned nthreads = std::min<std::size_t>(opt.threads.front(), jobs.size());
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  report.gauge("config.quick").set(opt.quick ? 1.0 : 0.0);
  report.gauge("config.threads").set(static_cast<double>(nthreads));
  report.gauge("config.repeat").set(static_cast<double>(opt.repeat));
  report.gauge("config.tier_profile_full").set(g_profile.eager_state ? 1.0 : 0.0);
  // Aggregate: total ops / total ns per scenario.
  Outcome o;
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    if (samples[i].empty()) continue;
    const Scenario& sc = kScenarios[i];
    double ns = 0;
    std::uint64_t ops = 0;
    bool ok = true;
    for (const Sample& s : samples[i]) {
      ns += s.ns;
      ops += s.ops;
      ok = ok && s.ok;
    }
    const double ns_per_op = ns / static_cast<double>(ops);
    std::printf("%-16s %10.1f ns/%s %14.0f %ss/sec (%zu runs, %llu ops)\n", sc.name,
                ns_per_op, sc.unit, 1e9 / ns_per_op, sc.unit, samples[i].size(),
                static_cast<unsigned long long>(ops));
    sim::Scope s = report.scope(sc.name);
    s.gauge("ns_per_op").set(ns_per_op);
    s.gauge("ops_per_sec").set(1e9 / ns_per_op);
    s.gauge("runs").set(static_cast<double>(samples[i].size()));
    s.gauge("total_ops").set(static_cast<double>(ops));
    if (!ok) std::fprintf(stderr, "scenario '%s' reported a failed run\n", sc.name);
    o.ok = o.ok && ok;
  }
  return o;
}

/// `--scenario rack_coflows` (E18): a 4-leaf/2-spine/64-host fabric built
/// from each switch model runs the two cross-rack workloads the paper
/// motivates: a full-fabric incast (63 senders into host 0), then a PS
/// allreduce with 16 workers spread 4 per rack and the PS in rack 0.
/// Reports CCTs, hop percentiles, trunk utilization, ECMP imbalance and
/// the reorder count (0 on this lossless fabric: ECMP is per flow) per
/// tier; fails unless every sent packet was received or dropped.
Outcome run_rack_coflows(const Options& opt, sim::MetricRegistry& report) {
  std::printf("leaf–spine fabric (4 leaves x 16 hosts, 2 spines): cross-rack coflows\n\n");
  std::printf("%-6s %-14s %-12s %-12s %-14s %-10s %-10s %-10s %-10s\n", "tier",
              "incast CCT us", "reduce us", "bcast us", "allreduce us", "hops p50",
              "ecmp imb", "max util", "reordered");
  const struct {
    const char* name;
    topo::SwitchKind kind;
  } tiers[] = {{"rmt", topo::SwitchKind::kRmt}, {"adcp", topo::SwitchKind::kAdcp}};
  const auto cct_us = [](const coflow::CoflowTracker& t, std::uint16_t id) {
    return static_cast<double>(t.record(id)->completion_time()) / 1e6;
  };
  bool conserved = true;
  for (const auto& tier : tiers) {
    Cell c(edit(leaf_spine(4, 2, 16), [&](auto& p) { p.kind = tier.kind; }), 0);
    topo::Network& net = c.net();
    coflow::CoflowTracker tracker;
    net.set_tracker(&tracker);
    std::uint64_t events = incast_round(c, 0, opt.quick ? 8 : 64, &tracker);
    workload::RackAllReduceParams ar;
    ar.ps = 0;
    for (std::uint32_t w = 0; w < 16; ++w) ar.workers.push_back((w % 4) * 16 + 1 + w / 4);
    ar.vector_len = opt.quick ? 64 : 512;
    const AllReduceRun a = run_allreduce(c, ar, &tracker);
    events += a.events;
    if (!a.complete) std::fprintf(stderr, "allreduce did not complete!\n");
    const double incast_us = cct_us(tracker, workload::RackIncastParams{}.coflow_id);
    const double reduce_us = cct_us(tracker, ar.reduce_coflow);
    const double bcast_us = cct_us(tracker, ar.bcast_coflow);
    const double total_us =
        static_cast<double>(tracker.record(ar.bcast_coflow)->finish.value() - a.start) / 1e6;
    net.set_tracker(nullptr);

    net.finalize_metrics();
    std::uint64_t reordered = 0;
    for (std::size_t i = 0; i < net.host_count(); ++i) reordered += net.host(i).rx_reordered();
    const double hops_p50 = net.hops().quantile(0.5);
    const double imbalance = net.scope().gauge("ecmp.imbalance").value();
    const double max_util = net.scope().gauge("trunk.max_utilization").value();
    std::printf("%-6s %-14.2f %-12.2f %-12.2f %-14.2f %-10.1f %-10.3f %-10.3f %-10llu\n",
                tier.name, incast_us, reduce_us, bcast_us, total_us, hops_p50, imbalance,
                max_util, static_cast<unsigned long long>(reordered));
    conserved = conserved && c.conserved();
    sim::Scope s = report.scope(tier.name);
    s.gauge("incast.cct_us").set(incast_us);
    s.gauge("allreduce.reduce_cct_us").set(reduce_us);
    s.gauge("allreduce.bcast_cct_us").set(bcast_us);
    s.gauge("allreduce.total_us").set(total_us);
    s.gauge("hops.p50").set(hops_p50);
    s.gauge("hops.max").set(net.hops().quantile(1.0));
    s.gauge("ecmp.imbalance").set(imbalance);
    s.gauge("trunk.max_utilization").set(max_util);
    s.gauge("rx.reordered").set(static_cast<double>(reordered));
    s.gauge("host.tx_packets").set(static_cast<double>(net.total_host_tx_packets()));
    s.gauge("host.rx_packets").set(static_cast<double>(net.total_host_rx_packets()));
    s.gauge("events").set(static_cast<double>(events));
  }
  std::printf(
      "\nExpected shape: cross-rack packets take 3 switch hops (p50 with the\n"
      "incast sink in rack 0 stays 3), reordered == 0 (per-flow ECMP), and\n"
      "tx == rx (lossless conservation%s). ADCP pays its central-pipe traversal\n"
      "on every hop; RMT routes in the ingress pipes.\n",
      conserved ? ": holds" : ": VIOLATED");
  return {conserved};
}

struct ScaleRun {
  std::uint64_t events = 0;
  sim::Time now = 0;
  std::uint64_t hash = 0;
  double wall_ms = 0;
  bool complete = false;
  std::string trace;       ///< Perfetto JSON (sharded runs, when tracing)
  std::string pdes_trace;  ///< PDES busy/barrier profile (sharded, tracing)
  sim::Snapshot pdes;      ///< engine self-profile metrics (sharded runs)
};

/// One arm of the parallel sweep: host 0 is the PS of an allreduce over
/// every other host of `fabric`, run monolithic when `threads == 0`.
/// `weights` (when non-null) overrides the topology's static shard-weight
/// estimate with a measured cost model (a previous run's shard_busy_ns);
/// `busy_out` (when non-null) receives this run's measured busy times.
ScaleRun run_scale(Fabric fabric, unsigned threads, bool quick, bool trace,
                   const std::vector<double>* weights = nullptr,
                   std::vector<double>* busy_out = nullptr) {
  if (trace) fabric = edit(fabric, [](auto& p) { p.trace.sample_every = 1; });
  Cell c(fabric, threads);
  sim::ParallelSimulator* psim = c.par();
  if (psim != nullptr && trace) psim->enable_profile_spans();
  if (psim != nullptr && weights != nullptr && weights->size() == psim->shard_count()) {
    psim->set_shard_weights(*weights);
  }
  workload::RackAllReduceParams ar;
  ar.ps = 0;
  for (std::uint32_t w = 1; w < c.net().host_count(); ++w) ar.workers.push_back(w);
  ar.vector_len = quick ? 64 : 512;
  const AllReduceRun a = run_allreduce(c, ar);

  ScaleRun r;
  r.events = a.events;
  r.wall_ms = a.wall_ms;
  r.complete = a.complete;
  r.now = c.now();
  c.net().finalize_metrics();
  r.hash = bench::fnv1a(c.net().merged_snapshot().to_json("scale"));
  if (psim != nullptr) {
    r.pdes = psim->metrics().snapshot();
    if (busy_out != nullptr) *busy_out = psim->shard_busy_ns();
    if (trace) {
      r.trace = sim::spans_to_perfetto(c.net().span_buffers());
      // Wall-clock ns, not simulated ps: 1e-3 puts the track in microseconds.
      r.pdes_trace = sim::spans_to_perfetto(psim->profile_span_buffers(), 1e-3);
    }
  }
  return r;
}

/// MemAvailable from /proc/meminfo (0 when unknown) — gates the eager arm.
double mem_available_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return 0.0;
  char key[64];
  long long kb = 0;
  char unit[16];
  double avail = 0.0;
  while (std::fscanf(f, "%63s %lld %15s", key, &kb, unit) == 3) {
    if (std::strcmp(key, "MemAvailable:") == 0) {
      avail = static_cast<double>(kb) * 1024.0;
      break;
    }
  }
  std::fclose(f);
  return avail;
#else
  return 0.0;
#endif
}

/// Builds the fabric under both tier profiles (no traffic) and records the
/// construction cost series: <scope>.{slim,full}.{build_ms, rss_bytes,
/// bytes_reserved, bytes_touched, templates_built, templates_shared,
/// skipped} plus the headline <scope>.speedup and <scope>.rss_ratio
/// (full / slim). The slim arm runs first — it leaves almost nothing
/// resident, keeping the full arm's RSS delta honest — and its
/// bytes_reserved (identical to what full will touch) RAM-gates the full
/// arm: an eager ADCP fat_tree(8) wants ~19 GB. `quick` skips the full arm
/// (skipped = 1): even the smoke leaf_spine touches 2.3 GB eagerly.
void probe_construction(sim::Scope scope, const Fabric& fabric, bool quick) {
  struct Arm {
    const char* name;
    topo::TierProfile profile;
  };
  const Arm arms[] = {{"slim", topo::TierProfile::slim()},
                      {"full", topo::TierProfile::full()}};
  double slim_ms = 0.0;
  double slim_rss = 0.0;
  double reserved_estimate = 0.0;
  for (const Arm& arm : arms) {
    sim::Scope as = scope.scope(arm.name);
    if (arm.profile.eager_state && quick) {
      std::printf("  construction.full: skipped (--quick)\n");
      as.gauge("skipped").set(1.0);
      continue;
    }
    if (arm.profile.eager_state && reserved_estimate > 0.0) {
      const double avail = mem_available_bytes();
      if (avail > 0.0 && reserved_estimate * 1.25 + 1e9 > avail) {
        std::printf("  construction.full: skipped (wants ~%.1f GB, %.1f GB available)\n",
                    reserved_estimate / 1e9, avail / 1e9);
        as.gauge("skipped").set(1.0);
        continue;
      }
    }
    const double rss0 = bench::rss_bytes_now();
    Cell c(edit(fabric, [&](auto& p) { p.profile = arm.profile; }), 0);
    const double rss = std::max(0.0, bench::rss_bytes_now() - rss0);
    const auto& cs = c.net().construction();
    c.net().export_construction(as);
    as.gauge("rss_bytes").set(rss);
    as.gauge("skipped").set(0.0);
    std::printf("  construction.%s: %8.2f ms  rss %8.1f MB  touched %8.1f MB"
                "  (reserved %.1f MB, %llu templates, %llu shared)\n",
                arm.name, cs.build_ms, rss / 1e6,
                static_cast<double>(cs.bytes_touched) / 1e6,
                static_cast<double>(cs.bytes_reserved) / 1e6,
                static_cast<unsigned long long>(cs.templates_built),
                static_cast<unsigned long long>(cs.templates_shared));
    if (!arm.profile.eager_state) {
      slim_ms = cs.build_ms;
      slim_rss = rss;
      reserved_estimate = static_cast<double>(cs.bytes_reserved);
    } else if (slim_ms > 0.0) {
      scope.gauge("speedup").set(cs.build_ms / slim_ms);
      if (slim_rss > 0.0) scope.gauge("rss_ratio").set(rss / slim_rss);
      std::printf("  construction: slim is %.1fx faster, %.1fx smaller RSS\n",
                  cs.build_ms / slim_ms, slim_rss > 0.0 ? rss / slim_rss : 0.0);
    }
  }
}

/// Mono-vs-sharded executed-event skew beyond this is a real divergence
/// (lost or duplicated packets move it by hundreds), not wake coalescing.
constexpr std::uint64_t kMaxEventSkew = 16;

/// `--scale S1,S2,...` (E19-E22): per fabric, the construction probe, then
/// the PS allreduce monolithic, sharded at 1 worker (the par-vs-par
/// reference, whose per-shard busy_ns feed the LPT packer for the wider
/// runs) and at every further --threads count. Each run is checked against
/// the determinism contract — final time + snapshot hash vs monolithic,
/// exact event count vs 1 worker, event skew vs monolithic <= 16, and with
/// --trace-out byte-equal span traces vs 1 worker — and reported as
/// <scale>.t<N>.{wall_ms,speedup,events,determinism.match}, next to the
/// headline <scale>.{speedup,determinism.match} row (widest count).
/// --trace-out PATH samples every flow and writes the widest sharded run's
/// trace there (PATH.<scale> for several scales) and its PDES busy/wait
/// self-profile to <that>.pdes.json. Tracing determinism compares the
/// sharded engine against itself at 1 worker, not against the monolithic
/// run: sequential-vs-sharded same-tick ties may legally interleave
/// differently (see ParallelSimulator::run()), which per-packet spans
/// expose even though every aggregate metric agrees.
Outcome run_parallel_scaling(const Options& opt, sim::MetricRegistry& report) {
  const bool trace = !opt.trace_out.empty();
  report.gauge("config.quick").set(opt.quick ? 1.0 : 0.0);
  report.gauge("config.threads").set(static_cast<double>(opt.threads.back()));
  report.gauge("config.tier_profile_full").set(g_profile.eager_state ? 1.0 : 0.0);

  Outcome o;
  for (const std::string& scale : opt.scales) {
    const Fabric fabric = *scale_fabric(scale);
    std::printf("construction sweep: %s (%s profile for the runs below)\n", scale.c_str(),
                g_profile.name());
    probe_construction(report.scope(scale).scope("construction"), fabric, opt.quick);
    const ScaleRun mono = run_scale(fabric, 0, opt.quick, trace);
    std::vector<double> busy;
    const ScaleRun par1 = run_scale(fabric, 1, opt.quick, trace, nullptr, &busy);

    // The executed-event skew is a deterministic constant of the scenario
    // (same-tick wake coalescing under the sharded tie order — see
    // test_parallel_sim); gate it instead of silently diverging.
    const std::uint64_t skew =
        par1.events > mono.events ? par1.events - mono.events : mono.events - par1.events;
    const bool skew_ok = skew <= kMaxEventSkew;
    std::printf("parallel scaling: %s allreduce (%llu mono events, skew %llu)\n",
                scale.c_str(), static_cast<unsigned long long>(mono.events),
                static_cast<unsigned long long>(skew));
    std::printf("  monolithic: %8.2f ms\n", mono.wall_ms);

    sim::Scope s = report.scope(scale);
    s.gauge("monolithic.wall_ms").set(mono.wall_ms);
    s.gauge("monolithic.events").set(static_cast<double>(mono.events));
    s.gauge("events.skew").set(static_cast<double>(skew));

    bool scale_ok = skew_ok && mono.complete && par1.complete;
    ScaleRun widest;
    for (const unsigned n : opt.threads) {
      const ScaleRun par =
          n == 1 ? par1 : run_scale(fabric, n, opt.quick, trace, &busy, nullptr);
      const bool trace_match = !trace || par.trace == par1.trace;
      const bool deterministic = mono.now == par.now && mono.hash == par.hash &&
                                 par.events == par1.events && trace_match;
      const double speedup = par.wall_ms > 0 ? mono.wall_ms / par.wall_ms : 0.0;
      std::printf("  t%-2u:        %8.2f ms  speedup %5.2fx  %s\n", n, par.wall_ms, speedup,
                  deterministic ? "match" : "DIVERGE");
      sim::Scope ts = s.scope(std::string("t").append(std::to_string(n)));
      ts.gauge("wall_ms").set(par.wall_ms);
      ts.gauge("speedup").set(speedup);
      ts.gauge("events").set(static_cast<double>(par.events));
      ts.gauge("determinism.match").set(deterministic ? 1.0 : 0.0);
      if (trace) ts.gauge("determinism.trace_match").set(trace_match ? 1.0 : 0.0);
      scale_ok = scale_ok && deterministic && par.complete;
      if (n == opt.threads.back()) {
        // The headline row (what the CI speedup floor reads), kept at the
        // widest configuration.
        s.gauge("parallel.wall_ms").set(par.wall_ms);
        s.gauge("parallel.events").set(static_cast<double>(par.events));
        s.gauge("speedup").set(speedup);
        s.gauge("determinism.match").set(scale_ok ? 1.0 : 0.0);
        widest = par;
      }
    }
    if (!skew_ok) {
      std::fprintf(stderr, "%s: event skew %llu exceeds %llu\n", scale.c_str(),
                   static_cast<unsigned long long>(skew),
                   static_cast<unsigned long long>(kMaxEventSkew));
    }
    if (!mono.complete || !widest.complete) {
      std::fprintf(stderr, "%s: allreduce did not complete!\n", scale.c_str());
    }
    if (trace) {
      const std::string path =
          opt.scales.size() == 1 ? opt.trace_out : opt.trace_out + "." + scale;
      for (const auto& [file, text] : {std::pair{path, &widest.trace},
                                       std::pair{path + ".pdes.json", &widest.pdes_trace}}) {
        if (sim::write_text_file(file, *text)) {
          std::printf("wrote %s\n", file.c_str());
        } else {
          std::fprintf(stderr, "cannot write %s\n", file.c_str());
          scale_ok = false;
        }
      }
    }
    // The engine's self-profile (pdes.shard<i>.busy_ns/idle_ns/
    // horizon_wait_ns, pdes.mailbox.occupancy) joins the report only for a
    // single scale, where the shard indices are unambiguous. Its
    // wall-clock values are nondeterministic, like wall_ms.
    if (opt.scales.size() == 1) o.extra = widest.pdes;
    o.ok = o.ok && scale_ok;
  }
  return o;
}

/// `--scenario control_grid` (E23): the control-churn co-simulation on a
/// 2-leaf/2-spine fabric, crossed over switch architecture x agent poll
/// period (the update rate) x popularity shift period (0 = static
/// baseline), with a background rack incast into host 0. The contrast the
/// paper predicts: the ADCP store is one global area (full capacity), the
/// RMT store replicates into every ingress pipeline (capacity divided by
/// pipeline_count), so under the same update budget RMT holds fewer hot
/// keys and its hit rate drops — hardest right after a shift, when the
/// staleness window (queries lost between stage and commit) also peaks.
/// One <arch>.p<poll_us>.s<shift_us>.* series per cell; fails unless every
/// cell answered every query with a working hit path.
Outcome run_control_grid(const Options& opt, sim::MetricRegistry& report) {
  const topo::SwitchKind kinds[] = {topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp};
  const sim::Time periods[] = {25 * sim::kMicrosecond, 100 * sim::kMicrosecond};
  const sim::Time shifts[] = {0, 200 * sim::kMicrosecond};
  std::printf("%-6s %8s %8s | %8s %6s %6s %9s %8s | %9s %9s %9s\n", "arch", "poll_us",
              "shift_us", "hit_rate", "hits", "misses", "stale_mis", "installs", "hit_ns",
              "miss_ns", "bg_cct_us");
  bool ok = true;
  for (const topo::SwitchKind kind : kinds) {
    const char* arch = kind == topo::SwitchKind::kRmt ? "rmt" : "adcp";
    for (const sim::Time period : periods) {
      for (const sim::Time shift : shifts) {
        // Port count must stay a multiple of 4 (hosts + spines + mgmt) so
        // the RMT tier keeps its 4 ingress pipelines — the capacity split
        // under test.
        Cell c(edit(leaf_spine(2, 2, opt.quick ? 5 : 9),
                    [&](auto& p) {
                      p.kind = kind;
                      p.control_channel = true;
                    }),
               0);
        ChurnSpec spec;
        spec.plane.store_capacity = 64;  // ADCP: 64 entries; RMT: 64/4 per pipeline
        spec.agent.period = period;
        spec.agent.hot_set = 48;
        spec.agent.update_budget = 96;  // a full hot-set rotation fits in one poll
        spec.queries.key_space = 512;
        spec.queries.zipf_skew = 1.0;
        spec.queries.queries_per_client = opt.quick ? 200 : 600;
        spec.queries.shift_period = shift;
        spec.queries.shift_step = 64;  // > hot_set: each shift displaces the whole hot set
        workload::RackIncastParams bg;
        bg.sink = 0;
        bg.senders = 4;
        bg.packets_per_sender = opt.quick ? 8 : 32;
        spec.background = bg;
        const ChurnRun r = run_churn(c, spec);
        ok = ok && r.ok();

        const auto period_us = static_cast<unsigned long long>(period / sim::kMicrosecond);
        const auto shift_us = static_cast<unsigned long long>(shift / sim::kMicrosecond);
        std::printf("%-6s %8llu %8llu | %8.3f %6llu %6llu %9llu %8llu | %9.0f %9.0f %9.2f\n",
                    arch, period_us, shift_us, r.hit_rate,
                    static_cast<unsigned long long>(r.hits),
                    static_cast<unsigned long long>(r.misses),
                    static_cast<unsigned long long>(r.staleness_misses),
                    static_cast<unsigned long long>(r.installs), r.hit_latency_ns,
                    r.miss_latency_ns, r.bg_cct_us);
        sim::Scope cell = report.scope(std::string(arch) + ".p" + std::to_string(period_us) +
                                       ".s" + std::to_string(shift_us));
        cell.gauge("hit_rate").set(r.hit_rate);
        cell.gauge("sent").set(static_cast<double>(r.sent));
        cell.gauge("hits").set(static_cast<double>(r.hits));
        cell.gauge("misses").set(static_cast<double>(r.misses));
        cell.gauge("outstanding").set(static_cast<double>(r.outstanding));
        cell.gauge("staleness_misses").set(static_cast<double>(r.staleness_misses));
        cell.gauge("installs").set(static_cast<double>(r.installs));
        cell.gauge("hit_latency_ns").set(r.hit_latency_ns);
        cell.gauge("miss_latency_ns").set(r.miss_latency_ns);
        cell.gauge("bg_cct_us").set(r.bg_cct_us);
        cell.gauge("agent_polls").set(static_cast<double>(r.agent_polls));
        cell.gauge("agent_packets").set(static_cast<double>(r.agent_packets));
        cell.gauge("events").set(static_cast<double>(r.events));
      }
    }
  }
  report.gauge("quick").set(opt.quick ? 1.0 : 0.0);
  if (!ok) std::fprintf(stderr, "control_grid: lost replies or zero hit rate\n");
  return {ok};
}

/// Cache entries the armed arm of the datapath sweep runs with.
constexpr std::uint32_t kDatapathEntries = 4096;

/// One arm of one datapath cell: a full fabric run with the flow cache
/// armed (`entries` > 0) or off, on leaf_spine 2x2x8 or fat_tree k=4,
/// driving steady repeated incast or the control-churn co-simulation.
/// `traced` arms span sampling for the byte-equality verification arms
/// (kept out of the timed arms so tracing cost never pollutes ns/op).
struct DatapathRun {
  double ns = 0;
  std::uint64_t ops = 0;  ///< events executed
  fastpath::FlowCacheStats fp;
  std::uint64_t snap_hash = 0;
  std::uint64_t trace_hash = 0;
  bool ok = true;
};

DatapathRun run_datapath_cell(bool fat, bool churn_wl, std::uint32_t entries, bool traced,
                              bool quick, std::uint64_t seed) {
  Cell c(edit(fat ? fat_tree(4) : leaf_spine(2, 2, 8),
              [&](auto& p) {
                p.ecmp_seed = seed;
                p.profile.fastpath_entries = entries;
                p.control_channel = churn_wl;
                if (traced) p.trace.sample_every = 2;
              }),
         0);
  DatapathRun r;
  if (churn_wl) {
    const ChurnRun cr = run_churn(c, churn_spec(quick ? 100 : 400, seed));
    r.ns = cr.ns;
    r.ops = cr.events;
    r.ok = cr.ok();
  } else {
    // Every round rotates the sink and renames the flows, so a flow's first
    // packet per switch site always misses: packets_per_sender bounds the
    // achievable hit rate, and the full-size run uses a deep window so the
    // numbers reflect steady state rather than cold-start fills.
    const auto t0 = Clock::now();
    for (std::uint32_t round = 0; round < (quick ? 2u : 10u); ++round) {
      r.ops += incast_round(c, round, quick ? 4 : 48);
    }
    r.ns = now_ns(t0);
    r.ok = c.conserved();
  }
  c.net().finalize_metrics();
  r.fp = c.net().fastpath_totals();
  r.snap_hash = bench::fnv1a(c.net().metrics().snapshot().to_json("pin"));
  if (traced) r.trace_hash = bench::fnv1a(sim::spans_to_perfetto(c.net().span_buffers()));
  return r;
}

/// `--scenario datapath_fastpath` (E24): cache on/off x {leaf_spine,
/// fat_tree_4} x {steady incast, control churn}. Each cell reports
/// baseline + fastpath ns/op, hit rate, invalidations, the speedup, and a
/// self-verified `match` gauge: an extra traced off/on run pair per cell
/// must produce byte-identical snapshots AND span traces (hashed), or the
/// runner exits nonzero — the cache may only change how fast the answer
/// arrives, never the answer.
Outcome run_datapath(const Options& opt, sim::MetricRegistry& report) {
  report.gauge("config.quick").set(opt.quick ? 1.0 : 0.0);
  report.gauge("config.repeat").set(static_cast<double>(opt.repeat));
  report.gauge("config.fastpath_entries").set(static_cast<double>(kDatapathEntries));
  report.gauge("config.tier_profile_full").set(g_profile.eager_state ? 1.0 : 0.0);

  bool all_ok = true;
  for (const bool fat : {false, true}) {
    const char* scale = fat ? "fat_tree_4" : "leaf_spine";
    for (const bool churn_wl : {false, true}) {
      const char* wl = churn_wl ? "churn" : "steady";
      double base_ns = 0, fast_ns = 0;
      std::uint64_t base_ops = 0, fast_ops = 0;
      fastpath::FlowCacheStats fp;
      bool ok = true;
      const auto base_arm = [&](std::uint64_t seed) {
        const DatapathRun b = run_datapath_cell(fat, churn_wl, 0, false, opt.quick, seed);
        base_ns += b.ns;
        base_ops += b.ops;
        ok = ok && b.ok && b.fp.hits + b.fp.misses == 0;
      };
      const auto fast_arm = [&](std::uint64_t seed) {
        const DatapathRun f =
            run_datapath_cell(fat, churn_wl, kDatapathEntries, false, opt.quick, seed);
        fast_ns += f.ns;
        fast_ops += f.ops;
        fp.hits += f.fp.hits;
        fp.misses += f.fp.misses;
        fp.invalidations += f.fp.invalidations;
        fp.evictions += f.fp.evictions;
        ok = ok && f.ok && f.fp.hits > 0;
      };
      // Interleaved, and in alternating order, so neither arm always runs
      // cold.
      for (unsigned r = 0; r < opt.repeat; ++r) {
        const std::uint64_t seed = 0x5eed0000ull + r;
        if (r % 2 == 0) {
          base_arm(seed);
          fast_arm(seed);
        } else {
          fast_arm(seed);
          base_arm(seed);
        }
      }
      // The equality gate: one traced run pair, same seed, off vs on.
      const DatapathRun voff =
          run_datapath_cell(fat, churn_wl, 0, true, opt.quick, 0x5eed0000ull);
      const DatapathRun von =
          run_datapath_cell(fat, churn_wl, kDatapathEntries, true, opt.quick, 0x5eed0000ull);
      const bool match = voff.ops == von.ops && voff.snap_hash == von.snap_hash &&
                         voff.trace_hash == von.trace_hash;
      ok = ok && match;

      const double base_ns_per_op =
          base_ops > 0 ? base_ns / static_cast<double>(base_ops) : 0.0;
      const double fast_ns_per_op =
          fast_ops > 0 ? fast_ns / static_cast<double>(fast_ops) : 0.0;
      const double speedup = fast_ns_per_op > 0 ? base_ns_per_op / fast_ns_per_op : 0.0;
      const double hit_rate =
          fp.hits + fp.misses > 0
              ? static_cast<double>(fp.hits) / static_cast<double>(fp.hits + fp.misses)
              : 0.0;
      std::printf(
          "datapath %-10s %-6s base %8.1f ns/ev fast %8.1f ns/ev speedup %5.2fx "
          "hit %5.1f%% inval %llu%s%s\n",
          scale, wl, base_ns_per_op, fast_ns_per_op, speedup, hit_rate * 100.0,
          static_cast<unsigned long long>(fp.invalidations), match ? "" : "  MISMATCH",
          ok ? "" : "  FAILED");

      sim::Scope sc = report.scope(scale).scope(wl);
      sc.gauge("baseline.ns_per_op").set(base_ns_per_op);
      sim::Scope fs = sc.scope("fastpath");
      fs.gauge("ns_per_op").set(fast_ns_per_op);
      fs.gauge("hit_rate").set(hit_rate);
      fs.gauge("invalidations").set(static_cast<double>(fp.invalidations));
      fs.gauge("evictions").set(static_cast<double>(fp.evictions));
      sc.gauge("speedup").set(speedup);
      sc.gauge("match").set(match ? 1.0 : 0.0);
      sc.gauge("ok").set(ok ? 1.0 : 0.0);
      all_ok = all_ok && ok;
    }
  }
  if (!all_ok) std::fprintf(stderr, "datapath_fastpath reported a failed cell\n");
  return {all_ok};
}

using ModeFn = Outcome (*)(const Options&, sim::MetricRegistry&);

struct Mode {
  const char* scenario;
  const char* report;  ///< the BENCH_<report>.json label
  ModeFn fn;
};

constexpr Mode kTimed{"", "kernel", run_scenarios};
constexpr Mode kParallel{"", "parallel", run_parallel_scaling};  // selected by --scale
constexpr Mode kSweeps[] = {
    {"rack_coflows", "leaf_spine", run_rack_coflows},
    {"control_grid", "control", run_control_grid},
    {"datapath_fastpath", "datapath", run_datapath},
};

/// Splits a comma list, dropping empty items.
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--scenario NAME] [--threads N[,N...]] [--repeat N]\n"
               "          [--scale S[,S...]] [--tier-profile full|slim] [--out FILE]\n"
               "          [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (arg == "--scenario") {
      opt.scenario = v;
    } else if (arg == "--threads") {
      opt.threads.clear();
      for (const std::string& n : split_csv(v)) {
        opt.threads.push_back(static_cast<unsigned>(std::max(1, std::atoi(n.c_str()))));
      }
      if (opt.threads.empty()) return usage(argv[0]);
    } else if (arg == "--repeat") {
      opt.repeat = static_cast<unsigned>(std::max(1, std::atoi(v)));
    } else if (arg == "--scale") {
      opt.scales = split_csv(v);
    } else if (arg == "--out") {
      opt.out = v;
    } else if (arg == "--trace-out") {
      opt.trace_out = v;
    } else if (arg == "--tier-profile") {
      const auto profile = topo::TierProfile::parse(v);
      if (!profile) {
        std::fprintf(stderr, "unknown --tier-profile '%s' (full | slim)\n", v);
        return 2;
      }
      g_profile = *profile;
    } else {
      return usage(argv[0]);
    }
  }

  const Mode* mode = &kTimed;
  for (const Mode& m : kSweeps) {
    if (opt.scenario == m.scenario) mode = &m;
  }
  if (!opt.scales.empty()) {
    if (!opt.scenario.empty()) {
      std::fprintf(stderr, "--scale runs the parallel sweep; it takes no --scenario\n");
      return 2;
    }
    mode = &kParallel;
  }
  if (mode == &kTimed && !opt.scenario.empty() &&
      std::none_of(std::begin(kScenarios), std::end(kScenarios),
                   [&](const Scenario& sc) { return opt.scenario == sc.name; })) {
    std::fprintf(stderr, "unknown scenario '%s'; known:", opt.scenario.c_str());
    for (const Scenario& sc : kScenarios) std::fprintf(stderr, " %s", sc.name);
    for (const Mode& m : kSweeps) std::fprintf(stderr, " %s", m.scenario);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (mode == &kParallel) {
    for (const std::string& s : opt.scales) {
      if (!scale_fabric(s)) {
        std::fprintf(stderr,
                     "unknown --scale '%s' (leaf_spine | leaf_spine_2k | fat_tree_4 | "
                     "fat_tree_8)\n",
                     s.c_str());
        return 2;
      }
    }
  } else if (!opt.scales.empty() || !opt.trace_out.empty() || opt.threads.size() > 1) {
    std::fprintf(stderr, "--scale, --trace-out and a --threads list belong to the "
                         "parallel sweep (--scale)\n");
    return 2;
  }

  sim::MetricRegistry report;
  report.gauge("config.hardware_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  const Outcome o = mode->fn(opt, report);
  sim::Snapshot snap = report.snapshot();
  snap.merge(o.extra);
  const bool wrote = opt.out.empty() || bench::write_report(snap, mode->report, opt.out);
  return o.ok && wrote ? 0 : 1;
}
