// E10 — Micro-benchmarks of the simulator substrates (google-benchmark).
//
// These measure the *simulator's* own hot paths (host-machine ns/op), not
// modeled switch time: parser, deparser, tables, stateful ALU, array
// engine, TM, pipeline advance, the event kernel and the cross-shard
// mailbox.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_report.hpp"
#include "mat/array_engine.hpp"
#include "mat/register.hpp"
#include "mat/table.hpp"
#include "net/device.hpp"
#include "net/host.hpp"
#include "packet/deparser.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tm/traffic_manager.hpp"

namespace {

using namespace adcp;

packet::Packet sample_packet(std::size_t elems) {
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kAggUpdate;
  for (std::size_t i = 0; i < elems; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(i), 1});
  }
  return packet::make_inc_packet(spec);
}

void BM_ParserStandard(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Packet pkt = sample_packet(elems);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParserStandard)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_Deparser(benchmark::State& state) {
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  const packet::Packet pkt = sample_packet(16);
  const packet::ParseResult r = parser.parse(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dep.deparse(r.phv, pkt, r.consumed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Deparser);

/// The switch's write-back for a routing hop: only the TTL was written, so
/// Deparser::rewrite copies the packet into a pooled one and patches a
/// byte. Each output is the next input (same bytes: the TTL value is fixed).
void BM_DeparserPatch(benchmark::State& state) {
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  packet::Packet pkt = sample_packet(16);
  packet::ParseResult r = parser.parse(pkt);
  r.phv.set(packet::fields::kIpTtl, r.phv.get(packet::fields::kIpTtl) - 1);
  packet::Pool pool;
  for (auto _ : state) {
    pkt = dep.rewrite(r.phv, std::move(pkt), r.consumed, pool);
    benchmark::DoNotOptimize(pkt.size());
  }
  if (!dep.can_patch(r.phv, pkt, r.consumed)) state.SkipWithError("fell back to deparse");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeparserPatch);

void BM_ExactTableLookup(benchmark::State& state) {
  mat::ExactTable table(65536);
  for (std::uint64_t k = 0; k < 65536; ++k) table.insert(k, mat::actions::nop());
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key++ & 0xffff));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactTableLookup);

void BM_LpmLookup(benchmark::State& state) {
  mat::LpmTable table(1024);
  for (std::uint32_t i = 0; i < 256; ++i) {
    table.insert(i << 24, 8, mat::actions::nop());
    table.insert((i << 24) | (i << 16), 16, mat::actions::nop());
  }
  std::uint32_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key));
    key += 0x01010101;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup);

void BM_RegisterAlu(benchmark::State& state) {
  mat::RegisterFile regs(65536);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(regs.apply(mat::AluOp::kAdd, i++ & 0xffff, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegisterAlu);

void BM_ArrayEngineBatch(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  mat::ArrayEngineConfig cfg;
  cfg.lane_width = 16;
  mat::ArrayMatEngine engine(cfg);
  std::vector<std::uint64_t> keys(width), vals(width, 1);
  for (std::uint32_t i = 0; i < width; ++i) keys[i] = i;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.update_batch(mat::AluOp::kAdd, keys, vals, cycles));
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_ArrayEngineBatch)->Arg(1)->Arg(8)->Arg(16);

void BM_PipelineProcess(benchmark::State& state) {
  pipeline::PipelineConfig pc;
  pc.stage_count = 12;
  pipeline::Pipeline pipe(pc);
  packet::Phv phv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.process(0, phv));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineProcess);

void BM_TmEnqueueDequeue(benchmark::State& state) {
  tm::TmConfig cfg;
  cfg.outputs = 16;
  cfg.buffer_bytes = 1ull << 30;
  tm::TrafficManager tm(cfg);
  const packet::Packet pkt = sample_packet(4);
  std::uint32_t out = 0;
  for (auto _ : state) {
    tm.enqueue(out & 15, 0, pkt);
    benchmark::DoNotOptimize(tm.dequeue(out & 15));
    ++out;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TmEnqueueDequeue);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.at(static_cast<sim::Time>(i), [&count] { ++count; });
    }
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Steady-state variant: one Simulator reused across batches, the pattern
// every switch scenario actually runs. After the first batch the slab and
// heap are warm, so scheduling performs no heap allocation at all.
void BM_SimulatorSteadyState(benchmark::State& state) {
  sim::Simulator sim;
  int count = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.at(sim.now() + static_cast<sim::Time>(i), [&count] { ++count; });
    }
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorSteadyState);

// Reuse-API variants of the substrate benches: the switch data paths call
// parse_into/deparse_into with pooled packets, so these measure the hot
// path as deployed (no per-call Buffer/Phv allocations).
void BM_ParserReuse(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Packet pkt = sample_packet(elems);
  packet::ParseResult res;
  for (auto _ : state) {
    parser.parse_into(pkt, res);
    benchmark::DoNotOptimize(res.accepted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParserReuse)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_DeparserReuse(benchmark::State& state) {
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  const packet::Packet pkt = sample_packet(16);
  const packet::ParseResult r = parser.parse(pkt);
  packet::Packet out;
  for (auto _ : state) {
    dep.deparse_into(r.phv, pkt, r.consumed, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeparserReuse);

void BM_TmEnqueueDequeuePooled(benchmark::State& state) {
  tm::TmConfig cfg;
  cfg.outputs = 16;
  cfg.buffer_bytes = 1ull << 30;
  tm::TrafficManager tm(cfg);
  packet::Pool pool;
  tm.set_pool(&pool);
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kAggUpdate;
  for (std::uint32_t i = 0; i < 4; ++i) spec.inc.elements.push_back({i, 1});
  std::uint32_t out = 0;
  for (auto _ : state) {
    packet::Packet pkt = pool.acquire();
    packet::make_inc_packet_into(spec, pkt);
    tm.enqueue(out & 15, 0, std::move(pkt));
    auto got = tm.dequeue(out & 15);
    benchmark::DoNotOptimize(got->size());
    pool.release(std::move(*got));
    ++out;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TmEnqueueDequeuePooled);

// The kernel at depth, in the shape of the inc_agg_adcp fabric workload:
// 16 hosts each queue 6,400 INC sends up front (100 iterations x 64 chunks,
// staggered by a seeded skew), so ~100k events are pending when the run
// starts. A stub switch echoes every packet straight back to its sender,
// leaving two kernel events per packet (NIC arrival, downlink delivery) and
// little else. The two cases above schedule 1,000 sorted events into a
// shallow queue; this one measures what a deep one costs per event.
class EchoSwitch final : public net::SwitchDevice {
 public:
  void inject(packet::PortId port, packet::Packet pkt) override {
    (*hosts)[port].deliver_from_switch(std::move(pkt));
  }
  void set_tx_handler(net::TxHandler /*handler*/) override {}
  [[nodiscard]] std::uint32_t port_count() const override { return 16; }
  [[nodiscard]] double port_gbps() const override { return 100.0; }

  std::vector<net::Host>* hosts = nullptr;
};

void BM_SimulatorHostEcho(benchmark::State& state) {
  constexpr std::uint32_t kHosts = 16;
  constexpr std::uint32_t kIterations = 100;
  constexpr std::uint32_t kChunks = 64;
  sim::Simulator sim;
  EchoSwitch sw;
  packet::Pool pool(kHosts * kIterations * kChunks);
  std::vector<net::Host> hosts;
  hosts.reserve(kHosts);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.emplace_back(h, h, net::Link{}, sim, sw, nullptr, &pool);
  }
  sw.hosts = &hosts;
  sim::Rng rng(3);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::Time base = sim.now();
    for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
      for (std::uint32_t h = 0; h < kHosts; ++h) {
        const sim::Time start = base + iter * 4 * sim::kMicrosecond + rng.uniform(0, 800'000);
        for (std::uint32_t c = 0; c < kChunks; ++c) {
          packet::IncPacketSpec spec;
          spec.inc.opcode = packet::IncOpcode::kAggUpdate;
          spec.inc.flow_id = (iter + 1ull) * 1000 + h;
          spec.inc.seq = iter * kChunks + c;
          spec.inc.worker_id = h;
          for (std::uint32_t e = 0; e < 8; ++e) spec.inc.elements.push_back({c * 8 + e, 1});
          hosts[h].send_inc(spec, start);
        }
      }
    }
    events += sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorHostEcho)->Unit(benchmark::kMillisecond);

// One cross-shard channel end to end: a producer shard pushes N
// packet-sized captures per round into a 1 ps mailbox, a 1 ps back channel
// paces the rounds, and the consumer shard drains, orders and runs them.
// One worker, so this is the handoff's own cost (push, drain, pending heap,
// injection), not contention. Items are messages.
void BM_MailboxHandoff(benchmark::State& state) {
  constexpr int kRounds = 64;
  const auto per_round = static_cast<int>(state.range(0));
  sim::ParallelSimulator psim(1);
  sim::Simulator& producer = psim.add_shard();
  psim.add_shard();
  sim::Mailbox& box = psim.add_mailbox(0, 1, 1);
  psim.add_mailbox(1, 0, 1);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const sim::Time base = psim.now() + 1;
    for (int r = 0; r < kRounds; ++r) {
      const sim::Time t = base + static_cast<sim::Time>(r);
      producer.at(t, [&box, &delivered, t, per_round] {
        for (int i = 0; i < per_round; ++i) {
          box.push(t + 1, [&delivered, pkt = packet::Packet{}] {
            delivered += 1 + pkt.size();
          });
        }
      });
    }
    psim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(box.drained()));
}
BENCHMARK(BM_MailboxHandoff)->Arg(1)->Arg(64)->Arg(1024);

/// Console output as usual, plus every run mirrored into a MetricRegistry
/// ("<name>.ns_per_op" / "<name>.items_per_sec") so the micro numbers ship
/// in the same adcp-metrics-v1 schema as every other bench.
class RegistryReporter final : public benchmark::ConsoleReporter {
 public:
  explicit RegistryReporter(sim::MetricRegistry* registry) : registry_(registry) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // Benchmark names may carry arg suffixes ("BM_ParserReuse/16");
      // '/' nests them as registry scopes.
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/') c = '.';
      }
      if (run.iterations <= 0) continue;
      // Per-iteration real time in the run's time unit (ns by default).
      registry_->gauge(name + ".ns_per_op").set(run.GetAdjustedRealTime());
      if (run.counters.find("items_per_second") != run.counters.end()) {
        registry_->gauge(name + ".items_per_sec")
            .set(run.counters.at("items_per_second"));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  sim::MetricRegistry* registry_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sim::MetricRegistry report;
  RegistryReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  bench::write_report(report, "micro");
  return 0;
}
