// fabbench — one workload, one seed, one process.
//
// Drives the simulator only through its public APIs (topo::Network,
// sim::Simulator / sim::ParallelSimulator, net::Host, workload::*, ctrl::*,
// the switch classes), measures each layer from outside, checks the run's
// correctness gates, and prints one JSON object of raw measurements on
// stdout. fabbench/run.py repeats it, takes medians and formats the result.
//
// Usage:
//   fabbench --workload NAME --seed N [--scale X] [--trace-out PATH]
//
// Without --trace-out the process makes one untraced run (setup, inject,
// run, report phases timed with steady_clock) and prints the end-to-end
// measurements. With --trace-out it makes the untraced run with a bounded
// capture of delivered packets, then a traced run of the same seed (span
// sampling armed), replays the capture through each layer's public entry
// points, writes one Perfetto file, and prints the per-layer measurements.
// The exit code is 1 when any correctness gate fails, 2 on bad usage.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coflow/tracker.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "mat/array_engine.hpp"
#include "mat/state_accounting.hpp"
#include "packet/control.hpp"
#include "packet/deparser.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "telem/int_format.hpp"
#include "tm/traffic_manager.hpp"
#include "topo/network.hpp"
#include "workload/churn.hpp"
#include "workload/ml_allreduce.hpp"
#include "workload/rack_coflow.hpp"

namespace {

using namespace adcp;
using Clock = std::chrono::steady_clock;

double host_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

/// Seeded stream for workload inputs (platform-independent, unlike the
/// standard distributions).
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(splitmix(seed ^ 0xfab'be7c'4ULL)) {}
  std::uint64_t next() { return splitmix(state_++); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double us(sim::Time t) { return static_cast<double>(t) / sim::kMicrosecond; }

// ------------------------------------------------------------- options --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;
  std::string trace_out;  ///< non-empty = traced mode
  [[nodiscard]] bool traced() const { return !trace_out.empty(); }
  /// Workload size: `base` at scale 1, never below 1.
  [[nodiscard]] std::uint32_t sized(double base) const {
    return static_cast<std::uint32_t>(std::max(1.0, std::round(base * scale)));
  }
};

// ------------------------------------------------------ host-time spans --

/// The benchmark's own spans (host wall time), around every call it makes
/// into a layer: set-up, injection, run(), reporting and each replay.
struct HostSpans {
  struct Span {
    std::string name;
    double begin_ns;
    double end_ns;
  };
  std::vector<Span> spans;
  double origin_ns = host_ns();

  void add(std::string name, double begin_ns, double end_ns) {
    spans.push_back({std::move(name), begin_ns - origin_ns, end_ns - origin_ns});
  }
};

/// Phase clock of one run: setup ends at the first workload send call,
/// inject at the last, run when the last run() returns, report when the
/// run's counters are read.
struct Phases {
  double t0 = host_ns();
  double setup_end = 0, inject_end = 0, run_end = 0, report_end = 0;
  void setup_done() { setup_end = host_ns(); }
  void inject_done() { inject_end = host_ns(); }
  void run_done() { run_end = host_ns(); }
  void report_done() { report_end = host_ns(); }
  void record(HostSpans& hs, const std::string& prefix) const {
    hs.add(prefix + "setup", t0, setup_end);
    hs.add(prefix + "inject", setup_end, inject_end);
    hs.add(prefix + "run", inject_end, run_end);
    if (report_end > 0) hs.add(prefix + "report", run_end, report_end);
  }
};

// -------------------------------------------------------------- capture --

/// Bounded sample of delivered packets (the first `per_host` at each
/// host), one slot per host so host callbacks on different PDES shards
/// never share a vector.
class Capture {
 public:
  Capture(std::size_t hosts, std::size_t per_host) : per_host_(per_host), slots_(hosts) {}
  void offer(std::size_t host, const packet::Packet& pkt) {
    auto& v = slots_[host];
    if (v.size() < per_host_) v.push_back(pkt);
  }
  [[nodiscard]] std::vector<packet::Packet> all() const {
    std::vector<packet::Packet> out;
    for (const auto& v : slots_) out.insert(out.end(), v.begin(), v.end());
    return out;
  }

 private:
  std::size_t per_host_;
  std::vector<std::vector<packet::Packet>> slots_;
};

// ------------------------------------------------------------- results --

/// Everything one run measured. Layer counters use the names printed.
struct RunResult {
  Phases phases;
  std::uint64_t events = 0;
  sim::Time final_time = 0;
  std::uint64_t delivered = 0;    ///< host rx packets
  std::uint64_t attempted = 0;    ///< host-injected packets
  std::uint64_t lost = 0;         ///< never reached a host or a mgmt port
  std::vector<double> cct_us;     ///< simulated unit-of-work completion times
  std::uint64_t digest = 0;
  std::map<std::string, double> layer;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Sums every snapshot counter whose name ends with `suffix`.
double sum_suffix(const sim::Snapshot& snap, std::string_view suffix) {
  double total = 0;
  for (const auto& e : snap.entries()) {
    if (std::string_view(e.name).ends_with(suffix)) total += e.value;
  }
  return total;
}

std::uint64_t snapshot_digest(const sim::Snapshot& snap, std::uint64_t events,
                              sim::Time final_time, const std::vector<double>& cct) {
  const std::string json = snap.to_json("fabbench");
  std::uint64_t h = fnv1a(0xcbf29ce484222325ULL, json.data(), json.size());
  h = fnv1a(h, &events, sizeof events);
  h = fnv1a(h, &final_time, sizeof final_time);
  for (const double c : cct) h = fnv1a(h, &c, sizeof c);
  // 48 bits: exact as a JSON number.
  return h & ((1ULL << 48) - 1);
}

/// Drop reasons every switch model reports (suffix -> printed name).
const std::vector<std::pair<std::string, std::string>>& drop_reasons() {
  static const std::vector<std::pair<std::string, std::string>> kReasons = {
      {".drops.parse", "switch.drops.parse"},
      {".drops.program", "switch.drops.program"},
      {".drops.no_route", "switch.drops.no_route"},
      {".drops.admission", "switch.drops.admission"},
      {".drops.recirc_limit", "switch.drops.recirc_limit"},
      {".drops.dispatch_queue", "switch.drops.dispatch_queue"},
  };
  return kReasons;
}

/// Layer counters every workload shares, read from one merged snapshot.
/// Returns the total of switch drops by reason.
double collect_common(const sim::Snapshot& snap, RunResult& r) {
  double drops = 0;
  for (const auto& [suffix, name] : drop_reasons()) {
    const double v = sum_suffix(snap, suffix);
    r.layer[name] = v;
    drops += v;
  }
  r.layer["tm.enqueued"] = sum_suffix(snap, ".enqueued");
  r.layer["tm.drops_admission"] = r.layer["switch.drops.admission"];
  r.layer["rmt.recirc_passes"] = sum_suffix(snap, ".recirc.passes");
  r.layer["rtc.dispatch_drops"] = r.layer["switch.drops.dispatch_queue"];
  const double fresh = sum_suffix(snap, ".pool.fresh");
  const double recycled = sum_suffix(snap, ".pool.recycled");
  r.layer["packet.pool_fresh"] = fresh;
  r.layer["packet.pool_reuse"] = fresh + recycled > 0 ? recycled / (fresh + recycled) : 0.0;
  r.layer["net.rx_reordered"] = sum_suffix(snap, ".rx.reordered");
  return drops;
}

/// Packet conservation from public counters:
///   host tx + switch-originated + multicast copies
///     == host rx + mgmt-port consumption + link/trunk drops + switch drops
/// `consumed_by_design` is the part of the switch drops that is the
/// program's intended consumption (aggregation updates), not loss.
void ledger(RunResult& r, double host_tx, double host_rx, double originated,
            double mcast_extra, double mgmt, double link_drops, double trunk_drops,
            double switch_drops, double consumed_by_design) {
  const double lhs = host_tx + originated + mcast_extra;
  const double rhs = host_rx + mgmt + link_drops + trunk_drops + switch_drops;
  r.check(lhs == rhs, "conservation ledger unbalanced: in " + std::to_string(lhs) +
                          " != out " + std::to_string(rhs));
  r.attempted = static_cast<std::uint64_t>(host_tx);
  r.lost = static_cast<std::uint64_t>(link_drops + trunk_drops + switch_drops -
                                      consumed_by_design);
  r.delivered = static_cast<std::uint64_t>(host_rx);
  r.layer["net.host_tx_pkts"] = host_tx;
  r.layer["net.host_rx_pkts"] = host_rx;
  r.layer["net.mgmt_consumed"] = mgmt;
  r.layer["loss_frac"] = host_tx > 0 ? static_cast<double>(r.lost) / host_tx : 0.0;
  r.check(r.lost == 0, "lost packets: " + std::to_string(r.lost));
}

/// Counters of a topo::Network (sequential or sharded); returns the merged
/// snapshot they were read from.
sim::Snapshot collect_fabric(topo::Network& net, RunResult& r, double mgmt) {
  net.finalize_metrics();
  const sim::Snapshot snap = net.merged_snapshot();
  const double switch_drops = collect_common(snap, r);
  const fastpath::FlowCacheStats fp = net.fastpath_totals();
  r.layer["fastpath.hits"] = static_cast<double>(fp.hits);
  r.layer["fastpath.misses"] = static_cast<double>(fp.misses);
  r.layer["fastpath.hit_rate"] =
      fp.hits + fp.misses > 0
          ? static_cast<double>(fp.hits) / static_cast<double>(fp.hits + fp.misses)
          : 0.0;
  r.layer["fastpath.invalidations"] = static_cast<double>(fp.invalidations);
  r.layer["fastpath.evictions"] = static_cast<double>(fp.evictions);

  // Switch arrivals: every packet a switch received (management-port and
  // trunk arrivals included); the slow path parses and looks up the FIB
  // once per arrival the fast path did not serve, plus once per
  // recirculation pass.
  double sw_rx = 0;
  for (std::size_t i = 0; i < net.switch_count(); ++i) {
    sw_rx += snap.value("topo.sw" + std::to_string(i) + ".rx.packets");
  }
  const double slow = sw_rx - r.layer["fastpath.hits"];
  r.layer["packet.parse_calls"] = slow + r.layer["rmt.recirc_passes"];
  r.layer["topo.fib_lookups"] = slow;
  double trunk = 0;
  for (std::size_t i = 0; i < net.trunk_count(); ++i) {
    trunk += static_cast<double>(net.trunk_packets(i, 0) + net.trunk_packets(i, 1));
  }
  r.layer["topo.trunk_pkts"] = trunk;
  const sim::Histogram hops = net.merged_hops();
  r.layer["topo.hops_p50"] = hops.quantile(0.5);
  r.layer["topo.ecmp_imbalance"] = snap.value("topo.ecmp.imbalance");

  double stamps = 0, stamp_bytes = 0, originated = 0;  // postcards: switch-made
  for (std::size_t i = 0; i < net.switch_count(); ++i) {
    if (telem::TelemetryTap* tap = net.telemetry_tap_of(i)) {
      stamps += static_cast<double>(tap->stamps());
      stamp_bytes += static_cast<double>(tap->stamp_bytes());
      originated += static_cast<double>(tap->postcards());
    }
  }
  r.layer["telem.stamps"] = stamps;
  r.layer["telem.stamp_bytes"] = stamp_bytes;
  r.layer["telem.postcards"] = originated;
  r.layer["telem.reports"] =
      net.collector() != nullptr ? static_cast<double>(net.collector()->reports()) : 0.0;

  ledger(r, static_cast<double>(net.total_host_tx_packets()),
         static_cast<double>(net.total_host_rx_packets()), originated, 0.0, mgmt,
         static_cast<double>(net.total_host_link_drops()),
         static_cast<double>(net.total_trunk_drops()), switch_drops, 0.0);
  r.digest = snapshot_digest(snap, r.events, r.final_time, r.cct_us);
  return snap;
}

// ------------------------------------------------------------ tracing --

/// Simulated residency and waits per layer, from the sampled spans.
void analyze_spans(const std::vector<const sim::SpanBuffer*>& buffers,
                   std::map<std::string, double>& out) {
  std::vector<double> queue, pipeline, trunk, recirc, tx;
  double spans = 0, dropped = 0;
  for (const sim::SpanBuffer* b : buffers) {
    dropped += static_cast<double>(b->dropped());
    for (std::size_t i = 0; i < b->size(); ++i) {
      const sim::Span& s = b->at(i);
      ++spans;
      const double d = us(s.end - s.begin);
      switch (s.kind) {
        case sim::SpanKind::kTmQueue: queue.push_back(d); break;
        case sim::SpanKind::kIngress:
        case sim::SpanKind::kCentral:
        case sim::SpanKind::kEgress: pipeline.push_back(d); break;
        case sim::SpanKind::kTrunk: trunk.push_back(d); break;
        case sim::SpanKind::kRecirc: recirc.push_back(d); break;
        case sim::SpanKind::kTx: tx.push_back(d); break;
        default: break;
      }
    }
  }
  out["trace.spans"] = spans;
  out["trace.spans_overwritten"] = dropped;
  out["tm.queue_wait_p90_us"] = quantile(queue, 0.9);
  out["span.pipeline_p50_us"] = quantile(pipeline, 0.5);
  out["span.trunk_p50_us"] = quantile(trunk, 0.5);
  out["span.recirc_p50_us"] = quantile(recirc, 0.5);
  out["span.tx_p50_us"] = quantile(tx, 0.5);
}

/// Body of a Perfetto JSON document: the events between the brackets.
std::string events_of(const std::string& doc, int pid) {
  const std::string head = "{\"traceEvents\":[";
  const std::size_t b = doc.find(head);
  const std::size_t e = doc.rfind("],\"displayTimeUnit\"");
  if (b == std::string::npos || e == std::string::npos) return {};
  std::string body = doc.substr(b + head.size(), e - b - head.size());
  const std::string from = "\"pid\":1,";
  const std::string to = "\"pid\":" + std::to_string(pid) + ",";
  for (std::size_t p = body.find(from); p != std::string::npos;
       p = body.find(from, p + to.size())) {
    body.replace(p, from.size(), to);
  }
  return body;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// One Perfetto file: simulated-time packet spans (pid 1), PDES
/// self-profile in wall-clock ns (pid 2), the benchmark's own host-time
/// spans (pid 3).
bool write_perfetto(const std::string& path, const std::vector<const sim::SpanBuffer*>& sim_spans,
                    const std::vector<const sim::SpanBuffer*>& pdes_spans, const HostSpans& hs) {
  std::string out = "{\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
         "\"args\":{\"name\":\"fabbench (host time)\"}}";
  for (const auto& s : hs.spans) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":3,\"tid\":1}",
                  s.begin_ns / 1e3, (s.end_ns - s.begin_ns) / 1e3);
    out += ",\n{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"fabbench\"," + buf;
  }
  const std::string sim_body = events_of(sim::spans_to_perfetto(sim_spans, 1e-6), 1);
  if (!sim_body.empty()) out += ",\n" + sim_body;
  if (!pdes_spans.empty()) {
    std::string pdes_body = events_of(sim::spans_to_perfetto(pdes_spans, 1e-3), 2);
    const std::string rename = "\"args\":{\"name\":\"adcp-fabric\"}";
    if (const std::size_t p = pdes_body.find(rename); p != std::string::npos) {
      pdes_body.replace(p, rename.size(), "\"args\":{\"name\":\"pdes (wall ns)\"}");
    }
    if (!pdes_body.empty()) out += ",\n" + pdes_body;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return sim::write_text_file(path, out);
}

// ------------------------------------------------------------ replays --

/// Times `body` (one pass over the sample, returning its op count) until
/// at least `min_ns` has elapsed; returns ns per op.
template <typename F>
double time_per_op(HostSpans& hs, const std::string& name, F&& body, double min_ns = 20e6) {
  std::uint64_t ops = 0;
  const double t0 = host_ns();
  double t1 = t0;
  while (t1 - t0 < min_ns || ops == 0) {
    const std::uint64_t n = body();
    if (n == 0) return 0.0;
    ops += n;
    t1 = host_ns();
  }
  hs.add(name, t0, t1);
  return (t1 - t0) / static_cast<double>(ops);
}

/// Replays the captured sample's flow keys through every switch's FIB.
void replay_fib(topo::Network& net, const std::vector<packet::Packet>& sample,
                std::map<std::string, double>& out, HostSpans& hs) {
  const packet::ParseGraph graph = packet::standard_parse_graph(64);
  const packet::Parser parser(&graph);
  struct Key {
    std::uint32_t dst, src;
    std::uint16_t sport, dport;
  };
  std::vector<Key> keys;
  packet::ParseResult res;
  for (const packet::Packet& p : sample) {
    parser.parse_into(p, res);
    if (!res.accepted) continue;
    keys.push_back({static_cast<std::uint32_t>(res.phv.get(packet::fields::kIpDst)),
                    static_cast<std::uint32_t>(res.phv.get(packet::fields::kIpSrc)),
                    static_cast<std::uint16_t>(res.phv.get(packet::fields::kUdpSrc)),
                    static_cast<std::uint16_t>(res.phv.get(packet::fields::kUdpDst))});
  }
  std::vector<std::shared_ptr<topo::ForwardingTable>> fibs;
  for (std::size_t i = 0; i < net.switch_count(); ++i) fibs.push_back(net.fib_of(i));
  std::uint64_t sink = 0;
  out["topo.fib_lookup_ns"] = time_per_op(hs, "replay.fib_lookup", [&] {
    for (const auto& fib : fibs) {
      for (const Key& k : keys) sink += fib->lookup(k.dst, k.src, k.sport, k.dport);
    }
    return static_cast<std::uint64_t>(fibs.size() * keys.size());
  });
  out["replay.sink"] += static_cast<double>(sink & 1);
}

/// Replays the captured sample through each layer's public entry points
/// and fills the *_ns metrics.
void replay_layers(const std::vector<packet::Packet>& sample,
                   std::map<std::string, double>& out, HostSpans& hs) {
  const packet::ParseGraph graph = packet::standard_parse_graph(64);
  const packet::Parser parser(&graph);
  const packet::Deparser deparser = packet::standard_deparser();
  std::uint64_t sink = 0;

  packet::ParseResult res;
  out["packet.parse_ns"] = time_per_op(hs, "replay.parse", [&] {
    for (const packet::Packet& p : sample) {
      parser.parse_into(p, res);
      sink += res.consumed;
    }
    return static_cast<std::uint64_t>(sample.size());
  });

  std::vector<packet::ParseResult> parsed(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) parser.parse_into(sample[i], parsed[i]);
  packet::Packet scratch;
  out["packet.deparse_ns"] = time_per_op(hs, "replay.deparse", [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (!parsed[i].accepted) continue;
      deparser.deparse_into(parsed[i].phv, sample[i], parsed[i].consumed, scratch);
      sink += scratch.size();
      ++n;
    }
    return n;
  });

  {
    tm::TmConfig cfg;
    cfg.outputs = 4;
    tm::TrafficManager tm(cfg);
    std::vector<packet::Packet> pkts = sample;
    out["tm.enqdeq_ns"] = time_per_op(hs, "replay.tm_enqdeq", [&] {
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        const auto o = static_cast<std::uint32_t>(i % cfg.outputs);
        tm.enqueue(o, 0, std::move(pkts[i]));
        std::optional<packet::Packet> back = tm.dequeue(o);
        if (back) pkts[i] = std::move(*back);
      }
      return static_cast<std::uint64_t>(pkts.size());
    });
  }

  {
    // One batch per captured INC packet: its element keys and values.
    std::vector<std::vector<std::uint64_t>> keys, vals;
    packet::IncHeader inc;
    for (const packet::Packet& p : sample) {
      if (!packet::decode_inc(p, inc) || inc.elements.empty()) continue;
      keys.emplace_back();
      vals.emplace_back();
      for (const packet::IncElement& e : inc.elements) {
        keys.back().push_back(e.key);
        vals.back().push_back(e.value);
      }
    }
    mat::ArrayMatEngine engine{mat::ArrayEngineConfig{}};
    out["mat.array_update_ns"] = time_per_op(hs, "replay.array_update", [&] {
      std::uint64_t cycles = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        sink += engine.update_batch(mat::AluOp::kAdd, keys[i], vals[i], cycles).size();
      }
      return static_cast<std::uint64_t>(keys.size());
    });
  }

  {
    // A full 16-entry control batch packet, as the agent sends.
    packet::ControlUpdate update;
    update.epoch = 7;
    update.commit = true;
    for (std::uint32_t k = 0; k < packet::kCtrlMaxEntriesPerPacket; ++k) {
      update.entries.push_back({k % 3 == 0 ? packet::CtrlOp::kEvict : packet::CtrlOp::kInstall,
                                (k * 2654435761u) & packet::kCtrlKeyMask, k});
    }
    packet::IncPacketSpec spec;
    packet::encode_ctrl(update, spec);
    const packet::Packet ctrl_pkt = packet::make_inc_packet(spec);
    packet::IncHeader inc;
    packet::ControlUpdate decoded;
    out["ctrl.decode_ns"] = time_per_op(hs, "replay.ctrl_decode", [&] {
      for (int i = 0; i < 64; ++i) {
        if (packet::decode_inc(ctrl_pkt, inc) && packet::decode_ctrl(inc, decoded)) {
          sink += decoded.entries.size();
        }
      }
      return std::uint64_t{64};
    });
  }

  {
    std::vector<const packet::Packet*> stamped;
    for (const packet::Packet& p : sample) {
      if (telem::has_int_trailer(p)) stamped.push_back(&p);
    }
    std::vector<telem::IntRecord> recs;
    out["telem.decode_ns"] = stamped.empty() ? 0.0 : time_per_op(hs, "replay.int_decode", [&] {
      for (const packet::Packet* p : stamped) sink += telem::int_decode(*p, recs);
      return static_cast<std::uint64_t>(stamped.size());
    });
  }

  {
    // The event kernel alone: a self-rescheduling chain of empty events.
    struct Tick {
      sim::Simulator* s;
      std::uint64_t* left;
      void operator()() const {
        if (--*left > 0) s->after(1, Tick{s, left});
      }
    };
    out["sim.kernel_ns"] = time_per_op(hs, "replay.event_kernel", [&] {
      sim::Simulator s;
      std::uint64_t left = 100'000;
      s.after(1, Tick{&s, &left});
      return s.run();
    });
  }
  out["replay.sample"] = static_cast<double>(sample.size());
  out["replay.sink"] += static_cast<double>(sink & 1);
}

/// est_share.<layer> = calls x replay ns / phase.run_ms.
void estimate_shares(std::map<std::string, double>& m) {
  const double run_ns = m["phase.run_ms"] * 1e6;
  if (run_ns <= 0) return;
  const std::map<std::string, double> cost = {
      {"sim", m["sim.events"] * m["sim.kernel_ns"]},
      {"packet", m["packet.parse_calls"] * (m["packet.parse_ns"] + m["packet.deparse_ns"])},
      {"topo", m["topo.fib_lookups"] * m["topo.fib_lookup_ns"]},
      {"tm", m["tm.enqueued"] * m["tm.enqdeq_ns"]},
      {"mat", m["mat.array_batches"] * m["mat.array_update_ns"]},
      {"ctrl", m["ctrl.update_packets"] * m["ctrl.decode_ns"]},
      {"telem", m["telem.reports"] * m["telem.decode_ns"]},
  };
  double covered = 0;
  for (const auto& [layer, ns] : cost) {
    m["est_share." + layer] = ns / run_ns;
    covered += ns / run_ns;
  }
  m["est_share.unattributed"] = 1.0 - covered;
}

// ---------------------------------------------------------- workloads --

/// Per-run knobs shared by the workloads.
struct RunMode {
  Capture* capture = nullptr;
  /// Traced runs: receives the run's phases, its packet span buffers and
  /// (sharded runs) the PDES self-profile buffers before teardown.
  std::function<void(const Phases&, const std::vector<const sim::SpanBuffer*>&,
                     const std::vector<const sim::SpanBuffer*>&)>
      on_spans;
  HostSpans* hs = nullptr;  ///< replay spans (capturing runs)
  sim::TraceConfig trace;   ///< span sampling of traced runs
};

void attach_capture(topo::Network& net, Capture* capture) {
  if (capture == nullptr) return;
  for (std::size_t h = 0; h < net.host_count(); ++h) {
    net.host(h).add_rx_callback(
        [capture, h](net::Host&, const packet::Packet& pkt) { capture->offer(h, pkt); });
  }
}

/// Incast rounds on a fat tree: every round the sink rotates (a seeded
/// permutation), the flows are renamed (seeded flow base, so per-flow ECMP
/// paths change) and each sender's volume is drawn around the nominal
/// size, so the sink's drain time is seeded. Rounds start every `period`.
struct IncastPlan {
  struct Round {
    workload::RackIncastParams params;      ///< sink, ids, nominal size
    std::vector<std::uint32_t> senders;     ///< host index per flow slot
    std::vector<std::uint32_t> packets;     ///< packets per flow slot
  };
  std::uint32_t rounds = 1;
  std::uint32_t hosts = 16;  ///< candidate sinks/senders: hosts [0, hosts)
  std::uint32_t packets_per_sender = 48;  ///< nominal (+-1/3 per sender)
  sim::Time period = 0;
  std::vector<Round> plan;

  void build(std::uint64_t seed) {
    Stream rng(seed);
    std::vector<std::uint32_t> order(hosts);
    const std::uint32_t spread = packets_per_sender / 3;
    for (std::uint32_t r = 0; r < rounds; ++r) {
      if (r % hosts == 0) {
        for (std::uint32_t i = 0; i < hosts; ++i) order[i] = i;
        for (std::uint32_t i = hosts - 1; i > 0; --i) {
          std::swap(order[i], order[rng.below(i + 1)]);
        }
      }
      Round round;
      round.params.sink = order[r % hosts];
      round.params.senders = hosts - 1;
      round.params.packets_per_sender = packets_per_sender;
      round.params.coflow_id = static_cast<std::uint16_t>(1000 + r);
      round.params.flow_base =
          static_cast<std::uint32_t>(100'000 + r * 1'000 + rng.below(600) * 1'000'000);
      for (std::uint32_t h = 0; h < hosts; ++h) {
        if (h == round.params.sink) continue;
        round.senders.push_back(h);
        round.packets.push_back(packets_per_sender - spread +
                                static_cast<std::uint32_t>(rng.below(2 * spread + 1)));
      }
      plan.push_back(std::move(round));
    }
  }

  /// Data packets round `i` delivers to its sink.
  [[nodiscard]] std::uint64_t packets(std::uint32_t i) const {
    std::uint64_t n = 0;
    for (const std::uint32_t p : plan[i].packets) n += p;
    return n;
  }

  /// Registers round `i`'s coflow and schedules its sends: one
  /// start_rack_incast per sender, over the (sink, sender) pair, so every
  /// flow carries its own volume.
  void start(std::uint32_t i, std::span<workload::RackHost> hosts,
             coflow::CoflowTracker& tracker) const {
    const Round& round = plan[i];
    const sim::Time when = period * i;
    coflow::CoflowDescriptor d = workload::rack_incast_descriptor(round.params, hosts.size());
    const std::uint64_t pkt_bytes = packet::inc_packet_bytes(round.params.elems_per_packet);
    for (std::size_t slot = 0; slot < d.flows.size(); ++slot) {
      d.flows[slot].packets = round.packets[slot];
      d.flows[slot].bytes = round.packets[slot] * pkt_bytes;
    }
    tracker.start(d, when);
    for (std::size_t slot = 0; slot < round.senders.size(); ++slot) {
      std::array<workload::RackHost, 2> pair{hosts[round.params.sink],
                                             hosts[round.senders[slot]]};
      workload::RackIncastParams one = round.params;
      one.sink = 0;
      one.senders = 1;
      one.packets_per_sender = round.packets[slot];
      one.flow_base = round.params.flow_base + static_cast<std::uint32_t>(slot);
      workload::start_rack_incast(pair, one, when);
    }
  }
};

RunResult run_incast(const Options& opt, const RunMode& mode, bool parallel) {
  RunResult r;
  Phases& ph = r.phases;
  topo::FatTreeParams p;
  IncastPlan plan;
  if (!parallel) {
    p.k = 4;
    p.kind = topo::SwitchKind::kAdcp;
    plan.rounds = opt.sized(40);
    plan.hosts = 16;
    plan.packets_per_sender = 48;
    plan.period = 16 * sim::kMicrosecond;
  } else {
    p.k = 8;
    p.kind = topo::SwitchKind::kRtc;
    p.profile.fastpath_entries = 4096;
    p.profile.telemetry.armed = true;
    p.profile.telemetry.report_sample_every = 2;
    plan.rounds = opt.sized(8);
    plan.hosts = 127;  // the last host is the telemetry collector: idle
    plan.packets_per_sender = 16;
    plan.period = 40 * sim::kMicrosecond;
  }
  p.ecmp_seed = splitmix(opt.seed ^ 0xec3d);
  p.trace = mode.trace;

  std::optional<sim::Simulator> seq_sim;
  std::optional<sim::ParallelSimulator> psim;
  std::optional<topo::Network> net_storage;
  if (parallel) {
    psim.emplace(2);
    if (mode.trace.enabled()) psim->enable_profile_spans();
    net_storage.emplace(*psim, p);
  } else {
    seq_sim.emplace();
    net_storage.emplace(*seq_sim, p);
  }
  topo::Network& net = *net_storage;
  std::vector<workload::RackHost> hosts;
  for (std::size_t i = 0; i < plan.hosts; ++i) hosts.push_back({&net.host(i), net.ip_of(i)});
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  attach_capture(net, mode.capture);
  plan.build(opt.seed);

  // Incast completion measured at the sinks: the time the last data packet
  // of a round arrives. Telemetry reports to the collector carry the
  // observed flow's ids, and the tracker counts them as deliveries of that
  // flow (from the collector's shard, so in wall-clock order), so its
  // finish times are only cross-checked. Each round's counters are touched
  // by its sink's shard alone.
  std::vector<std::uint64_t> seen(plan.rounds, 0);
  std::vector<sim::Time> last_data(plan.rounds, 0);
  for (std::uint32_t h = 0; h < plan.hosts; ++h) {
    net.host(h).add_rx_callback([&seen, &last_data, &plan, h](net::Host& host,
                                                              const packet::Packet& pkt) {
      packet::IncHeader inc;
      if (!packet::decode_inc(pkt, inc) || inc.opcode != packet::IncOpcode::kPlain) return;
      const std::uint32_t i = inc.coflow_id - plan.plan[0].params.coflow_id;
      if (i >= plan.rounds || plan.plan[i].params.sink != h) return;
      ++seen[i];
      last_data[i] = host.last_rx_time();
    });
  }
  ph.setup_done();

  for (std::uint32_t i = 0; i < plan.rounds; ++i) plan.start(i, hosts, tracker);
  ph.inject_done();
  if (parallel) {
    r.events = psim->run();
    r.final_time = psim->now();
  } else {
    r.events = seq_sim->run();
    r.final_time = seq_sim->now();
  }
  ph.run_done();

  r.check(tracker.all_complete(), "the coflow tracker saw an incast incomplete");
  double mismatch = 0;
  for (std::uint32_t i = 0; i < plan.rounds; ++i) {
    r.check(seen[i] == plan.packets(i), "incast round " + std::to_string(i) + " delivered " +
                                            std::to_string(seen[i]) + " of " +
                                            std::to_string(plan.packets(i)) + " packets");
    const sim::Time cct = last_data[i] - plan.period * i;
    r.cct_us.push_back(us(cct));
    const coflow::CoflowRecord* rec = tracker.record(plan.plan[i].params.coflow_id);
    if (rec == nullptr || rec->completion_time() != cct) ++mismatch;
  }
  r.layer["coflow.tracker_mismatch"] = mismatch;
  collect_fabric(net, r, 0.0);
  r.layer["mat.bytes_touched"] = static_cast<double>(mat::StateAccounting::touched_bytes());
  if (parallel) {
    r.check(net.collector() != nullptr && net.collector()->reports() > 0,
            "the telemetry collector received no reports");
    const sim::Snapshot ps = psim->metrics().snapshot();
    const double busy = sum_suffix(ps, ".busy_ns");
    const double wait = sum_suffix(ps, ".horizon_wait_ns");
    const double idle = sum_suffix(ps, ".idle_ns");
    r.layer["pdes.busy_ms"] = busy / 1e6;
    r.layer["pdes.horizon_wait_ms"] = wait / 1e6;
    r.layer["pdes.busy_frac"] = busy + wait + idle > 0 ? busy / (busy + wait + idle) : 0.0;
    r.layer["pdes.epochs"] = ps.value("parallel.epochs");
    r.layer["pdes.messages"] = ps.value("parallel.messages");
    const sim::Snapshot::Entry* occ = ps.find("pdes.mailbox.occupancy");
    r.layer["pdes.mailbox_occ_p99"] = occ != nullptr ? occ->p99 : 0.0;
  }
  if (mode.on_spans) {
    mode.on_spans(ph, net.span_buffers(),
                  parallel ? psim->profile_span_buffers() : std::vector<const sim::SpanBuffer*>{});
  }
  if (mode.capture != nullptr) replay_fib(net, mode.capture->all(), r.layer, *mode.hs);
  ph.report_done();
  return r;
}

RunResult run_churn(const Options& opt, const RunMode& mode) {
  RunResult r;
  Phases& ph = r.phases;
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 9;
  p.kind = topo::SwitchKind::kRmt;
  p.control_channel = true;
  // 7G server links: the backing store's NIC runs at ~85% under the miss
  // replies, so most replies queue behind others and the query latency
  // depends on the seeded input, not only on the path.
  p.host_link.gbps = 7.0;
  p.profile.fastpath_entries = 4096;
  p.ecmp_seed = splitmix(opt.seed ^ 0xec3d);
  p.trace = mode.trace;
  topo::Network net(sim, p);
  const std::size_t backing = net.host_count() - 1;

  ctrl::ControlPlaneConfig cpc;
  cpc.store_capacity = 64;
  ctrl::ControlPlane cp(cpc, net);
  cp.attach_all();
  ctrl::ControlAgentConfig acfg;
  acfg.period = 25 * sim::kMicrosecond;
  acfg.hot_set = 48;
  acfg.update_budget = 96;
  ctrl::ControlAgent agent(acfg, net, backing);
  agent.add_all_targets();

  workload::ChurnParams wp;
  wp.backing_host = backing;
  wp.key_space = 512;
  wp.zipf_skew = 1.0;
  wp.queries_per_client = opt.sized(4000);
  wp.shift_period = 200 * sim::kMicrosecond;
  wp.shift_step = 64;

  // One ChurnQuery per client, each started at a seeded phase within the
  // query interval, so queries meet in the backing store's queues in a
  // seed-dependent pattern (a single instance staggers clients evenly).
  Stream rng(opt.seed);
  std::vector<std::unique_ptr<workload::ChurnQuery>> churn;
  std::vector<sim::Time> phase;
  std::vector<double> latency_us;
  for (std::size_t g = 0; g < net.host_count(); ++g) {
    if (g == backing) continue;
    workload::ChurnParams cp_params = wp;
    cp_params.client_hosts = {g};
    cp_params.seed = splitmix(opt.seed * 1'000 + g);
    cp_params.flow_base = wp.flow_base + static_cast<std::uint32_t>(g);
    churn.push_back(std::make_unique<workload::ChurnQuery>(cp_params, net));
    phase.push_back(rng.below(wp.interval));
    // Per-query latency, measured from outside: query `seq` is issued at
    // phase + seq * interval (ChurnQuery's fixed schedule).
    const std::uint32_t flow = cp_params.flow_base;
    const sim::Time start = phase.back();
    const sim::Time interval = wp.interval;
    net.host(g).add_rx_callback(
        [&latency_us, flow, start, interval](net::Host& h, const packet::Packet& pkt) {
          packet::IncHeader hdr;
          if (!packet::decode_inc(pkt, hdr) || hdr.flow_id != flow) return;
          if (hdr.opcode != packet::IncOpcode::kChurnHit &&
              hdr.opcode != packet::IncOpcode::kChurnMiss) {
            return;
          }
          latency_us.push_back(us(h.last_rx_time() - start - interval * hdr.seq));
        });
  }
  std::vector<workload::RackHost> hosts;
  for (std::size_t i = 0; i < net.host_count(); ++i) hosts.push_back({&net.host(i), net.ip_of(i)});
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  attach_capture(net, mode.capture);
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = 4;
  inc.packets_per_sender = 32;
  const sim::Time t_stop = wp.interval * wp.queries_per_client + 100 * sim::kMicrosecond;
  sim.at(t_stop, [&agent] { agent.stop(); });
  agent.start();
  ph.setup_done();

  for (std::size_t i = 0; i < churn.size(); ++i) churn[i]->start(phase[i]);
  // A background incast every 200 us while queries run, issued when due:
  // a send pre-scheduled for later would hold back the sender's NIC queue.
  const std::uint32_t bg_rounds = static_cast<std::uint32_t>(
      wp.interval * wp.queries_per_client / (200 * sim::kMicrosecond) + 1);
  for (std::uint32_t b = 0; b < bg_rounds; ++b) {
    workload::RackIncastParams bi = inc;
    bi.coflow_id = static_cast<std::uint16_t>(7001 + b);
    bi.flow_base = 70'000 + b * 100;
    const sim::Time when = 50 * sim::kMicrosecond + b * 200 * sim::kMicrosecond;
    tracker.start(workload::rack_incast_descriptor(bi, hosts.size()), when);
    sim.at(when, [&hosts, bi, &sim] { workload::start_rack_incast(hosts, bi, sim.now()); });
  }
  ph.inject_done();
  r.events = sim.run();
  r.final_time = sim.now();
  ph.run_done();

  std::uint64_t hits = 0, misses = 0, outstanding = 0;
  for (const auto& c : churn) {
    hits += c->hits();
    misses += c->misses();
    outstanding += c->outstanding();
  }
  r.check(outstanding == 0, "queries without a reply: " + std::to_string(outstanding));
  r.check(hits > 0, "no query hit a switch store");
  r.check(latency_us.size() == hits + misses,
          "reply count seen by the benchmark differs from the workload's");
  r.check(tracker.all_complete(), "a background incast coflow did not complete");
  r.cct_us = latency_us;
  const sim::Snapshot snap =
      collect_fabric(net, r, static_cast<double>(agent.update_packets()));
  r.layer["mat.bytes_touched"] = static_cast<double>(mat::StateAccounting::touched_bytes());
  r.layer["mat.versioned_hits"] = static_cast<double>(cp.total_hits());
  r.layer["mat.staleness_misses"] = static_cast<double>(cp.total_staleness_misses());
  r.layer["ctrl.update_packets"] = static_cast<double>(agent.update_packets());
  r.layer["ctrl.installs"] = static_cast<double>(cp.total_installs());
  r.layer["ctrl.hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  double lat_sum = 0, lat_n = 0, lat_max = 0;
  for (const auto& e : snap.entries()) {
    if (std::string_view(e.name).ends_with(".batch_latency_ns")) {
      lat_sum += e.value * static_cast<double>(e.count);
      lat_n += static_cast<double>(e.count);
      lat_max = std::max(lat_max, e.max);
    }
  }
  r.layer["ctrl.batch_latency_mean_us"] = lat_n > 0 ? lat_sum / lat_n / 1e3 : 0.0;
  r.layer["ctrl.batch_latency_max_us"] = lat_max / 1e3;
  if (mode.on_spans) mode.on_spans(ph, net.span_buffers(), {});
  if (mode.capture != nullptr) replay_fib(net, mode.capture->all(), r.layer, *mode.hs);
  ph.report_done();
  return r;
}

RunResult run_aggregation(const Options& opt, const RunMode& mode) {
  RunResult r;
  Phases& ph = r.phases;
  constexpr std::uint32_t kWorkers = 16;
  sim::Simulator sim;
  sim::MetricRegistry reg;
  if (mode.trace.enabled()) reg.spans().enable(mode.trace.ring_capacity);
  core::AdcpConfig cfg;
  cfg.port_count = kWorkers;
  core::AdcpSwitch sw(sim, cfg, reg.scope("adcp"));
  core::AggregationOptions agg;
  agg.workers = kWorkers;
  sw.load_program(core::aggregation_program(cfg, agg));
  std::vector<packet::PortId> group;
  for (std::uint32_t i = 0; i < kWorkers; ++i) group.push_back(i);
  sw.set_multicast_group(agg.result_group, group);
  net::Fabric fabric(sim, sw, net::Link{}, 0xfab21c, reg.scope("net"));
  sim::TraceSampler sampler(mode.trace);
  if (mode.trace.enabled()) fabric.set_trace_sampler(&sampler);

  workload::MlAllReduceParams mp;
  mp.workers = kWorkers;
  mp.vector_len = 512;
  mp.elems_per_packet = 8;
  mp.iterations = opt.sized(100);
  workload::MlAllReduceWorkload wl(mp);
  wl.attach(fabric);

  // Iteration i is due at i * period; each worker starts it after a seeded
  // skew (stragglers), so the completion time depends on the slowest one.
  const sim::Time period = 4 * sim::kMicrosecond;
  const sim::Time max_skew = 800 * sim::kNanosecond;
  std::vector<sim::Time> last_result(mp.iterations, 0);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    fabric.host(w).add_rx_callback(
        [&last_result, &mp](net::Host& h, const packet::Packet& pkt) {
          packet::IncHeader inc;
          if (!packet::decode_inc(pkt, inc) || inc.opcode != packet::IncOpcode::kAggResult) {
            return;
          }
          const std::uint32_t iter = inc.coflow_id - mp.coflow_base;
          if (iter < last_result.size()) {
            last_result[iter] = std::max(last_result[iter], h.last_rx_time());
          }
        });
    if (mode.capture != nullptr) {
      Capture* c = mode.capture;
      fabric.host(w).add_rx_callback(
          [c, w](net::Host&, const packet::Packet& pkt) { c->offer(w, pkt); });
    }
  }
  Stream rng(opt.seed);
  ph.setup_done();

  // Mirrors MlAllReduceWorkload::start's packet layout (keys, slots,
  // contributions) so attach()'s analytic check applies.
  const std::uint32_t chunks = mp.packets_per_worker_per_iteration();
  for (std::uint32_t iter = 0; iter < mp.iterations; ++iter) {
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      const sim::Time start = period * iter + rng.below(max_skew);
      for (std::uint32_t c = 0; c < chunks; ++c) {
        packet::IncPacketSpec spec;
        spec.ip_dst = 0x0a0000fe;
        spec.inc.opcode = packet::IncOpcode::kAggUpdate;
        spec.inc.coflow_id = static_cast<std::uint16_t>(mp.coflow_base + iter);
        spec.inc.flow_id = (iter + 1ull) * 1000 + w;
        spec.inc.seq = iter * chunks + c;
        spec.inc.worker_id = w;
        const std::uint32_t first = c * mp.elems_per_packet;
        for (std::uint32_t i = 0; i < mp.elems_per_packet && first + i < mp.vector_len; ++i) {
          const std::uint64_t key = static_cast<std::uint64_t>(iter) * mp.vector_len + first + i;
          spec.inc.elements.push_back({static_cast<std::uint32_t>(key),
                                       static_cast<std::uint32_t>(mp.contribution(w, key))});
        }
        fabric.host(w).send_inc(spec, start);
      }
    }
  }
  ph.inject_done();
  r.events = sim.run();
  r.final_time = sim.now();
  ph.run_done();

  r.check(wl.complete(), "aggregation incomplete");
  r.check(wl.bad_sums() == 0, "wrong sums: " + std::to_string(wl.bad_sums()));
  for (std::uint32_t i = 0; i < mp.iterations; ++i) {
    r.check(last_result[i] > period * i, "iteration without results");
    r.cct_us.push_back(us(last_result[i] - period * i));
  }

  const sim::Snapshot snap = reg.snapshot();
  const double switch_drops = collect_common(snap, r);
  double host_tx = 0, host_rx = 0, link = 0;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    host_tx += static_cast<double>(fabric.host(w).tx_packets());
    host_rx += static_cast<double>(fabric.host(w).rx_packets());
    link += static_cast<double>(fabric.host(w).link_drops());
  }
  // Every slot completes once and its result leaves as one copy per group
  // member; every update but the slot's last is consumed by the program
  // (reported as a program drop).
  const double results = static_cast<double>(chunks) * mp.iterations;
  const double updates = static_cast<double>(kWorkers) * chunks * mp.iterations;
  const double consumed = updates - results;
  r.check(snap.value("adcp.drops.program") == consumed,
          "program consumed " + std::to_string(snap.value("adcp.drops.program")) +
              " updates, expected " + std::to_string(consumed));
  ledger(r, host_tx, host_rx, 0.0, results * (kWorkers - 1), 0.0, link, 0.0, switch_drops,
         consumed);
  double batches = 0;
  for (std::uint32_t c = 0; c < cfg.central_pipeline_count; ++c) {
    pipeline::Pipeline& pipe = sw.central_pipe(c);
    for (std::uint32_t s = 0; s < pipe.stage_count(); ++s) {
      if (mat::ArrayMatEngine* e = pipe.stage(s).array_engine()) {
        batches += static_cast<double>(e->batches());
      }
    }
  }
  r.layer["mat.array_batches"] = batches;
  r.layer["mat.bytes_touched"] = static_cast<double>(mat::StateAccounting::touched_bytes());
  r.layer["packet.parse_calls"] = snap.value("adcp.rx.packets");
  r.digest = snapshot_digest(snap, r.events, r.final_time, r.cct_us);
  if (mode.on_spans) mode.on_spans(ph, {&reg.spans()}, {});
  ph.report_done();
  return r;
}

RunResult run_workload(const Options& opt, const RunMode& mode) {
  if (opt.workload == "ft4_incast_adcp") return run_incast(opt, mode, false);
  if (opt.workload == "ls_churn_rmt") return run_churn(opt, mode);
  if (opt.workload == "inc_agg_adcp") return run_aggregation(opt, mode);
  return run_incast(opt, mode, true);  // ft8_full_rtc
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Layer metrics every workload prints (zero where a layer is idle).
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kNames = {
      "pdes.busy_ms", "pdes.horizon_wait_ms", "pdes.busy_frac", "pdes.epochs",
      "pdes.messages", "pdes.mailbox_occ_p99", "mat.array_batches", "mat.versioned_hits",
      "mat.staleness_misses", "ctrl.update_packets", "ctrl.installs",
      "ctrl.batch_latency_mean_us", "ctrl.batch_latency_max_us", "ctrl.hit_rate",
      "telem.stamps", "telem.stamp_bytes", "telem.postcards", "telem.reports",
      "fastpath.hits", "fastpath.misses", "fastpath.hit_rate", "fastpath.invalidations",
      "fastpath.evictions", "topo.fib_lookups", "topo.fib_lookup_ns", "topo.trunk_pkts",
      "topo.hops_p50", "topo.ecmp_imbalance", "coflow.tracker_mismatch"};
  return kNames;
}

void print_json(const std::map<std::string, double>& m, bool ok,
                const std::vector<std::string>& failures) {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(failures[i]) + "\"";
  }
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += first ? "\"" : ",\"";
    out += k;
    out += "\":";
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {ft4_incast_adcp|ls_churn_rmt|inc_agg_adcp|ft8_full_rtc}"
               " --seed N [--scale X] [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--scale") {
      opt.scale = std::stod(argv[++i]);
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload != "ft4_incast_adcp" && opt.workload != "ls_churn_rmt" &&
      opt.workload != "inc_agg_adcp" && opt.workload != "ft8_full_rtc") {
    return usage(argv[0]);
  }

  std::map<std::string, double> m;
  std::vector<std::string> failures;
  HostSpans hs;
  Capture capture(opt.workload == "ft8_full_rtc" ? 128 : 18, 32);
  RunMode untraced;
  if (opt.traced()) {
    untraced.capture = &capture;
    untraced.hs = &hs;
  }
  RunResult r = run_workload(opt, untraced);
  const double run_ns = r.phases.run_end - r.phases.setup_end;
  m["setup_s"] = (r.phases.setup_end - r.phases.t0) / 1e9;
  m["pkts_per_s"] = run_ns > 0 ? static_cast<double>(r.delivered) / (run_ns / 1e9) : 0.0;
  m["sim_cct_p50_us"] = quantile(r.cct_us, 0.5);
  m["sim_cct_p90_us"] = quantile(r.cct_us, 0.9);
  m["sim.digest"] = static_cast<double>(r.digest);
  m["attempted"] = static_cast<double>(r.attempted);
  m["lost"] = static_cast<double>(r.lost);
  failures = r.failures;

  if (opt.traced()) {
    r.phases.record(hs, "untraced.");
    m.insert(r.layer.begin(), r.layer.end());
    for (const std::string& name : layer_names()) m.emplace(name, 0.0);
    m["sim.events"] = static_cast<double>(r.events);
    m["sim.events_per_pkt"] =
        r.delivered > 0 ? static_cast<double>(r.events) / static_cast<double>(r.delivered) : 0.0;
    m["sim.ns_per_event"] =
        r.events > 0 ? (r.phases.run_end - r.phases.inject_end) / static_cast<double>(r.events)
                     : 0.0;
    m["phase.setup_ms"] = (r.phases.setup_end - r.phases.t0) / 1e6;
    m["phase.inject_ms"] = (r.phases.inject_end - r.phases.setup_end) / 1e6;
    m["phase.run_ms"] = (r.phases.run_end - r.phases.inject_end) / 1e6;
    m["phase.report_ms"] = (r.phases.report_end - r.phases.run_end) / 1e6;

    replay_layers(capture.all(), m, hs);
    estimate_shares(m);

    // The traced run: same seed, span sampling armed. Its spans are read,
    // and written to the Perfetto file, before its fabric is torn down.
    RunMode traced;
    traced.trace.sample_every = 8;
    // The sharded fabric has ~200 shard buffers; keep their total small.
    traced.trace.ring_capacity = opt.workload == "ft8_full_rtc" ? 1u << 13 : 1u << 18;
    bool written = false;
    traced.on_spans = [&](const Phases& ph, const std::vector<const sim::SpanBuffer*>& spans,
                          const std::vector<const sim::SpanBuffer*>& pdes) {
      ph.record(hs, "traced.");
      analyze_spans(spans, m);
      written = write_perfetto(opt.trace_out, spans, pdes, hs);
    };
    const RunResult t = run_workload(opt, traced);
    for (const std::string& f : t.failures) failures.push_back("traced: " + f);
    if (t.digest != r.digest) failures.push_back("tracing changed the simulation digest");
    if (!written) failures.push_back("cannot write " + opt.trace_out);
    const double traced_ns = t.phases.run_end - t.phases.setup_end;
    m["trace.pkts_per_s"] =
        traced_ns > 0 ? static_cast<double>(t.delivered) / (traced_ns / 1e9) : 0.0;
  }
  m["peak_rss_mb"] = peak_rss_mb();
  print_json(m, failures.empty(), failures);
  return failures.empty() ? 0 : 1;
}
