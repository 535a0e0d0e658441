// Shared bench exporter: every bench_* binary funnels its headline numbers
// into a sim::MetricRegistry and emits one BENCH_<name>.json through this
// helper, so all reports carry the same adcp-metrics-v1 schema
// (see DESIGN.md "Observability") and can be diffed/aggregated by one
// consumer. Human-readable tables stay on stdout; this is the
// machine-readable half.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#ifdef __linux__
#include <unistd.h>
#endif

#include "sim/metrics.hpp"

// First 8 hex digits of the commit the build was configured from, injected
// by bench/CMakeLists.txt ("unknown" outside a git checkout or in ad-hoc
// compiles of this header). Configure-time value, so it names the commit
// CMake last saw: CI reconfigures every run, local incremental builds may
// lag by one.
#ifndef ADCP_GIT_SHA
#define ADCP_GIT_SHA "unknown"
#endif

namespace adcp::bench {

/// FNV-1a over `s`: the benches' fingerprint for byte-equality checks of
/// snapshot and trace exports.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Resident set size right now, from /proc/self/statm (0 off Linux).
/// Register-file backing stores are >128 KB so glibc mmaps them; RSS
/// deltas around a Network's lifetime are therefore honest in both
/// directions (freed memory actually leaves the process).
inline double rss_bytes_now() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long long total = 0;
  long long resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

/// Writes an already-assembled snapshot as BENCH_<name>.json (or `path`
/// when given) tagged with the bench name and, next to it, the commit as a
/// top-level "git_sha" string. Snapshot::to_json's own bytes stay as the
/// pins hash them. Returns false (and says so) if the file cannot be
/// written — benches keep their stdout report either way. Use this
/// overload when the report merges several registries (e.g. the parallel
/// sweep folding the engine's PDES self-profile in).
inline bool write_report(const sim::Snapshot& snap, const std::string& name,
                         std::string path = {}) {
  if (path.empty()) path = "BENCH_" + name + ".json";
  std::string json = snap.to_json(name);
  json.insert(json.find(",\"metrics\":"), ",\"git_sha\":\"" ADCP_GIT_SHA "\"");
  std::ofstream f(path);
  const bool ok = f && (f << json);
  if (ok) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return ok;
}

/// Snapshots `registry` and writes it via the overload above. Every report
/// that funnels through here records config.hardware_threads, so ns/op and
/// speedup figures can be judged against the cores the run actually had
/// (callers assembling a merged Snapshot set the gauge themselves).
inline bool write_report(sim::MetricRegistry& registry, const std::string& name,
                         std::string path = {}) {
  registry.gauge("config.hardware_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  return write_report(registry.snapshot(), name, std::move(path));
}

}  // namespace adcp::bench
