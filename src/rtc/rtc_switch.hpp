// The run-to-completion switch model (BMv2 / Trio / dRMT class).
//
// Data path: RX serialization → central dispatch queue → first available
// processor runs the program to completion over SHARED state → TX
// serialization. Latency is program-dependent and variable (queueing at
// the dispatcher); throughput caps at the processor pool, not at a
// pipeline clock.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hop/contract.hpp"
#include "hop/switch_shell.hpp"
#include "mat/array_engine.hpp"
#include "mat/register.hpp"
#include "rtc/config.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "tm/queue.hpp"

namespace adcp::rtc {

/// Lane width of the default RTC parse graph (fast-path admission mirrors
/// the parser's lane-budget rejection with it).
inline constexpr std::size_t kRtcParseLanes = 64;

/// The memory every processor shares — registers for stateful programs and
/// an array engine for batch operations. Because it is one pool (not
/// per-pipeline), any coflow converges here by construction; the cost is
/// the per-access cycles in RtcConfig.
struct SharedState {
  explicit SharedState(bool eager = false)
      : registers(1 << 16, eager), engine(mat::ArrayEngineConfig{.eager_state = eager}) {}

  mat::RegisterFile registers;
  mat::ArrayMatEngine engine;
};

/// A run-to-completion program: transforms the PHV against the shared
/// state and returns the processor cycles consumed (memory accesses are
/// charged by the program via config.memory_access_cycles). Forwarding
/// metadata fields steer the packet exactly as on the other switches.
using RtcProgramFn =
    std::function<std::uint64_t(packet::Phv&, SharedState&, const RtcConfig&)>;

/// A complete RTC program. Its fastpath contract may be provided only when
/// `run`'s verdict AND cycle cost are functions of the flow signature
/// alone.
struct RtcProgram : hop::Program {
  /// No pipeline lane budget binds a processor: the widest standard graph.
  RtcProgram() : hop::Program(kRtcParseLanes) {}

  RtcProgramFn run;  ///< REQUIRED
};

/// The shell's counters plus the dispatch queue's.
struct RtcStats : hop::HopStats {
  std::uint64_t queue_drops = 0;  ///< dispatch queue overflow
};

/// Registry-backed RTC-specific counters (the shared ones live in
/// hop::HopMetrics); "drops.dispatch_queue" is the RTC-specific reason.
struct RtcMetrics {
  explicit RtcMetrics(const sim::Scope& s)
      : queue_drops(s.counter("drops.dispatch_queue")),
        latency(s.histogram("latency.residence_ps")) {}

  sim::Counter& queue_drops;
  sim::Histogram& latency;
};

/// A simulated run-to-completion switch.
class RtcSwitch final : public hop::SwitchShell {
 public:
  /// `scope` names this switch in a shared MetricRegistry; detached (the
  /// default) falls back to a private registry under "rtc".
  RtcSwitch(sim::Simulator& sim, const RtcConfig& config, sim::Scope scope = {});

  void load_program(RtcProgram program);

  [[nodiscard]] const RtcConfig& config() const { return config_; }
  [[nodiscard]] RtcStats stats() const {
    return {SwitchShell::stats(), metrics_.queue_drops.value()};
  }
  SharedState& shared() { return shared_; }
  /// Per-packet residence time (RX done -> TX start), picoseconds.
  [[nodiscard]] const sim::Histogram& latency() const { return metrics_.latency; }

 private:
  /// RX done: admission into the central dispatch queue.
  void on_rx(packet::Packet pkt) override;
  void on_tx_done(packet::PortId /*port*/) override {}
  /// Processor busy time for a run of `work` cycles.
  [[nodiscard]] sim::Time busy(std::uint64_t work) const {
    return (work + config_.dispatch_cycles) * sim::period_from_ghz(config_.clock_ghz);
  }
  void try_dispatch();
  /// Run completion: the slow path's verdict (the packet's RX-done time,
  /// meta.arrival, dates its residence).
  void finish(hop::Slot* s);
  void finish_fast(hop::Slot* s);

  RtcConfig config_;
  RtcMetrics metrics_;
  RtcProgramFn run_;
  SharedState shared_;

  std::vector<sim::Time> proc_free_;  // per processor
  tm::PacketQueue dispatch_queue_;
  bool dispatch_pending_ = false;
};

}  // namespace adcp::rtc
