// The classic RMT switch of the paper's Figure 1, as a discrete-event model.
//
// Data path: RX serialization → parser → ingress pipeline (shared by the
// port's group) → traffic manager (output-buffered shared memory, one queue
// per egress port) → egress pipeline (re-parse, egress stages) → deparse →
// TX serialization. Plus the recirculation path: the only RMT mechanism for
// re-shuffling a flow to a different pipeline, at the cost of a second full
// pass and recirculation-port bandwidth (paper §1, issue 1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hop/switch_shell.hpp"
#include "pipeline/pipeline.hpp"
#include "rmt/config.hpp"
#include "rmt/program.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::rmt {

/// The shell's counters plus the recirculation path's.
struct RmtStats : hop::HopStats {
  std::uint64_t recirculations = 0;
  std::uint64_t recirc_bytes = 0;
  std::uint64_t recirc_limit_drops = 0;
};

/// Registry-backed counters of the recirculation path (the shared ones
/// live in hop::HopMetrics).
struct RmtMetrics {
  explicit RmtMetrics(const sim::Scope& s)
      : recirc_limit_drops(s.counter("drops.recirc_limit")),
        recirculations(s.counter("recirc.passes")),
        recirc_bytes(s.counter("recirc.bytes")) {}

  sim::Counter& recirc_limit_drops;
  sim::Counter& recirculations;
  sim::Counter& recirc_bytes;
};

/// A simulated RMT switch. Construct, install a program, attach a Fabric
/// (net::Fabric wires hosts and the TX handler), then drive the Simulator.
class RmtSwitch final : public hop::SwitchShell {
 public:
  /// `scope` names this switch in a shared MetricRegistry (sub-components
  /// register as "<scope>.tm", "<scope>.pool"); detached (the default)
  /// falls back to a private registry under "rmt".
  RmtSwitch(sim::Simulator& sim, const RmtConfig& config, sim::Scope scope = {});

  /// Installs `program`: builds parser/deparser and runs the setup hooks on
  /// every ingress and egress pipeline. Call before injecting traffic.
  void load_program(RmtProgram program);

  [[nodiscard]] const RmtConfig& config() const { return config_; }
  [[nodiscard]] RmtStats stats() const {
    return {SwitchShell::stats(), metrics_.recirculations.value(),
            metrics_.recirc_bytes.value(), metrics_.recirc_limit_drops.value()};
  }
  [[nodiscard]] const tm::TrafficManager& traffic_manager() const { return *tm_; }
  pipeline::Pipeline& ingress_pipe(std::uint32_t i) { return ingress_pipes_.at(i); }
  pipeline::Pipeline& egress_pipe(std::uint32_t i) { return egress_pipes_.at(i); }

 private:
  /// RX done (and recirculation): the verdict-cache probe, else a parse
  /// and a full ingress pass.
  void on_rx(packet::Packet pkt) override;
  void on_tx_done(packet::PortId port) override { try_drain(port); }
  void after_ingress_fast(hop::Slot* s);
  void after_ingress(hop::Slot* s);
  /// Unicast TM admission (slow and fast ingress verdicts alike).
  void enqueue(packet::Packet out);
  void try_drain(packet::PortId port);
  void drain(packet::PortId port);
  /// The egress pass of a dequeued packet: static passthrough or parse +
  /// egress stages. False after a parse drop.
  bool enter_egress(packet::Packet& pkt, packet::PortId port);
  void after_egress(hop::Slot* s);
  void recirculate(packet::Packet pkt, std::uint32_t pipe);

  RmtConfig config_;
  RmtMetrics metrics_;
  std::vector<pipeline::Pipeline> ingress_pipes_;
  std::vector<pipeline::Pipeline> egress_pipes_;
  std::optional<tm::TrafficManager> tm_;

  std::vector<sim::Time> recirc_free_;  // per pipeline
  std::vector<bool> drain_pending_;     // per port
};

}  // namespace adcp::rmt
