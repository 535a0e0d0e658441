// The switch contract every model shares (DESIGN.md §15): the shell's
// config fields and the program parts the shell installs. RmtConfig,
// AdcpConfig and RtcConfig derive from ShellConfig; RmtProgram, AdcpProgram
// and RtcProgram derive from Program and add only what their architecture
// adds. Kept apart from switch_shell.hpp so config headers stay light.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fastpath/fastpath.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"

namespace adcp::hop {

/// The port geometry and fast-path size every switch model has.
struct ShellConfig {
  std::uint32_t port_count = 16;
  double port_gbps = 100.0;
  /// Flow fast-path verdict cache entries (0 disables; rounded up to a
  /// power of two). Armed only when the installed program also provides a
  /// fastpath contract (DESIGN.md §13); edge passthrough does not need it.
  std::uint32_t fastpath_entries = 0;
};

/// The program parts the shell installs. Graphs are carried by shared_ptr:
/// a program owns fresh ones by default, and topo::SwitchTemplate shares
/// one graph across identical switches by assigning its own pointers.
struct Program {
  std::shared_ptr<const packet::ParseGraph> parse;
  std::shared_ptr<const packet::Deparser> deparse;
  /// What this program vouches for the flow fast path (DESIGN.md §13). A
  /// default (route-less) contract keeps the fast path disarmed.
  fastpath::FastpathContract fastpath;

 protected:
  /// The standard parse graph extracting up to `parse_lanes` INC elements,
  /// and the standard deparser: each model passes its own lane width.
  explicit Program(std::size_t parse_lanes)
      : parse(std::make_shared<const packet::ParseGraph>(
            packet::standard_parse_graph(parse_lanes))),
        deparse(std::make_shared<const packet::Deparser>(packet::standard_deparser())) {}
};

}  // namespace adcp::hop
