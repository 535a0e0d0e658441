// Program model for the RMT switch.
//
// An RMT program supplies the shared program parts (hop::Program: parse
// graph, deparser, fast-path contract) and hooks that configure each
// pipeline's stages (tables, registers, stage programs).
// During processing, programs steer packets by writing intrinsic metadata
// fields: kMetaEgressPort / kMetaMulticastGroup for forwarding, kMetaDrop,
// and kMetaRecirc to request a recirculation pass.
#pragma once

#include <functional>

#include "hop/contract.hpp"
#include "pipeline/pipeline.hpp"

namespace adcp::rmt {

/// Configures one pipeline's stages at install time. `index` is the
/// pipeline number; programs can give different pipelines different tables.
using PipelineSetup = std::function<void(pipeline::Pipeline& pipe, std::uint32_t index)>;

/// A complete RMT data-plane program.
struct RmtProgram : hop::Program {
  /// RMT parsers deliver scalars only: the default graph extracts no INC
  /// elements and leaves them in the payload (the paper's scalar
  /// restriction).
  RmtProgram() : hop::Program(0) {}

  PipelineSetup setup_ingress;  ///< optional; default leaves stages empty
  PipelineSetup setup_egress;   ///< optional
};

}  // namespace adcp::rmt
