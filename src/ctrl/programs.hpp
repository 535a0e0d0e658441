// Data-plane programs for the churn experiments: routing (identical to the
// builder's tier programs) plus a versioned-store query path.
//
// A kChurnQuery carries its key in kIncWorkerId. The edge switch that owns
// the requester consults its mat::VersionedStore:
//
//   hit          ->  opcode becomes kChurnHit, src/dst swap, and the reply
//                    routes straight back to the requester — the in-network
//                    answer path.
//   miss/pending ->  the query continues to its IP destination (the backing
//                    store host), whose ctrl::ControlAgent answers with
//                    kChurnMiss and feeds its popularity tracking.
//
// Everything else — background coflows, kCtrlUpdate batches riding to the
// management port, replies in transit — takes the ordinary TTL-decrement +
// FIB route, so these programs compose with any fabric traffic.
//
// The architectural contrast the churn bench measures lives in how the
// store is provisioned, not in the program text: an ADCP switch runs the
// query path in its central pipelines against ONE global store (full
// capacity), while an RMT switch replicates the entries into every ingress
// pipeline — modeled as a single shared store whose capacity is divided by
// pipeline_count (ctrl::ControlPlane does the division).
#pragma once

#include <memory>

#include "core/config.hpp"
#include "core/program.hpp"
#include "mat/versioned.hpp"
#include "rmt/config.hpp"
#include "rmt/program.hpp"
#include "topo/routing.hpp"

namespace adcp::ctrl {

/// RMT: query dispatch + routing in stage 0 of every ingress pipeline, all
/// pipelines sharing `store` (per-pipeline replication is charged to the
/// store's capacity by the caller). `store` must outlive the switch.
rmt::RmtProgram churn_program(const rmt::RmtConfig& config,
                              std::shared_ptr<const topo::ForwardingTable> fib,
                              mat::VersionedStore* store);

/// ADCP: query dispatch + routing in stage 0 of every central pipeline
/// against the one global store (flow-hash placement, like the builder's
/// routing program).
core::AdcpProgram churn_program(const core::AdcpConfig& config,
                                std::shared_ptr<const topo::ForwardingTable> fib,
                                mat::VersionedStore* store);

}  // namespace adcp::ctrl
