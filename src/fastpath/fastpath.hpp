// Per-switch flow fast path: flow-signature caching with epoch-safe
// invalidation (DESIGN.md §13).
//
// Steady-state fabric traffic is massively flow-repetitive: every hop of
// every packet re-runs the full parse graph, the FIB/ECMP walk, and the
// routing program, only to produce the same verdict as the previous packet
// of the same flow. The fast path memoizes that verdict in a fixed-size,
// allocation-free, direct-mapped cache keyed by the flow signature
// (5-tuple hash + ingress port + query class). A hit skips parse, table
// walk, and deparse entirely and takes a copy-and-patch path instead: the
// wire bytes are copied into a pooled packet and only the per-packet
// fields the program would have rewritten (TTL, churn opcode, IP swap) are
// patched in place.
//
// Correctness contract — the hard part and the point:
//
//  * An entry is only usable while nothing that fed the memoized verdict
//    has moved. Entries carry a generation stamp; `sync()` pulls the FIB
//    version counter and the `mat::VersionedStore` mutation counter before
//    every probe and bulk-invalidates on any change (commit flips and
//    kCtrlUpdate installs/evicts both bump the mutation counter, FIB edits
//    bump the version counter).
//  * Store-dependent behavior is never memoized: on a churn-query hit the
//    switch still performs the `VersionedStore::lookup` *live*, at exactly
//    the event where the slow path would have run it, so ctrl.* counters
//    and reply semantics are identical with the cache on. The entry only
//    memoizes the two possible egress verdicts (forward vs served).
//  * `inspect()` admits a packet to the fast path only when its bytes are
//    exactly what the standard deparser would regenerate (constant-field
//    guards), which is what makes copy-and-patch ≡ parse+deparse.
//  * Pipeline timing is replayed, not skipped: the entry stores the
//    Transit template measured when it was filled and the switch advances
//    the pipeline clock with it, so spans and backpressure are
//    bit-identical to the slow path.
//
// The cache never appears in the switch's metric registry — snapshots must
// be byte-identical cache-on vs cache-off (that equality is CI-gated).
// Stats are plain counters exported on demand via
// topo::Network::export_fastpath into a reporting registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mat/versioned.hpp"
#include "packet/deparser.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"
#include "packet/pool.hpp"

namespace adcp::fastpath {

/// Fixed eth+IPv4+UDP+INC header prefix every INC packet carries.
inline constexpr std::size_t kIncHeaderBytes = 58;

/// Decoded view of the header fields the fast path needs. Filled by
/// inspect(); all values are straight wire reads.
struct WireView {
  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  std::uint16_t udp_src = 0;
  std::uint16_t udp_dst = 0;
  std::uint8_t ttl = 0;
  std::uint8_t opcode = 0;
  std::uint8_t elem_count = 0;
  std::uint32_t worker_id = 0;
  std::uint16_t coflow_id = 0;
  std::uint64_t flow_id = 0;
};

/// Admission guard: true iff `pkt` is an INC packet whose bytes are exactly
/// what the standard deparser would emit for its own parse (constant
/// fields hold their canonical values), so a byte copy is equivalent to
/// parse+deparse. `parse_max_elems` is the switch parse graph's array
/// width (0 = scalar-only graph, which leaves elements in the payload and
/// accepts any element count).
bool inspect(const packet::Packet& pkt, std::size_t parse_max_elems,
             WireView& out);

/// What the cached verdict rewrites in the copied bytes.
enum class Patch : std::uint8_t {
  kForward,      ///< routing program: TTL decrement only
  kServed,       ///< churn hit: TTL + opcode=kChurnHit + IP src/dst swap
  kPassthrough,  ///< edge pipeline with no installed program: byte copy
};

/// Pipeline-cost template replayed on a hit (measured at fill time from
/// the real Transit of the packet that filled the entry).
struct Timing {
  std::uint64_t cycles = 0;        ///< summed per-stage service (latency)
  std::uint64_t max_service = 1;   ///< widest stage (occupancy/backpressure)
  std::uint64_t stall_cycles = 0;
  std::uint64_t work = 0;          ///< RTC: the run program's cycle count
};

/// What a program vouches about itself so the switch may arm the fast
/// path. Filled by the program factories (topo/ctrl); a default
/// (route-less) contract keeps the fast path off.
struct FastpathContract {
  using RouteFn = std::function<packet::PortId(
      std::uint32_t ip_dst, std::uint32_t ip_src, std::uint16_t udp_src,
      std::uint16_t udp_dst)>;

  /// The FIB decision the program would make for a given 5-tuple (used at
  /// fill time to precompute both churn branches, and as a cross-check
  /// against the slow-path verdict before memoizing).
  RouteFn route;
  /// Bulk-invalidate when this moves (topo::ForwardingTable::version()).
  const std::uint64_t* fib_version = nullptr;
  /// Churn programs: the versioned store. Queries are looked up live on
  /// every hit; the store's mutation counter also feeds invalidation.
  mat::VersionedStore* store = nullptr;
  /// True when the program installs nothing on edge pipelines (RMT egress,
  /// ADCP edge ingress/egress), making them pure static passthroughs.
  bool passthrough_edges = false;
  /// The parse graph's INC array width (standard_parse_graph argument):
  /// inspect() mirrors the parser's lane-budget rejection with it.
  std::size_t parse_max_elems = 0;

  [[nodiscard]] bool valid() const { return static_cast<bool>(route); }
};

struct FlowCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< entries dropped by epoch flips
  std::uint64_t evictions = 0;      ///< entries displaced by collisions
  std::uint64_t occupancy = 0;      ///< live entries right now
};

/// Direct-mapped, power-of-two, allocation-free after construction.
class FlowCache {
 public:
  struct Entry {
    std::uint32_t ip_src = 0;
    std::uint32_t ip_dst = 0;
    std::uint16_t udp_src = 0;
    std::uint16_t udp_dst = 0;
    packet::PortId ingress_port = 0;
    std::uint8_t query = 0;  ///< entry class: churn query vs plain forward
    std::uint8_t valid = 0;
    packet::PortId forward_port = 0;  ///< verdict for forward / query-miss
    packet::PortId served_port = 0;   ///< verdict for query-hit (IPs swapped)
    Timing timing;
    std::uint64_t gen = 0;
  };

  explicit FlowCache(std::uint32_t entries);

  /// Pull-based epoch sync: bulk-invalidates when the FIB version or the
  /// store mutation counter moved since the last call. Call before probes.
  void sync(const FastpathContract& c);

  /// Returns the entry for this signature, counting a hit, or nullptr
  /// (counting a miss). The caller still owns the TTL check.
  Entry* probe(const WireView& w, packet::PortId ingress_port, bool query);

  /// Installs (or displaces) the slot for this signature.
  Entry& fill(const WireView& w, packet::PortId ingress_port, bool query,
              packet::PortId forward_port, packet::PortId served_port,
              const Timing& timing);

  void invalidate_all();

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] const FlowCacheStats& stats() const { return stats_; }

 private:
  static std::uint64_t signature(const WireView& w,
                                 packet::PortId ingress_port, bool query);

  std::vector<Entry> slots_;
  std::uint64_t mask_ = 0;
  std::uint64_t gen_ = 1;
  std::uint64_t fib_seen_ = 0;
  std::uint64_t store_seen_ = 0;
  FlowCacheStats stats_;
};

/// The copy-and-patch: Pool::copy_patch writing `patch` at `deparser`'s
/// patch-plan sites. kServed also clears the cached ECMP flow hash: the
/// 5-tuple changed, so downstream hops must recompute.
packet::Packet copy_patch(const packet::Deparser& deparser, packet::Pool& pool,
                          packet::Packet original, const WireView& w, Patch patch);

}  // namespace adcp::fastpath
