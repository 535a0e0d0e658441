// Programmable deparser: rebuilds wire bytes from a PHV.
//
// Mirrors the parser: an ordered list of emit operations serializes scalar
// and array fields back into a packet, then the unparsed payload (if any)
// is appended verbatim.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "packet/packet.hpp"
#include "packet/phv.hpp"
#include "packet/pool.hpp"

namespace adcp::packet {

/// Emits `width` big-endian bytes from scalar `src` (0 if the field is
/// invalid — headers the program never touched keep their default).
struct EmitScalar {
  FieldId src = 0;
  std::size_t width = 0;
};

/// Emits a literal constant (for fixed header bytes the PHV does not carry).
struct EmitConst {
  std::uint64_t value = 0;
  std::size_t width = 0;
};

/// Emits every element of one or more parallel array fields, interleaved
/// per element (lane order = byte order within the element).
struct EmitArray {
  struct Lane {
    ArrayFieldId src = 0;
    std::size_t width = 0;
  };
  std::vector<Lane> lanes;
};

using EmitOp = std::variant<EmitScalar, EmitConst, EmitArray>;

/// Serializes PHVs into packets according to an emit program; its patch plan
/// is the wire site of each scalar and constant before the first array.
class Deparser {
 public:
  explicit Deparser(std::vector<EmitOp> ops);

  /// Builds the header bytes from `phv`, then appends
  /// `original.data` bytes from `payload_offset` onward. Metadata fields of
  /// `original` are preserved (minus any fields the caller overrides).
  [[nodiscard]] Packet deparse(const Phv& phv, const Packet& original,
                               std::size_t payload_offset) const {
    Packet out;
    deparse_into(phv, original, payload_offset, out);
    return out;
  }

  /// Same, but serializes into `out` (contents discarded, buffer capacity
  /// kept). `out` is typically a pool-recycled packet, making steady-state
  /// deparsing allocation-free. `out` must not alias `original`.
  void deparse_into(const Phv& phv, const Packet& original,
                    std::size_t payload_offset, Packet& out) const;

  /// The switch's write-back: deparse_into's result in a pooled packet,
  /// `original` released. Patches if can_patch(), else deparses in full.
  [[nodiscard]] Packet rewrite(const Phv& phv, Packet original,
                               std::size_t payload_offset, Pool& pool) const;

  /// True when no array was touched, the header is `payload_offset` bytes,
  /// every planned scalar is valid and `original`'s constants are canonical.
  [[nodiscard]] bool can_patch(const Phv& phv, const Packet& original,
                               std::size_t payload_offset) const;

  /// Writes `value` over the wire bytes of planned scalar `id`.
  void poke(Buffer& b, FieldId id, std::uint64_t value) const {
    assert(patchable_ && (fixed_ >> id & 1) != 0);
    b.write(at_[id].offset, at_[id].width, value);
  }

 private:
  struct Site { std::uint32_t offset = 0, width = 0; };
  /// Header bytes the ops emit for `phv` (arrays sized by their lanes).
  [[nodiscard]] std::size_t header_bytes(const Phv& phv) const;

  std::vector<EmitOp> ops_;
  std::array<Site, kMaxScalarFields> at_{};  ///< the plan: scalars' wire sites
  std::uint64_t fixed_ = 0;                  ///< the scalars in at_
  std::vector<std::pair<Site, std::uint64_t>> consts_;  ///< EmitConst sites
  std::vector<std::size_t> arrays_;  ///< indices of the EmitArray ops
  std::size_t scalar_bytes_ = 0;     ///< every scalar and constant
  bool patchable_ = true;  ///< no scalar repeats, none follows an array
};

/// The emit ops of the fixed Ethernet/IPv4/UDP/INC header prefix, up to
/// (not including) the INC elements.
std::vector<EmitOp> inc_header_ops();

/// Deparser matching `standard_parse_graph()`: the INC header prefix, then
/// key/value arrays. Length fields are recomputed from the array size.
Deparser standard_deparser();

}  // namespace adcp::packet
