// Packet Header Vector.
//
// In RMT the PHV is the register file passed between stages; its elements
// are scalars extracted from the packet. The ADCP extension (§3.2 of the
// paper) is that a PHV may additionally carry *arrays* — e.g. the k keys of
// a key/value batch — so that a stage's match-action units can match all
// elements at once instead of one scalar per packet.
#pragma once

#include <array>
#include <bitset>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "packet/fields.hpp"

namespace adcp::packet {

static_assert(kMaxScalarFields == 64, "the PHV write mask is one 64-bit word");

/// The register file flowing through a pipeline. Value-semantic. It also
/// records its writes since mark_clean() for Deparser::rewrite; equality
/// ignores that record.
class Phv {
 public:
  /// Scalars set or cleared (bit i = field i); any mutable array() access.
  struct Writes {
    std::uint64_t scalars = 0;
    bool arrays = false;
  };

  /// Sets scalar field `id`.
  void set(FieldId id, std::uint64_t value) {
    assert(id < kMaxScalarFields);
    scalars_[id] = value;
    valid_[id] = true;
    writes_.scalars |= std::uint64_t{1} << id;
  }

  /// Reads scalar field `id`; the field must be valid.
  [[nodiscard]] std::uint64_t get(FieldId id) const {
    assert(id < kMaxScalarFields && valid_[id]);
    return scalars_[id];
  }

  /// Reads scalar field `id`, or `fallback` if it was never set.
  [[nodiscard]] std::uint64_t get_or(FieldId id, std::uint64_t fallback) const {
    assert(id < kMaxScalarFields);
    return valid_[id] ? scalars_[id] : fallback;
  }

  [[nodiscard]] bool has(FieldId id) const {
    assert(id < kMaxScalarFields);
    return valid_[id];
  }

  /// Invalidates a scalar field.
  void clear(FieldId id) {
    assert(id < kMaxScalarFields);
    valid_[id] = false;
    writes_.scalars |= std::uint64_t{1} << id;
  }

  /// Mutable access to array field `id` (created empty on first touch);
  /// recorded as an array write.
  std::vector<std::uint64_t>& array(ArrayFieldId id) {
    assert(id < kMaxArrayFields);
    writes_.arrays = true;
    return arrays_[id];
  }

  /// Read-only view of array field `id`.
  [[nodiscard]] std::span<const std::uint64_t> array(ArrayFieldId id) const {
    assert(id < kMaxArrayFields);
    return arrays_[id];
  }

  /// Valid scalars as a mask (bit i = field i).
  [[nodiscard]] std::uint64_t valid_mask() const { return valid_.to_ullong(); }

  [[nodiscard]] const Writes& writes() const { return writes_; }
  /// Forgets the write record; the parser calls it when it finishes.
  void mark_clean() { writes_ = {}; }

  /// Invalidates every scalar and empties every array while keeping the
  /// arrays' heap capacity — lets a hot loop reuse one PHV per packet
  /// without reallocating (scalar *values* are left stale; get() guards on
  /// validity).
  void reset() {
    valid_.reset();
    for (auto& a : arrays_) a.clear();
    mark_clean();
  }

  bool operator==(const Phv& o) const {
    return scalars_ == o.scalars_ && valid_ == o.valid_ && arrays_ == o.arrays_;
  }

 private:
  std::array<std::uint64_t, kMaxScalarFields> scalars_{};
  std::bitset<kMaxScalarFields> valid_;
  std::array<std::vector<std::uint64_t>, kMaxArrayFields> arrays_;
  Writes writes_;
};

}  // namespace adcp::packet
