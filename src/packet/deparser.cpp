#include "packet/deparser.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "packet/fields.hpp"
#include "packet/headers.hpp"

namespace adcp::packet {

namespace {
/// Keeps PHV-derived metadata coherent; both write-backs end with it.
void stamp_meta(const Phv& phv, Metadata& meta) {
  if (phv.has(fields::kIncFlowId)) meta.flow_id = phv.get(fields::kIncFlowId);
  if (phv.has(fields::kIncCoflowId)) meta.coflow_id = phv.get(fields::kIncCoflowId);
  if (phv.has(fields::kMetaFlowHash)) meta.flow_hash = phv.get(fields::kMetaFlowHash);
  if (phv.get_or(fields::kMetaDrop, 0) != 0) meta.drop = true;
}
}  // namespace

Deparser::Deparser(std::vector<EmitOp> ops) : ops_(std::move(ops)) {
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (const auto* s = std::get_if<EmitScalar>(&ops_[i])) {
      patchable_ = patchable_ && arrays_.empty() && (fixed_ >> s->src & 1) == 0;
      fixed_ |= std::uint64_t{1} << s->src;
      at_[s->src] = {at, static_cast<std::uint32_t>(s->width)};
      at += at_[s->src].width;
    } else if (const auto* c = std::get_if<EmitConst>(&ops_[i])) {
      patchable_ = patchable_ && arrays_.empty();
      consts_.push_back({{at, static_cast<std::uint32_t>(c->width)}, c->value});
      at += consts_.back().first.width;
    } else {
      arrays_.push_back(i);
    }
  }
  scalar_bytes_ = at;
}

std::size_t Deparser::header_bytes(const Phv& phv) const {
  std::size_t total = scalar_bytes_;
  for (const std::size_t i : arrays_) {
    std::size_t count = 0;
    std::size_t element_bytes = 0;
    for (const EmitArray::Lane& lane : std::get<EmitArray>(ops_[i]).lanes) {
      count = std::max(count, phv.array(lane.src).size());
      element_bytes += lane.width;
    }
    total += count * element_bytes;
  }
  return total;
}

void Deparser::deparse_into(const Phv& phv, const Packet& original,
                            std::size_t payload_offset, Packet& out) const {
  assert(&out != &original);
  out.data.clear();
  out.meta = original.meta;
  Buffer& b = out.data;

  // Size first, then one resize and in-place writes: emitting through
  // append() costs a vector resize per field, which dominates deparse time.
  const std::size_t total = header_bytes(phv);
  const std::size_t payload =
      payload_offset < original.data.size() ? original.data.size() - payload_offset : 0;
  b.resize(total + payload);

  std::size_t at = 0;
  for (const EmitOp& op : ops_) {
    if (const auto* s = std::get_if<EmitScalar>(&op)) {
      b.write(at, s->width, phv.get_or(s->src, 0));
      at += s->width;
    } else if (const auto* c = std::get_if<EmitConst>(&op)) {
      b.write(at, c->width, c->value);
      at += c->width;
    } else if (const auto* a = std::get_if<EmitArray>(&op)) {
      std::size_t count = 0;
      for (const EmitArray::Lane& lane : a->lanes) {
        count = std::max(count, phv.array(lane.src).size());
      }
      for (std::size_t i = 0; i < count; ++i) {
        for (const EmitArray::Lane& lane : a->lanes) {
          const auto arr = phv.array(lane.src);
          b.write(at, lane.width, i < arr.size() ? arr[i] : 0);
          at += lane.width;
        }
      }
    }
  }

  if (payload > 0) {
    std::memcpy(b.bytes().data() + at, original.data.bytes().data() + payload_offset, payload);
  }
  stamp_meta(phv, out.meta);
}

bool Deparser::can_patch(const Phv& phv, const Packet& original,
                         std::size_t payload_offset) const {
  if (!patchable_ || phv.writes().arrays) return false;
  if ((phv.valid_mask() & fixed_) != fixed_) return false;
  if (payload_offset > original.size() || header_bytes(phv) != payload_offset) return false;
  for (const auto& [site, value] : consts_) {
    if (original.data.read(site.offset, site.width) != value) return false;
  }
  return true;
}

Packet Deparser::rewrite(const Phv& phv, Packet original, std::size_t payload_offset,
                         Pool& pool) const {
  if (!can_patch(phv, original, payload_offset)) {
    Packet out = pool.acquire();
    deparse_into(phv, original, payload_offset, out);
    pool.release(std::move(original));
    return out;
  }
  return pool.copy_patch(std::move(original), [&](Packet& out) {
    for (std::uint64_t w = phv.writes().scalars & fixed_; w != 0; w &= w - 1) {
      const auto id = static_cast<FieldId>(std::countr_zero(w));
      poke(out.data, id, phv.get(id));
    }
    stamp_meta(phv, out.meta);
  });
}

std::vector<EmitOp> inc_header_ops() {
  // Assembles exactly the layout of make_inc_packet(). Length fields are
  // emitted as placeholders here; deposit via a final fix-up is handled by
  // re-deriving them from the element count field, which the pipeline
  // program is responsible for keeping equal to the array size (the
  // standard programs in src/core do this). Ops are emplaced: a pushed
  // EmitOp temporary trips GCC's -Wmaybe-uninitialized under sanitizers.
  std::vector<EmitOp> ops;
  ops.emplace_back(EmitScalar{fields::kEthDst, 6});
  ops.emplace_back(EmitScalar{fields::kEthSrc, 6});
  ops.emplace_back(EmitScalar{fields::kEthType, 2});
  ops.emplace_back(EmitConst{0x45, 1});
  ops.emplace_back(EmitScalar{fields::kIpTos, 1});
  ops.emplace_back(EmitScalar{fields::kIpLen, 2});
  ops.emplace_back(EmitConst{0, 2});
  ops.emplace_back(EmitConst{0x4000, 2});
  ops.emplace_back(EmitScalar{fields::kIpTtl, 1});
  ops.emplace_back(EmitScalar{fields::kIpProto, 1});
  ops.emplace_back(EmitConst{0, 2});
  ops.emplace_back(EmitScalar{fields::kIpSrc, 4});
  ops.emplace_back(EmitScalar{fields::kIpDst, 4});
  ops.emplace_back(EmitScalar{fields::kUdpSrc, 2});
  ops.emplace_back(EmitScalar{fields::kUdpDst, 2});
  ops.emplace_back(EmitScalar{fields::kUdpLen, 2});
  ops.emplace_back(EmitConst{0, 2});
  ops.emplace_back(EmitScalar{fields::kIncOpcode, 1});
  ops.emplace_back(EmitScalar{fields::kIncElemCount, 1});
  ops.emplace_back(EmitScalar{fields::kIncCoflowId, 2});
  ops.emplace_back(EmitScalar{fields::kIncFlowId, 4});
  ops.emplace_back(EmitScalar{fields::kIncSeq, 4});
  ops.emplace_back(EmitScalar{fields::kIncWorkerId, 4});
  return ops;
}

Deparser standard_deparser() {
  std::vector<EmitOp> ops = inc_header_ops();
  ops.emplace_back(EmitArray{{{array_fields::kIncKeys, 4}, {array_fields::kIncValues, 4}}});
  return Deparser{std::move(ops)};
}

}  // namespace adcp::packet
