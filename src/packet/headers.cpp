#include "packet/headers.hpp"

namespace adcp::packet {

namespace {

constexpr std::size_t kIpOffset = kEthernetBytes;
constexpr std::size_t kUdpOffset = kIpOffset + kIpv4Bytes;
constexpr std::size_t kIncOffset = kUdpOffset + kUdpBytes;

}  // namespace

Packet make_inc_packet(const IncPacketSpec& spec) {
  Packet pkt;
  make_inc_packet_into(spec, pkt);
  return pkt;
}

void make_inc_packet_into(const IncPacketSpec& spec, Packet& pkt) {
  pkt.data.clear();
  Buffer& b = pkt.data;

  // Ethernet
  b.append(6, spec.eth_dst);
  b.append(6, spec.eth_src);
  b.append(2, kEtherTypeIpv4);

  // IPv4 (simplified: version/ihl, dscp, total length, id, flags, ttl,
  // proto, checksum, src, dst)
  const std::size_t elems = spec.inc.elements.size();
  const std::size_t ip_len = kIpv4Bytes + kUdpBytes + kIncFixedBytes + elems * kIncElementBytes;
  b.append(1, 0x45);
  b.append(1, 0);
  b.append(2, ip_len);
  b.append(2, 0);      // identification
  b.append(2, 0x4000); // flags: DF
  b.append(1, kIncInitialTtl);  // ttl
  b.append(1, kIpProtoUdp);
  b.append(2, 0);      // checksum (not modeled)
  b.append(4, spec.ip_src);
  b.append(4, spec.ip_dst);

  // UDP
  b.append(2, spec.udp_src);
  b.append(2, spec.udp_dst);
  b.append(2, kUdpBytes + kIncFixedBytes + elems * kIncElementBytes);
  b.append(2, 0);  // checksum (not modeled)

  // INC
  b.append(1, static_cast<std::uint64_t>(spec.inc.opcode));
  b.append(1, elems);
  b.append(2, spec.inc.coflow_id);
  b.append(4, spec.inc.flow_id);
  b.append(4, spec.inc.seq);
  b.append(4, spec.inc.worker_id);
  for (const IncElement& e : spec.inc.elements) {
    b.append(4, e.key);
    b.append(4, e.value);
  }

  if (spec.pad_to > b.size()) b.resize(spec.pad_to);

  pkt.meta.flow_id = spec.inc.flow_id;
  pkt.meta.coflow_id = spec.inc.coflow_id;
  pkt.meta.flow_hash = 0;  // new flow identity: any cached ECMP hash is stale
}

bool decode_inc(const Packet& pkt, IncHeader& out) {
  const Buffer& b = pkt.data;
  if (b.size() < kIncOffset + kIncFixedBytes) return false;
  if (b.read(12, 2) != kEtherTypeIpv4) return false;
  if (b.read(kIpOffset + 9, 1) != kIpProtoUdp) return false;
  if (b.read(kUdpOffset + 2, 2) != kIncUdpPort) return false;

  out.opcode = static_cast<IncOpcode>(b.read(kIncOffset, 1));
  const std::size_t elems = b.read(kIncOffset + 1, 1);
  out.coflow_id = static_cast<std::uint16_t>(b.read(kIncOffset + 2, 2));
  out.flow_id = static_cast<std::uint32_t>(b.read(kIncOffset + 4, 4));
  out.seq = static_cast<std::uint32_t>(b.read(kIncOffset + 8, 4));
  out.worker_id = static_cast<std::uint32_t>(b.read(kIncOffset + 12, 4));
  if (b.size() < kIncOffset + kIncFixedBytes + elems * kIncElementBytes) return false;
  out.elements.clear();
  out.elements.reserve(elems);
  for (std::size_t i = 0; i < elems; ++i) {
    const std::size_t at = kIncOffset + kIncFixedBytes + i * kIncElementBytes;
    out.elements.push_back(IncElement{static_cast<std::uint32_t>(b.read(at, 4)),
                                      static_cast<std::uint32_t>(b.read(at + 4, 4))});
  }
  return true;
}

}  // namespace adcp::packet
