#include "packet/parser.hpp"

#include <cassert>

#include "packet/headers.hpp"

namespace adcp::packet {

void Parser::parse_into(const Packet& pkt, ParseResult& res) const {
  res.reset();
  const Buffer& b = pkt.data;
  std::size_t cursor = 0;
  StateId id = graph_->start();

  while (id != kAcceptState && id != kDropState) {
    // Loop guard: a well-formed graph never revisits more states than it has.
    if (res.states > graph_->size()) return;
    ++res.states;
    const ParseState& st = graph_->state(id);
    if (cursor + st.header_len > b.size()) return;  // truncated

    for (const Extract& ex : st.extracts) {
      assert(ex.offset + ex.width <= st.header_len);
      res.phv.set(ex.dst, b.read(cursor + ex.offset, ex.width));
    }

    std::size_t array_bytes = 0;
    if (st.array) {
      const ArrayExtract& ax = *st.array;
      const std::uint64_t count = res.phv.get_or(ax.count_field, 0);
      if (count > ax.max_count) return;  // exceeds hardware lane budget
      array_bytes = static_cast<std::size_t>(count) * ax.stride;
      if (cursor + ax.offset + array_bytes > b.size()) return;  // truncated
      for (const ArrayExtract::Lane& lane : ax.lanes) {
        auto& dst = res.phv.array(lane.dst);
        dst.resize(count);  // warm PHVs keep their capacity: no per-element growth
        const std::size_t base = cursor + ax.offset + lane.offset;
        for (std::uint64_t i = 0; i < count; ++i) {
          dst[i] = b.read(base + i * ax.stride, lane.width);
        }
      }
    }

    StateId next = st.fallthrough;
    if (st.select) {
      const std::uint64_t key = res.phv.get_or(*st.select, 0);
      for (const auto& [match, to] : st.transitions) {
        if (match == key) {
          next = to;
          break;
        }
      }
    }
    cursor += st.header_len + array_bytes;
    id = next;
  }

  res.accepted = (id == kAcceptState);
  res.consumed = cursor;
  if (res.accepted) {
    res.phv.set(fields::kMetaIngressPort, pkt.meta.ingress_port);
    res.phv.set(fields::kMetaDrop, 0);
    res.phv.set(fields::kMetaFlowHash, pkt.meta.flow_hash);
  }
  res.phv.mark_clean();
}

ParseGraph standard_parse_graph(std::size_t max_elems) {
  // State ids are assigned densely in add_state order.
  constexpr StateId kEth = 0, kIp = 1, kUdp = 2, kInc = 3;
  ParseGraph g;

  ParseState eth;
  eth.name = "ethernet";
  eth.header_len = kEthernetBytes;
  eth.extracts = {{0, 6, fields::kEthDst}, {6, 6, fields::kEthSrc}, {12, 2, fields::kEthType}};
  eth.select = fields::kEthType;
  eth.transitions = {{kEtherTypeIpv4, kIp}};
  eth.fallthrough = kAcceptState;  // non-IP: accept as plain L2

  ParseState ip;
  ip.name = "ipv4";
  ip.header_len = kIpv4Bytes;
  ip.extracts = {{1, 1, fields::kIpTos}, {2, 2, fields::kIpLen},
                 {8, 1, fields::kIpTtl}, {9, 1, fields::kIpProto},
                 {12, 4, fields::kIpSrc}, {16, 4, fields::kIpDst}};
  ip.select = fields::kIpProto;
  ip.transitions = {{kIpProtoUdp, kUdp}};
  ip.fallthrough = kAcceptState;

  ParseState udp;
  udp.name = "udp";
  udp.header_len = kUdpBytes;
  udp.extracts = {{0, 2, fields::kUdpSrc}, {2, 2, fields::kUdpDst}, {4, 2, fields::kUdpLen}};
  udp.select = fields::kUdpDst;
  udp.transitions = {{kIncUdpPort, kInc}};
  udp.fallthrough = kAcceptState;

  ParseState inc;
  inc.name = "inc";
  inc.header_len = kIncFixedBytes;
  inc.extracts = {{0, 1, fields::kIncOpcode},  {1, 1, fields::kIncElemCount},
                  {2, 2, fields::kIncCoflowId}, {4, 4, fields::kIncFlowId},
                  {8, 4, fields::kIncSeq},      {12, 4, fields::kIncWorkerId}};
  inc.fallthrough = kAcceptState;
  if (max_elems > 0) {
    ArrayExtract ax;
    ax.offset = kIncFixedBytes;
    ax.count_field = fields::kIncElemCount;
    ax.stride = kIncElementBytes;
    ax.max_count = max_elems;
    ax.lanes = {{0, 4, array_fields::kIncKeys}, {4, 4, array_fields::kIncValues}};
    inc.array = ax;
  }

  g.add_state(std::move(eth));
  g.add_state(std::move(ip));
  g.add_state(std::move(udp));
  g.add_state(std::move(inc));
  g.set_start(kEth);
  return g;
}

}  // namespace adcp::packet
