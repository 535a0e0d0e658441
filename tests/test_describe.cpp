// Tests for the packet pretty-printer.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "packet/describe.hpp"
#include "packet/headers.hpp"

namespace adcp::packet {
namespace {

TEST(Describe, IncPacketSummary) {
  IncPacketSpec spec;
  spec.ip_src = 0x0a000001;
  spec.ip_dst = 0x0a000005;
  spec.inc.opcode = IncOpcode::kAggUpdate;
  spec.inc.coflow_id = 7;
  spec.inc.flow_id = 3;
  spec.inc.seq = 2;
  for (int i = 0; i < 8; ++i) spec.inc.elements.push_back({1, 1});
  const std::string s = describe(make_inc_packet(spec));
  EXPECT_NE(s.find("10.0.0.1->10.0.0.5"), std::string::npos);
  EXPECT_NE(s.find("AggUpdate"), std::string::npos);
  EXPECT_NE(s.find("cf=7"), std::string::npos);
  EXPECT_NE(s.find("elems=8"), std::string::npos);
  EXPECT_EQ(s.find("[CE]"), std::string::npos);
}

TEST(Describe, CeMarkShown) {
  IncPacketSpec spec;
  spec.inc.elements.push_back({1, 1});
  Packet pkt = make_inc_packet(spec);
  pkt.data.write(kEthernetBytes + 1, 1, 0x3);
  EXPECT_NE(describe(pkt).find("[CE]"), std::string::npos);
}

TEST(Describe, DegradesOnRuntAndNonIp) {
  Packet runt;
  runt.data.resize(5);
  EXPECT_NE(describe(runt).find("runt"), std::string::npos);

  IncPacketSpec spec;
  Packet pkt = make_inc_packet(spec);
  pkt.data.write(12, 2, 0x86dd);
  EXPECT_NE(describe(pkt).find("non-IP"), std::string::npos);
}

TEST(Describe, OpcodeNamesCoverAll) {
  for (std::uint8_t op = 1; op <= 15; ++op) {
    // Every defined opcode has a symbolic name, not the numeric fallback.
    EXPECT_NE(opcode_name(op), "op" + std::to_string(op)) << int(op);
  }
  EXPECT_EQ(opcode_name(200), "op200");
}

TEST(Describe, ControlAndTelemetryOpcodesHaveNames) {
  const std::pair<IncOpcode, const char*> rows[] = {
      {IncOpcode::kCtrlUpdate, "CtrlUpdate"},
      {IncOpcode::kChurnQuery, "ChurnQuery"},
      {IncOpcode::kChurnHit, "ChurnHit"},
      {IncOpcode::kChurnMiss, "ChurnMiss"},
      {IncOpcode::kTelemReport, "TelemReport"},
      {IncOpcode::kTelemPostcard, "TelemPostcard"},
  };
  for (const auto& [op, name] : rows) {
    EXPECT_EQ(opcode_name(static_cast<std::uint8_t>(op)), name);
    IncPacketSpec spec;
    spec.inc.opcode = op;
    EXPECT_NE(describe(make_inc_packet(spec)).find(std::string(" INC ") + name + " "),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace adcp::packet
