#include "topo/tier_profile.hpp"

#include "core/program.hpp"
#include "rmt/program.hpp"
#include "rtc/rtc_switch.hpp"

namespace adcp::topo {

TierProfile TierProfile::slim() { return TierProfile{}; }

TierProfile TierProfile::full() {
  TierProfile p;
  p.eager_state = true;
  p.share_templates = false;
  return p;
}

TierProfile TierProfile::preset(Preset p) {
  return p == Preset::kFull ? full() : slim();
}

std::optional<TierProfile> TierProfile::parse(std::string_view name) {
  if (name == "full") return full();
  if (name == "slim") return slim();
  return std::nullopt;
}

std::uint32_t TierProfile::rmt_pipelines_for(std::uint32_t ports) {
  for (std::uint32_t d : {4u, 2u}) {
    if (ports % d == 0) return d;
  }
  return 1;
}

rmt::RmtConfig TierProfile::rmt(std::uint32_t port_count) const {
  rmt::RmtConfig cfg = rmt_base;
  cfg.port_count = port_count;
  cfg.pipeline_count = rmt_pipelines_for(port_count);
  cfg.stage.eager_state = eager_state;
  if (cfg.stage.array) cfg.stage.array->eager_state = eager_state;
  cfg.fastpath_entries = fastpath_entries;
  cfg.tm_track_watermark = telemetry.armed;
  return cfg;
}

core::AdcpConfig TierProfile::adcp(std::uint32_t port_count) const {
  core::AdcpConfig cfg = adcp_base;
  cfg.port_count = port_count;
  cfg.edge_stage.eager_state = eager_state;
  if (cfg.edge_stage.array) cfg.edge_stage.array->eager_state = eager_state;
  cfg.central_stage.eager_state = eager_state;
  if (cfg.central_stage.array) cfg.central_stage.array->eager_state = eager_state;
  cfg.fastpath_entries = fastpath_entries;
  cfg.tm_track_watermark = telemetry.armed;
  return cfg;
}

rtc::RtcConfig TierProfile::rtc(std::uint32_t port_count) const {
  rtc::RtcConfig cfg = rtc_base;
  cfg.port_count = port_count;
  cfg.eager_state = eager_state;
  cfg.fastpath_entries = fastpath_entries;
  return cfg;
}

SwitchTemplate SwitchTemplate::build(const TierProfile& profile, SwitchKind kind,
                                     std::uint32_t port_count) {
  SwitchTemplate t;
  t.port_count = port_count;
  // Every switch of the kind shares its program's default graphs.
  const auto adopt = [&t](const hop::Program& program) {
    t.parse = program.parse;
    t.deparse = program.deparse;
  };
  switch (kind) {
    case SwitchKind::kRmt:
      t.config = profile.rmt(port_count);
      adopt(rmt::RmtProgram{});
      break;
    case SwitchKind::kAdcp:
      t.config = profile.adcp(port_count);
      adopt(core::AdcpProgram{});
      break;
    case SwitchKind::kRtc:
      t.config = profile.rtc(port_count);
      adopt(rtc::RtcProgram{});
      break;
  }
  return t;
}

}  // namespace adcp::topo
