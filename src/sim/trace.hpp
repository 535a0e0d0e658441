// CSV field escaping shared by the metrics and span CSV exporters. (Packet
// and hop tracing is sim/span.hpp.)
#pragma once

#include <string>
#include <string_view>

namespace adcp::sim {

/// RFC-4180 CSV field escaping: fields containing a comma, quote, CR, or
/// LF are wrapped in quotes with embedded quotes doubled; anything else
/// passes through unchanged.
inline std::string csv_escape(std::string_view field) {
  const bool needs_quoting = field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace adcp::sim
