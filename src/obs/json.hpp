// JSON scalar writers shared by the trace and stats exporters. Both sinks
// promise byte-identical files per seed, so both format the same way:
// doubles as "%.9g", strings with minimal escaping.
#pragma once

#include <cstdio>
#include <ostream>
#include <string_view>

namespace e2e::obs {

inline void put_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

/// Minimal JSON string escaping (names here are ASCII identifiers, but a
/// stray quote or backslash must not corrupt the file).
inline void put_str(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace e2e::obs
