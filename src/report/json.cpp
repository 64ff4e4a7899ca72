#include "report/json.h"

#include <cstdio>

#include "bitstream/record_io.h"

namespace vscrub {
namespace {

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

JsonReport::JsonReport(const std::string& kind) {
  set_u64("schema_version", kReportSchemaVersion);
  set_string("kind", kind);
}

void JsonReport::add_raw(const std::string& name, std::string rendered) {
  for (auto& f : fields_) {
    if (f.name == name) {
      f.rendered = std::move(rendered);
      return;
    }
  }
  fields_.push_back({name, std::move(rendered)});
}

JsonReport& JsonReport::set(const std::string& name, double v) {
  char buf[64];
  // %.17g round-trips doubles; integral values print without a point.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  add_raw(name, buf);
  return *this;
}

JsonReport& JsonReport::set_u64(const std::string& name, u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  add_raw(name, buf);
  return *this;
}

JsonReport& JsonReport::set_bool(const std::string& name, bool v) {
  add_raw(name, v ? "true" : "false");
  return *this;
}

JsonReport& JsonReport::set_string(const std::string& name,
                                   const std::string& v) {
  std::string quoted;
  quoted.reserve(v.size() + 2);
  quoted.push_back('"');
  quoted += escaped(v);
  quoted.push_back('"');
  add_raw(name, std::move(quoted));
  return *this;
}

JsonReport& JsonReport::add_metrics(const MetricsRegistry& metrics) {
  for (const auto& [name, value] : metrics.flattened()) set(name, value);
  return *this;
}

std::string JsonReport::to_json() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  \"" + escaped(fields_[i].name) + "\": " + fields_[i].rendered;
    out += i + 1 < fields_.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

bool JsonReport::write(const std::string& path) const {
  const std::string json = to_json();
  try {
    write_file_atomic(path, json.data(), json.size());
  } catch (const Error& e) {
    std::fprintf(stderr, "report: %s\n", e.what());
    return false;
  }
  return true;
}

}  // namespace vscrub
