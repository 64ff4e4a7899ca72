// One JSON serializer for every machine-readable report the toolkit emits.
// Campaign, recampaign, mission, fleet and bench outputs used to carry their
// own ad-hoc emitters; they now all build a JsonReport, so every artifact
// opens with the same two fields —
//
//   "schema_version": <kReportSchemaVersion>,
//   "kind": "<campaign|recampaign|mission|fleet|bench>"
//
// — and shares one escaping and number-formatting policy. Consumers (the CI
// gates, downstream dashboards) key on schema_version instead of sniffing
// shapes; bump it on any breaking change to a report's field set.
#pragma once

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"

namespace vscrub {

/// Version of the report field-set contract shared by every JSON artifact.
inline constexpr int kReportSchemaVersion = 1;

/// An insertion-ordered flat JSON object. Small by design: reports here are
/// one object of scalars, not a document tree.
class JsonReport {
 public:
  /// Seeds the report with schema_version and kind.
  explicit JsonReport(const std::string& kind);

  JsonReport& set(const std::string& name, double v);
  JsonReport& set_u64(const std::string& name, u64 v);
  JsonReport& set_bool(const std::string& name, bool v);
  JsonReport& set_string(const std::string& name, const std::string& v);
  /// Appends every flattened metric of a registry (counters and gauges
  /// verbatim, histograms expanded to _count/_mean/_p50/_p99).
  JsonReport& add_metrics(const MetricsRegistry& metrics);

  /// The serialized object, `{\n  "name": value,\n ...}\n`.
  std::string to_json() const;
  /// Writes to_json() to `path` (write_file_atomic). Returns false (with a
  /// warning on stderr) when the file cannot be written; callers keep going.
  bool write(const std::string& path) const;

 private:
  void add_raw(const std::string& name, std::string rendered);

  struct Field {
    std::string name;
    std::string rendered;  ///< value as final JSON text
  };
  std::vector<Field> fields_;
};

}  // namespace vscrub
