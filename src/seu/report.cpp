#include "seu/report.h"

#include <sstream>

#include "bitstream/record_io.h"

namespace vscrub {

std::string correlation_table_csv(const ConfigSpace& space,
                                  const CampaignResult& result) {
  std::ostringstream out;
  out << "column_kind,column,frame,offset,linear,persistent,"
         "first_error_cycle,error_output_mask\n";
  for (const auto& sb : result.sensitive_bits) {
    out << (sb.addr.frame.kind == ColumnKind::kClb ? "clb" : "bram") << ','
        << sb.addr.frame.col << ',' << sb.addr.frame.frame << ','
        << sb.addr.offset << ',' << space.linear_of(sb.addr) << ','
        << (sb.persistent ? 1 : 0) << ',' << sb.first_error_cycle << ",0x"
        << std::hex << sb.error_output_mask_lo << std::dec << '\n';
  }
  return out.str();
}

std::string campaign_summary(const CampaignResult& result) {
  std::ostringstream out;
  out << result.injections << " injections over a " << result.device_bits
      << "-bit device, " << result.failures << " design failures ("
      << result.sensitivity() * 100 << "% sensitivity, "
      << result.normalized_sensitivity() * 100 << "% normalized at "
      << result.utilization * 100 << "% utilization)";
  if (result.persistent > 0 || result.failures > 0) {
    out << "; persistence ratio " << result.persistence_ratio() * 100 << "%";
  }
  out << "; modeled testbed time " << result.modeled_hardware_time.sec()
      << " s, wall " << result.wall_seconds << " s.";
  return out.str();
}

void write_text_file(const std::string& text, const std::string& path) {
  write_file_atomic(path, text.data(), text.size());
}

JsonReport campaign_report_json(const PlacedDesign& design,
                                const CampaignResult& result) {
  JsonReport report("campaign");
  report.set_string("design", design.netlist->name());
  report.set_string("device", design.space->geometry().name);
  report.set_u64("device_bits", result.device_bits);
  report.set_u64("injections", result.injections);
  report.set_u64("failures", result.failures);
  report.set_u64("persistent", result.persistent);
  report.set_u64("pruned", result.pruned);
  report.set_u64("resumed_injections", result.resumed_injections);
  // Gang fill: lanes per run is the engine's utilization (a run costs about
  // the same whatever its fill). Checkpointed with the other phases, so a
  // resumed run's figures cover its restored chunks too.
  report.set_u64("gang_runs", result.phases.gang_runs);
  report.set_u64("gang_lanes", result.phases.gang_lanes);
  report.set_u64("gang_fallbacks", result.phases.gang_fallbacks);
  report.set("sensitivity", result.sensitivity());
  report.set("normalized_sensitivity", result.normalized_sensitivity());
  report.set("persistence_ratio", result.persistence_ratio());
  report.set("utilization", result.utilization);
  report.set("modeled_hardware_s", result.modeled_hardware_time.sec());
  report.set("wall_seconds", result.wall_seconds);
  report.set_bool("interrupted", result.interrupted);
  report.set_bool("cache_enabled", result.cache_enabled);
  report.set_u64("cache_hits", result.cache_hits);
  report.set_u64("cache_misses", result.cache_misses);
  report.set_u64("cache_stores", result.cache_stores);
  report.set_u64("remote_hits", result.remote_hits);
  report.set_u64("remote_publishes", result.remote_publishes);
  report.set("cache_hit_rate",
             result.injections ? static_cast<double>(result.cache_hits) /
                                     static_cast<double>(result.injections)
                               : 0.0);
  report.set_u64("sensitive_bits", result.sensitive_bits.size());
  report.set_u64("sensitive_digest", result.sensitive_digest(design));
  return report;
}

JsonReport recampaign_report_json(const PlacedDesign& design,
                                  const RecampaignResult& rr) {
  JsonReport report = campaign_report_json(design, rr.result);
  report.set_string("kind", "recampaign");
  report.set_bool("had_prior", rr.had_prior);
  report.set_u64("frames_total", rr.frames_total);
  report.set_u64("frames_changed", rr.frames_changed);
  report.set_u64("prior_injections", rr.prior_injections);
  report.set("prior_wall_seconds", rr.prior_wall_seconds);
  report.set_u64("prior_sensitive_digest", rr.prior_sensitive_digest);
  report.set_u64("current_sensitive_digest", rr.current_sensitive_digest);
  report.set_bool("sensitive_match", rr.sensitive_match);
  report.set("cache_hit_rate", rr.hit_rate());
  report.set("speedup_vs_prior", rr.speedup_vs_prior());
  return report;
}

}  // namespace vscrub
