// vscrubctl — command-line driver for the vscrub library.
//
// The command table (subcommands, positionals, flags and their help text)
// lives in core/cli.{h,cpp} so the test suite can enforce the CLI contract;
// this file only maps parsed arguments onto library calls. Run
// `vscrubctl <command> --help` for per-command flags.
//
// Designs: lfsr mult vmult counter multadd lfsrmult fir selfcheck bram
// Devices: campaign (default), xcv50, xcv100, xcv300, xcv1000, tiny:RxC
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/vscrub.h"
#include "sim/simd.h"
#include "serve_common.h"
#include "svc/campaign_spec.h"
#include "svc/client.h"
#include "svc/requests.h"

using namespace vscrub;

namespace {

/// The --device geometry (svc/requests' catalog, shared with the service).
DeviceGeometry device_of(
    const CliArgs& args,
    const std::string& dflt = spec_row(Param::kDevice).dflt) {
  return device_by_name(args.option(spec_row(Param::kDevice).flag(), dflt));
}

/// Writes the --json report; a failed write throws, so the command exits 1.
void write_json(const JsonReport& report, const CliArgs& args,
                const char* what) {
  const std::string path = args.option("--json", "");
  if (path.empty()) return;
  write_text_file(report.to_json(), path);
  std::printf("wrote %s report to %s\n", what, path.c_str());
}

int cmd_compile(const CliArgs& args) {
  VSCRUB_CHECK(!args.positional.empty(), "compile needs a design name");
  Netlist nl = design_by_name(args.positional[0]);
  if (args.flag("--tmr")) nl = apply_tmr(nl);
  PnrOptions options;
  if (args.flag("--raddrc")) {
    options.halflatch_policy = HalfLatchPolicy::kLutRomConstants;
  }
  const auto design =
      compile(std::make_shared<const Netlist>(std::move(nl)),
              std::make_shared<const ConfigSpace>(device_of(args)), options);
  std::printf("compiled %-22s %5zu slices (%.1f%%), %zu wires, %d router "
              "iterations\n",
              design.netlist->name().c_str(), design.stats.slices_used,
              design.stats.utilization * 100, design.stats.wires_used,
              design.stats.router_iterations);
  const RadDrcReport hl = raddrc_analyze(design);
  std::printf("half-latch uses: %zu critical, %zu non-critical\n",
              hl.critical_uses, hl.noncritical_uses);
  const std::string out = args.option("-o", "");
  if (!out.empty()) {
    save_bitstream(design.bitstream, out);
    std::printf("wrote configuration image to %s (%u frames)\n", out.c_str(),
                design.bitstream.frame_count());
  }
  return 0;
}

void print_campaign_result(const CampaignResult& r, bool persistence) {
  std::printf("%llu injections (%llu resumed, %llu pruned), %llu failures\n",
              static_cast<unsigned long long>(r.injections),
              static_cast<unsigned long long>(r.resumed_injections),
              static_cast<unsigned long long>(r.pruned),
              static_cast<unsigned long long>(r.failures));
  std::printf("sensitivity %.3f%%  normalized %.2f%%\n", r.sensitivity() * 100,
              r.normalized_sensitivity() * 100);
  if (persistence) {
    std::printf("persistence ratio %.1f%%\n", r.persistence_ratio() * 100);
  }
  std::printf("modeled SLAAC-1V time %.1f s, wall %.1f s\n",
              r.modeled_hardware_time.sec(), r.wall_seconds);
  std::printf("phases: corrupt %.1f s, run %.1f s, repair %.1f s, "
              "persistence %.1f s\n",
              r.phases.corrupt_s, r.phases.run_s, r.phases.repair_s,
              r.phases.persist_s);
  if (r.cache_enabled) {
    std::printf("verdict store: %llu hits, %llu misses, %llu stored\n",
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses),
                static_cast<unsigned long long>(r.cache_stores));
  }
  if (r.phases.gang_runs > 0) {
    std::printf("gang: %llu runs, %.1f lanes/run, %.1f%% early exit, "
                "%llu fallbacks\n",
                static_cast<unsigned long long>(r.phases.gang_runs),
                static_cast<double>(r.phases.gang_lanes) /
                    static_cast<double>(r.phases.gang_runs),
                100.0 * static_cast<double>(r.phases.gang_early_exits) /
                    static_cast<double>(r.phases.gang_runs),
                static_cast<unsigned long long>(r.phases.gang_fallbacks));
  }
  if (r.interrupted) std::printf("campaign interrupted; checkpoint saved\n");
}

/// One-shot `campaign` and (`delta`) `recampaign`, run as served.
int cmd_campaign(const CliArgs& args, bool delta) {
  const std::string cache_dir = args.option("--cache-dir", "");
  VSCRUB_CHECK(!delta || !cache_dir.empty(),
               "recampaign needs --cache-dir DIR");
  CliCampaign c = cli_campaign(args);
  const bool progress = args.flag("--progress");
  if (progress) {
    c.options.with_progress([](const CampaignProgress& p) {
      std::fprintf(stderr,
                   "\r%llu/%llu bits  %llu failures  %llu cached  "
                   "%.0f bits/s  ETA %.0f s   ",
                   static_cast<unsigned long long>(p.injections_done),
                   static_cast<unsigned long long>(p.injections_total),
                   static_cast<unsigned long long>(p.failures),
                   static_cast<unsigned long long>(p.cache_hits), p.bits_per_s,
                   p.eta_s);
      return true;
    });
  }
  const PlacedDesign& design = *c.design;
  const bool persistence = c.options.injection.classify_persistence;
  if (!delta) {
    const CampaignResult r = run_campaign(design, c.options);
    if (progress) std::fprintf(stderr, "\n");
    print_campaign_result(r, persistence);
    write_json(campaign_report_json(design, r), args, "campaign");
    return 0;
  }
  const RecampaignResult r = run_recampaign(design, c.options);
  if (progress) std::fprintf(stderr, "\n");
  print_campaign_result(r.result, persistence);
  if (r.had_prior) {
    std::printf("delta: %llu/%llu frames changed, reuse %.1f%%, "
                "speedup vs prior %.1fx, sensitive set %s\n",
                static_cast<unsigned long long>(r.frames_changed),
                static_cast<unsigned long long>(r.frames_total),
                r.hit_rate() * 100, r.speedup_vs_prior(),
                r.sensitive_match ? "MATCH" : "DIVERGED");
  } else {
    std::printf("no prior manifest in %s; ran cold and seeded the store\n",
                cache_dir.c_str());
  }
  write_json(recampaign_report_json(design, r), args, "recampaign");
  return 0;
}

int cmd_beam(const CliArgs& args) {
  VSCRUB_CHECK(!args.positional.empty(), "beam needs a design name");
  Workbench bench(device_of(args));
  const auto design = bench.compile(design_by_name(args.positional[0]));
  CampaignOptions copts;
  copts.sample_bits = 15000;
  copts.record_sampled_bits = true;
  const auto camp = bench.campaign(design, copts);
  BeamSession session(design, {});
  const u64 n = args.option_u64("--observations", 1000);
  const auto r = session.run(n, camp.sensitive_set(design),
                             camp.sampled_bits);
  std::printf("%llu observations, %llu upsets, %llu output errors\n",
              static_cast<unsigned long long>(r.observations),
              static_cast<unsigned long long>(r.upsets_total),
              static_cast<unsigned long long>(r.output_error_observations));
  std::printf("correlation with simulator predictions: %.1f%%\n",
              r.correlation() * 100);
  return 0;
}

void print_fleet_line(const std::string& label, const FleetResult& r) {
  std::printf("%-14s availability %.6f +/- %.6f  mttr %8.1f ms  "
              "bw %8.0f B/s  repaired %llu\n",
              label.c_str(), r.availability_mean, r.availability_ci95,
              r.mttr_ms, r.scrub_bandwidth_bytes_per_s,
              static_cast<unsigned long long>(r.repaired));
}

int cmd_mission(const CliArgs& args) {
  const FlatJson params =
      FlatJson::parse(cli_request(args, "mission_request", "").to_json());
  MetricsRegistry metrics;
  EventTrace trace;
  const std::string trace_path = args.option("--trace", "");
  PayloadOptions options;
  if (args.flag("--json")) options.metrics = &metrics;
  if (!trace_path.empty()) options.trace = &trace;
  const auto r = fly_mission(params, RequestContext{}, options);
  const double hours = spec_double(params, Param::kHours);
  std::printf("%.0f h mission (%s): %llu upsets, %llu detected, %llu "
              "repaired, availability %.5f\n",
              hours, options.environment.name.c_str(),
              static_cast<unsigned long long>(r.upsets_total),
              static_cast<unsigned long long>(r.detected),
              static_cast<unsigned long long>(r.repaired), r.availability);
  std::printf("policy %s: scrub cycle %.1f ms/board, detection latency mean "
              "%.1f ms, mttr %.1f ms\n",
              r.scrub_policy.c_str(), r.scrub_cycle_per_board.ms(),
              r.mean_detection_latency_ms, r.mttr_ms);
  if (options.scrub.link_faults.enabled() || options.flash_faults.enabled()) {
    std::printf("scrub faults: %llu false alarms, %llu false repairs, %llu "
                "timeouts, %llu flash escalations\n",
                static_cast<unsigned long long>(r.false_alarms),
                static_cast<unsigned long long>(r.false_repairs),
                static_cast<unsigned long long>(r.scrub_transfer_timeouts),
                static_cast<unsigned long long>(r.flash_escalations));
  }
  if (!trace_path.empty() && trace.write_jsonl(trace_path)) {
    std::printf("wrote %zu trace events to %s\n", trace.size(),
                trace_path.c_str());
  }
  write_json(mission_report_json(metrics), args, "mission");
  return 0;
}

int cmd_fleet(const CliArgs& args) {
  const FlatJson params =
      FlatJson::parse(cli_request(args, "fleet_request", "").to_json());
  const FleetRun run = fly_fleet(
      params, RequestContext{},
      static_cast<u32>(args.option_u64("--threads", 0)));
  const FleetOptions& options = run.options;
  if (!run.race.entries.empty()) {
    // Race mode: the same seed sweep once per policy.
    std::printf("%u missions x %.0f h (%s), %zu policies:\n", options.missions,
                options.duration.sec() / 3600.0,
                options.payload.environment.name.c_str(),
                run.race.entries.size());
    for (const PolicyRaceEntry& e : run.race.entries) {
      print_fleet_line(e.policy, e.fleet);
    }
    write_json(policy_race_report_json(run.race), args, "policy race");
    return 0;
  }
  const FleetResult& r = run.fleet;
  std::printf("%u missions x %.0f h (%s): %llu upsets, %llu detected, %llu "
              "repaired\n",
              options.missions, options.duration.sec() / 3600.0,
              options.payload.environment.name.c_str(),
              static_cast<unsigned long long>(r.upsets_total),
              static_cast<unsigned long long>(r.detected),
              static_cast<unsigned long long>(r.repaired));
  std::printf("availability %.6f +/- %.6f (95%% CI), latency p50 %.1f ms, "
              "p99 %.1f ms\n",
              r.availability_mean, r.availability_ci95,
              r.detection_latency_p50_ms, r.detection_latency_p99_ms);
  std::printf("scrub faults: %llu false alarms, %llu false repairs, %llu "
              "timeouts, %llu flash escalations\n",
              static_cast<unsigned long long>(r.false_alarms),
              static_cast<unsigned long long>(r.false_repairs),
              static_cast<unsigned long long>(r.scrub_transfer_timeouts),
              static_cast<unsigned long long>(r.flash_escalations));
  write_json(fleet_report_json(r), args, "fleet");
  return 0;
}

int cmd_bist(const CliArgs& args) {
  auto space = std::make_shared<const ConfigSpace>(
      device_of(args, "tiny:8x12"));
  FabricSim fabric(space);
  const auto wire = run_wire_test(space, fabric);
  std::printf("wire test: %s (%d reconfigs, %d readbacks, %.0f ms modeled)\n",
              wire.pass() ? "PASS" : "FAIL", wire.partial_reconfigs + 1,
              wire.readbacks, wire.modeled_time.ms());
  const auto pattern =
      compile(std::make_shared<const Netlist>(bist_clb_cascade(6, 20)), space, {});
  fabric.full_configure(pattern.bitstream);
  const auto clb = run_clb_bist(pattern, fabric, 400);
  std::printf("CLB BIST: %s (%.0f%% slice coverage)\n",
              clb.error_detected ? "ERROR DETECTED" : "PASS",
              clb.slice_coverage * 100);
  return 0;
}

int cmd_version(const CliArgs&) {
  std::printf("vscrub %s\n", version());
  std::printf("workbench api %d\n", kWorkbenchApiVersion);
  std::printf("report schema %d\n", kReportSchemaVersion);
  std::printf("vsrp protocol 1\n");
  return 0;
}

FrameKind submit_kind(const std::string& op) {
  for (const FrameKind kind :
       {FrameKind::kPing, FrameKind::kStats, FrameKind::kCampaign,
        FrameKind::kRecampaign, FrameKind::kMission, FrameKind::kFleet}) {
    if (op == frame_kind_name(kind)) return kind;
  }
  throw Error("unknown submit op '" + op +
              "' (ping stats campaign recampaign mission fleet)");
}

unsigned long long field(const FlatJson& p, const char* name) {
  return static_cast<unsigned long long>(p.get_u64(name));
}

/// Sends the rendered command line (ping and stats carry none) to `peer`
/// and reports the reply: busy exits 3, an error 1; a result goes to stdout
/// and --json. `print_progress` renders the --progress frames on stderr.
int call_and_report(const CliArgs& args, const std::string& socket,
                    FrameKind kind, const std::string& request_kind,
                    const std::string& design, const char* peer,
                    void (*print_progress)(const FlatJson&)) {
  const bool progress = args.flag("--progress");
  std::string payload;
  if (kind != FrameKind::kPing && kind != FrameKind::kStats) {
    JsonReport request = cli_request(args, request_kind, design);
    if (progress) request.set_bool("progress", true);
    payload = request.to_json();
  }
  ServiceClient client = ServiceClient::connect_unix(socket);
  const Frame reply =
      client.call(kind, payload, [progress, print_progress](const Frame& f) {
        if (progress && f.kind == FrameKind::kProgress) {
          print_progress(FlatJson::parse(f.payload));
        }
      });
  if (progress) std::fprintf(stderr, "\n");
  if (reply.kind == FrameKind::kBusy) {
    const FlatJson busy = FlatJson::parse(reply.payload);
    std::fprintf(stderr, "vscrubctl: %s busy (%s); retry in %llu ms\n", peer,
                 busy.get_string("reason", "busy").c_str(),
                 field(busy, "retry_after_ms"));
    return 3;
  }
  if (reply.kind == FrameKind::kError) {
    std::fprintf(stderr, "vscrubctl: %s error: %s\n", peer,
                 FlatJson::parse(reply.payload)
                     .get_string("error", "unknown").c_str());
    return 1;
  }
  std::fputs(reply.payload.c_str(), stdout);
  const std::string json_path = args.option("--json", "");
  if (!json_path.empty()) write_text_file(reply.payload, json_path);
  return 0;
}

int cmd_submit(const CliArgs& args) {
  VSCRUB_CHECK(!args.positional.empty(),
               "submit needs an op (ping|stats|campaign|recampaign|mission|"
               "fleet)");
  const std::string op = args.positional[0];
  return call_and_report(
      args, args.option("--socket", ServiceConfig{}.socket_path),
      submit_kind(op),
      op + "_request", args.positional.size() > 1 ? args.positional[1] : "",
      "server", [](const FlatJson& p) {
        std::fprintf(stderr, "\r%llu/%llu bits  %llu failures  %llu cached   ",
                     field(p, "injections_done"), field(p, "injections_total"),
                     field(p, "failures"), field(p, "cache_hits"));
      });
}

int cmd_fleet_submit(const CliArgs& args) {
  VSCRUB_CHECK(!args.positional.empty(), "fleet-submit needs a design name");
  return call_and_report(
      args, args.option("--socket", ServiceConfig{}.socket_path),
      FrameKind::kCampaign, "fleet_campaign_request", args.positional[0],
      "coordinator", [](const FlatJson& p) {
        std::fprintf(stderr,
                     "\r%llu/%llu bits  ranges %llu/%llu  %llu reassigned   ",
                     field(p, "injections_done"), field(p, "injections_total"),
                     field(p, "ranges_done"), field(p, "ranges_total"),
                     field(p, "reassignments"));
      });
}

int cmd_info(const CliArgs& args) {
  VSCRUB_CHECK(!args.positional.empty(), "info needs an image path");
  const LoadedImage image = load_bitstream(args.positional[0]);
  u64 set_bits = 0;
  for (u32 gf = 0; gf < image.bits.frame_count(); ++gf) {
    set_bits += image.bits.frame(gf).popcount();
  }
  std::printf("device   %s (%ux%u CLBs, %u BRAM columns)\n",
              image.geometry.name.c_str(), image.geometry.rows,
              image.geometry.cols, image.geometry.bram_columns);
  std::printf("frames   %u (CLB frame %u bytes)\n", image.bits.frame_count(),
              image.geometry.clb_frame_bytes());
  std::printf("bits     %llu total, %llu set\n",
              static_cast<unsigned long long>(
                  image.geometry.total_config_bits()),
              static_cast<unsigned long long>(set_bits));
  std::printf("CRC      ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(cli_usage().c_str(), stderr);
    return 2;
  }
  const std::string name = argv[1];
  if (name == "--help" || name == "-h" || name == "help") {
    std::fputs(cli_usage().c_str(), stdout);
    return 0;
  }
  if (name == "--version" || name == "-V") return cmd_version(CliArgs{});
  const CliCommand* cmd = cli_find(name);
  if (cmd == nullptr) {
    std::fputs(cli_usage().c_str(), stderr);
    return 2;
  }
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      std::fputs(cli_help(*cmd).c_str(), stdout);
      return 0;
    }
    rest.emplace_back(argv[i]);
  }
  try {
    const CliArgs args = cli_parse(*cmd, rest);
    if (name == "compile") return cmd_compile(args);
    if (name == "campaign") return cmd_campaign(args, false);
    if (name == "recampaign") return cmd_campaign(args, true);
    if (name == "beam") return cmd_beam(args);
    if (name == "mission") return cmd_mission(args);
    if (name == "fleet") return cmd_fleet(args);
    if (name == "bist") return cmd_bist(args);
    if (name == "serve") return run_serve(args);
    if (name == "submit") return cmd_submit(args);
    if (name == "fleet-submit") return cmd_fleet_submit(args);
    if (name == "version") return cmd_version(args);
    if (name == "info") return cmd_info(args);
    if (name == "designs") {
      std::printf("lfsr mult vmult counter multadd lfsrmult fir selfcheck bram\n");
      return 0;
    }
    if (name == "devices") {
      std::printf("campaign xcv50 xcv100 xcv300 xcv1000 tiny:RxC\n");
      return 0;
    }
    if (name == "policies") {
      for (const std::string& p : scrub_policy_names()) {
        const auto policy = make_scrub_policy(p);
        std::printf("%-14s %s%s%s\n", p.c_str(),
                    policy->blind() ? "blind golden rewrite" : "readback+CRC",
                    policy->intermodular() ? ", intermodular stagger"
                    : policy->schedule_period() > 1 ? ", rotating subset"
                                                    : "",
                    policy->golden_ecc() ? ", SECDED golden shadow" : "");
      }
      return 0;
    }
    std::fputs(cli_usage().c_str(), stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vscrubctl: %s\n", e.what());
    return 1;
  }
}
