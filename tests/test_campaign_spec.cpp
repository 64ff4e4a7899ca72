// The campaign spec contract: one parameter table (svc/campaign_spec.h)
// drives the one-shot CLI, `submit`, `fleet-submit` and the fabric's shard
// forwarding. The contract test below is generated from the table: for
// every row, and for a non-default value of it, the paths a campaign can
// take build the same CampaignOptions and the same checkpoint fingerprint.
// A row dropped from any one path (a missing flag, a reader that ignores
// it, a shard that does not forward it) fails it.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>

#include "bitstream/record_io.h"
#include "core/cli.h"
#include "core/vscrub.h"
#include "seu/checkpoint.h"
#include "seu/report.h"
#include "sim/simd.h"
#include "svc/campaign_spec.h"
#include "svc/fabric.h"
#include "svc/requests.h"

namespace vscrub {
namespace {

constexpr const char* kDesign = "lfsrmult";

/// A valid value for the row that differs from its default ("" for a
/// boolean: giving the flag is the non-default value).
std::string test_value(const SpecRow& row) {
  switch (row.id) {
    case Param::kDesign: return "counter";
    case Param::kDevice: return "tiny:8x12";
    case Param::kScrubPolicy: return "blind";
    case Param::kTenant: return "alice";
    default: break;
  }
  switch (row.type) {
    case SpecType::kBool: return "";
    case SpecType::kU64:
      return std::to_string(std::strtoull(row.dflt.c_str(), nullptr, 10) + 3);
    case SpecType::kDouble:
      return std::to_string(std::strtod(row.dflt.c_str(), nullptr) + 1.5);
    case SpecType::kString: break;
  }
  ADD_FAILURE() << "no test value for string row " << row.name;
  return "";
}

/// Parses `command` with `argv` (its leading words), the design argument,
/// then the row's flag — or the row's value as the design argument when the
/// row is positional.
CliArgs parse_with(const char* command, std::vector<std::string> argv,
                   const SpecRow* row) {
  const bool positional = row && (row->scope & kSpecPositional) != 0;
  argv.push_back(positional ? test_value(*row) : kDesign);
  if (row != nullptr && !positional) {
    argv.push_back(row->flag());
    if (row->type != SpecType::kBool) argv.push_back(test_value(*row));
  }
  const CliCommand* cmd = cli_find(command);
  EXPECT_NE(cmd, nullptr) << command;
  return cli_parse(*cmd, argv);
}

FlatJson reparse(const JsonReport& report) {
  return FlatJson::parse(report.to_json());
}

/// One path's campaign: its compiled design, the options it built, and the
/// request it ran from (none for the one-shot path).
struct Built {
  std::shared_ptr<const PlacedDesign> design;
  CampaignOptions options;
  FlatJson params;
};

/// A served path: the worker compiles the request's design and device.
Built served(const FlatJson& params) {
  return {request_design(spec_string(params, Param::kDesign),
                         spec_string(params, Param::kDevice)),
          campaign_options_from(params, RequestContext{}), params};
}

Built oneshot_path(const SpecRow* row) {
  const CliCampaign c = cli_campaign(parse_with("campaign", {}, row));
  return {c.design, c.options, FlatJson{}};
}

Built submit_path(const SpecRow* row) {
  const CliArgs args = parse_with("submit", {"campaign"}, row);
  return served(
      reparse(cli_request(args, "campaign_request", args.positional[1])));
}

/// fleet-submit -> coordinator params -> one shard's request -> the worker's
/// options, with the shard's range set aside.
Built fabric_path(const SpecRow* row) {
  const CliArgs args = parse_with("fleet-submit", {}, row);
  FabricOptions fabric;
  fabric.params = reparse(
      cli_request(args, "fleet_campaign_request", args.positional[0]));
  Built b = served(reparse(shard_request(fabric, BitRange{0, 1000}, "")));
  EXPECT_EQ(b.options.range_end, 1000u);
  b.options.range_begin = 0;
  b.options.range_end = 0;
  return b;
}

u64 fingerprint(const Built& b) {
  const u64 n = universe_size(b.design->space->total_bits(), b.options);
  return campaign_fingerprint(*b.design, b.options, n, b.options.chunk_size);
}

void expect_same(const Built& a, const Built& b, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.design->netlist->name(), b.design->netlist->name());
  EXPECT_EQ(a.design->space->geometry().name,
            b.design->space->geometry().name);
  const CampaignOptions& x = a.options;
  const CampaignOptions& y = b.options;
  EXPECT_EQ(x.sample_bits, y.sample_bits);
  EXPECT_EQ(x.sample_seed, y.sample_seed);
  EXPECT_EQ(x.chunk_size, y.chunk_size);
  EXPECT_EQ(x.range_begin, y.range_begin);
  EXPECT_EQ(x.range_end, y.range_end);
  const InjectionOptions& i = x.injection;
  const InjectionOptions& j = y.injection;
  EXPECT_EQ(i.stim_seed, j.stim_seed);
  EXPECT_EQ(i.warmup_cycles, j.warmup_cycles);
  EXPECT_EQ(i.warmup_cycles_no_dynamic, j.warmup_cycles_no_dynamic);
  EXPECT_EQ(i.observe_cycles, j.observe_cycles);
  EXPECT_EQ(i.classify_persistence, j.classify_persistence);
  EXPECT_EQ(i.persistence_settle, j.persistence_settle);
  EXPECT_EQ(i.persistence_check, j.persistence_check);
  EXPECT_EQ(i.clock_hz, j.clock_hz);
  EXPECT_EQ(i.timing.byte_time, j.timing.byte_time);
  EXPECT_EQ(i.timing.frame_overhead, j.timing.frame_overhead);
  EXPECT_EQ(i.timing.op_overhead, j.timing.op_overhead);
  EXPECT_EQ(i.prune_unobservable, j.prune_unobservable);
  EXPECT_EQ(i.gang_width, j.gang_width);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(CampaignSpec, EveryCampaignRowBuildsTheSameCampaignOnEveryPath) {
  const Built base = oneshot_path(nullptr);
  expect_same(base, submit_path(nullptr), "defaults: one-shot vs submit");
  expect_same(base, fabric_path(nullptr), "defaults: one-shot vs fabric");
  for (const SpecRow& row : campaign_spec()) {
    if ((row.scope & kSpecCampaign) == 0) continue;
    SCOPED_TRACE(row.name);
    const Built submit = submit_path(&row);
    const Built fabric = fabric_path(&row);
    if ((row.scope & kSpecServed) != 0) {
      // Wire-only (tenant): no one-shot flag, no campaign option; the
      // submitted value reaches the worker.
      EXPECT_EQ(submit.params.get_string(row.name), test_value(row));
      EXPECT_EQ(fabric.params.get_string(row.name), test_value(row));
      expect_same(base, submit, "submit");
      expect_same(base, fabric, "fabric");
      continue;
    }
    const Built oneshot = oneshot_path(&row);
    expect_same(oneshot, submit, "one-shot vs submit");
    expect_same(oneshot, fabric, "one-shot vs fabric");
    // The non-default value took effect. Gang settings are not
    // fingerprinted (they never change a verdict), so they count apart.
    const InjectionOptions& o = oneshot.options.injection;
    const InjectionOptions& d = base.options.injection;
    EXPECT_TRUE(fingerprint(oneshot) != fingerprint(base) ||
                o.gang_width != d.gang_width)
        << "--" << row.name << " changed nothing";
  }
}

TEST(CampaignSpec, MissionAndFleetRowsReachTheSameRequestOneShotOrSubmitted) {
  for (const auto& [kind, scope] :
       {std::pair<const char*, unsigned>{"mission", kSpecMission},
        std::pair<const char*, unsigned>{"fleet", kSpecFleet}}) {
    for (const SpecRow& row : campaign_spec()) {
      if ((row.scope & scope) == 0 || (row.scope & kSpecServed) != 0) continue;
      SCOPED_TRACE(std::string(kind) + " " + row.name);
      std::vector<std::string> argv = {row.flag()};
      if (row.type != SpecType::kBool) argv.push_back(test_value(row));
      const CliArgs oneshot = cli_parse(*cli_find(kind), argv);
      argv.insert(argv.begin(), kind);
      const CliArgs submitted = cli_parse(*cli_find("submit"), argv);
      const FlatJson a = reparse(cli_request(oneshot, "request", ""));
      const FlatJson b = reparse(cli_request(submitted, "request", ""));
      ASSERT_TRUE(a.has(row.name));
      EXPECT_EQ(a.fields(), b.fields());
    }
  }
}

TEST(CampaignSpec, FlagsAreTheKebabCaseOfTheRequestNames) {
  for (const SpecRow& row : campaign_spec()) {
    std::string expected = "--";
    for (const char c : row.name) expected += c == '_' ? '-' : c;
    EXPECT_EQ(row.flag(), expected);
    EXPECT_EQ(&spec_row(row.id), &row) << row.name << " out of enum order";
    EXPECT_EQ(row.type == SpecType::kBool, row.value_name.empty())
        << row.name;
  }
}

TEST(CampaignSpec, ShardsForwardOnlyTheForwardedRows) {
  FabricOptions fabric;
  fabric.params = FlatJson::parse(
      "{\"sample\": 500, \"hours\": 3, \"missions\": 2, "
      "\"cache_dir\": \"/x\", \"range_begin\": 7}");
  const FlatJson shard = reparse(shard_request(fabric, BitRange{10, 20}, ""));
  EXPECT_EQ(shard.get_u64("sample"), 500u);
  EXPECT_FALSE(shard.has("hours"));
  EXPECT_FALSE(shard.has("missions"));
  EXPECT_FALSE(shard.has("cache_dir"));
  EXPECT_EQ(shard.get_u64("range_begin"), 10u);
  EXPECT_EQ(shard.get_u64("range_end"), 20u);
}

TEST(CampaignSpec, UniverseSizeClampsTheSampleToTheDevice) {
  CampaignOptions options;
  EXPECT_EQ(universe_size(1000, options.with_exhaustive()), 1000u);
  EXPECT_EQ(universe_size(1000, options.with_sample(400)), 400u);
  EXPECT_EQ(universe_size(1000, options.with_sample(5000)), 1000u);
  const u64 total = ConfigSpace(device_by_name("tiny:8x12")).total_bits();
  EXPECT_EQ(campaign_universe_size("tiny:8x12", options.with_sample(300)),
            300u);
  EXPECT_EQ(campaign_universe_size("tiny:8x12", options.with_exhaustive()),
            total);
}

TEST(CampaignReport, EveryU64FieldIsSummedOrANamedException) {
  // A synthetic result whose double-valued fields are all non-integral, so
  // the u64 fields are exactly the all-digit ones.
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 12, 2));
  CampaignResult r;
  r.device_bits = 1000;
  r.injections = 7;
  r.failures = 3;
  r.persistent = 1;
  r.utilization = 0.37;
  r.modeled_hardware_time = SimTime::microseconds(1.5);
  r.wall_seconds = 1.25;
  r.cache_hits = 2;
  const FlatJson report = reparse(campaign_report_json(design, r));
  const auto is_summed = [](const std::string& name) {
    for (const char* summed : kSummedCampaignCounters) {
      if (name == summed) return true;
    }
    return false;
  };
  std::size_t u64_fields = 0;
  for (const auto& [name, value] : report.fields()) {
    bool digits = !value.empty();
    for (const char c : value) {
      digits = digits && std::isdigit(static_cast<unsigned char>(c));
    }
    if (!digits || name == "schema_version") continue;
    u64_fields += 1;
    EXPECT_TRUE(is_summed(name) || name == "device_bits" ||
                name == "sensitive_digest")
        << name << " is a u64 report field the fabric merge does not fold";
  }
  EXPECT_EQ(u64_fields, std::size(kSummedCampaignCounters) + 2);
}

TEST(AtomicWrite, MissingDirectoryThrowsAndLeavesNoTmp) {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/vscrub_no_such_dir";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/out.json";
  EXPECT_THROW(write_file_atomic(path, "x", 1), Error);
  EXPECT_THROW(write_text_file("{}", path), Error);
  EXPECT_FALSE(JsonReport("campaign").write(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(AtomicWrite, RenameFailureRemovesTheTmp) {
  // The target is a non-empty directory: the tmp is written, the rename
  // fails, and the tmp must not be left behind.
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/vscrub_atomic_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/occupied");
  const std::string path = dir + "/occupied";
  EXPECT_THROW(write_file_atomic(path, "x", 1), Error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  write_file_atomic(dir + "/ok.json", "{}", 2);
  EXPECT_EQ(std::filesystem::file_size(dir + "/ok.json"), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ok.json.tmp"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vscrub
