// CLI contract: the declarative command table in core/cli.{h,cpp} is the
// single source of truth for vscrubctl. These tests pin the flag-naming
// convention, reject undeclared flags, and require every subcommand's
// --help output to list every flag it accepts.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>

#include "core/cli.h"
#include "sim/simd.h"
#include "svc/protocol.h"
#include "svc/requests.h"

namespace vscrub {
namespace {

TEST(Cli, EveryCommandHelpListsEveryFlag) {
  for (const CliCommand& cmd : cli_commands()) {
    const std::string help = cli_help(cmd);
    EXPECT_NE(help.find("vscrubctl " + cmd.name), std::string::npos)
        << cmd.name << " help lacks a usage line";
    for (const CliFlag& f : cmd.flags) {
      EXPECT_NE(help.find(f.name), std::string::npos)
          << "`vscrubctl " << cmd.name << " --help` does not list " << f.name;
      EXPECT_FALSE(f.help.empty())
          << cmd.name << " " << f.name << " has no help text";
    }
  }
}

TEST(Cli, UsageScreenListsEveryCommand) {
  const std::string usage = cli_usage();
  for (const CliCommand& cmd : cli_commands()) {
    EXPECT_NE(usage.find(cmd.name), std::string::npos)
        << "usage screen does not list " << cmd.name;
  }
}

TEST(Cli, FlagNamingConventionIsUniform) {
  // Long flags are `--kebab-case` (lowercase letters and single dashes);
  // the only short flag grandfathered in is compile's `-o`.
  for (const CliCommand& cmd : cli_commands()) {
    for (const CliFlag& f : cmd.flags) {
      if (f.name == "-o") continue;
      ASSERT_GE(f.name.size(), 3u) << cmd.name << " flag " << f.name;
      EXPECT_EQ(f.name.substr(0, 2), "--") << cmd.name << " " << f.name;
      for (const char c : f.name.substr(2)) {
        EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) || c == '-')
            << cmd.name << " flag " << f.name
            << " violates the --kebab-case convention";
      }
      EXPECT_EQ(f.takes_value, !f.value_name.empty())
          << cmd.name << " " << f.name << ": value flags need a value name";
    }
  }
}

TEST(Cli, NormalizedFlagsPresentWhereTheyApply) {
  // The PR-4 normalization pass: gang control, scrub-fault toggles and the
  // verdict store use the same spelling everywhere they appear.
  const CliCommand* campaign = cli_find("campaign");
  const CliCommand* recampaign = cli_find("recampaign");
  const CliCommand* mission = cli_find("mission");
  const CliCommand* fleet = cli_find("fleet");
  ASSERT_NE(campaign, nullptr);
  ASSERT_NE(recampaign, nullptr);
  ASSERT_NE(mission, nullptr);
  ASSERT_NE(fleet, nullptr);
  const auto has = [](const CliCommand* cmd, const char* name) {
    for (const CliFlag& f : cmd->flags) {
      if (f.name == name) return true;
    }
    return false;
  };
  for (const CliCommand* cmd : {campaign, recampaign}) {
    EXPECT_TRUE(has(cmd, "--no-gang")) << cmd->name;
    EXPECT_TRUE(has(cmd, "--cache-dir")) << cmd->name;
    EXPECT_TRUE(has(cmd, "--json")) << cmd->name;
  }
  for (const CliCommand* cmd : {mission, fleet}) {
    EXPECT_TRUE(has(cmd, "--scrub-faults")) << cmd->name;
    EXPECT_TRUE(has(cmd, "--json")) << cmd->name;
  }
  // The v3 policy flag: same spelling on every command that runs missions,
  // and the registry is browsable via a dedicated command.
  const CliCommand* submit = cli_find("submit");
  ASSERT_NE(submit, nullptr);
  for (const CliCommand* cmd : {mission, fleet, submit}) {
    EXPECT_TRUE(has(cmd, "--scrub-policy")) << cmd->name;
  }
  EXPECT_NE(cli_find("policies"), nullptr);
}

TEST(Cli, ParseAcceptsDeclaredFlagsOnly) {
  const CliCommand* cmd = cli_find("campaign");
  ASSERT_NE(cmd, nullptr);
  const CliArgs args = cli_parse(
      *cmd, {"lfsrmult", "--sample", "500", "--progress", "--cache-dir", "d"});
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "lfsrmult");
  EXPECT_TRUE(args.flag("--progress"));
  EXPECT_FALSE(args.flag("--exhaustive"));
  EXPECT_EQ(args.option_u64("--sample", 0), 500u);
  EXPECT_EQ(args.option("--cache-dir", ""), "d");
  EXPECT_EQ(args.option_u64("--chunk", 64), 64u);  // default passthrough

  EXPECT_THROW(cli_parse(*cmd, {"--gangwidth", "8"}), Error);
  EXPECT_THROW(cli_parse(*cmd, {"--observations", "9"}), Error)
      << "beam-only flag must not leak into campaign";
  EXPECT_THROW(cli_parse(*cmd, {"--sample"}), Error)
      << "value flag without a value";
}

TEST(Cli, GangEngineFlagsPresentWhereGangRuns) {
  // The host picks the gang engine; the one knob is --no-gang, on every
  // command that can dispatch gang runs. Width, ISA and plan are not flags.
  const auto has = [](const CliCommand* cmd, const char* name) {
    for (const CliFlag& f : cmd->flags) {
      if (f.name == name) return true;
    }
    return false;
  };
  for (const char* name :
       {"campaign", "recampaign", "submit", "fleet-submit"}) {
    const CliCommand* cmd = cli_find(name);
    ASSERT_NE(cmd, nullptr) << name;
    EXPECT_TRUE(has(cmd, "--no-gang")) << name;
    for (const char* gone : {"--gang-width", "--gang-isa", "--no-gang-plan"}) {
      EXPECT_FALSE(has(cmd, gone)) << name << " " << gone;
    }
  }
  const CliCommand* campaign = cli_find("campaign");
  EXPECT_TRUE(
      cli_parse(*campaign, {"lfsrmult", "--no-gang"}).flag("--no-gang"));
  EXPECT_THROW(cli_parse(*campaign, {"lfsrmult", "--gang-width", "256"}),
               Error);
  EXPECT_THROW(cli_parse(*campaign, {"lfsrmult", "--gang-isa", "avx2"}),
               Error);
  EXPECT_THROW(cli_parse(*campaign, {"lfsrmult", "--no-gang-plan"}), Error);
}

TEST(Cli, GangWidthAndIsaValuesRejectWithTypedErrors) {
  // The errors vscrubctl surfaces for a bad library gang width or a bad
  // VSCRUB_FORCE_ISA: typed, and self-describing enough to fix from.
  try {
    validate_gang_width(100);
    FAIL() << "width 100 accepted";
  } catch (const GangWidthError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("100"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(preferred_gang_width())),
              std::string::npos)
        << what;
  }
  const char* old = std::getenv("VSCRUB_FORCE_ISA");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("VSCRUB_FORCE_ISA", "sse9", 1);
  try {
    (void)preferred_gang_width();
    ADD_FAILURE() << "bad ISA accepted";
  } catch (const SimdIsaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sse9"), std::string::npos) << what;
    EXPECT_NE(what.find("scalar"), std::string::npos) << what;
  }
  if (old != nullptr) {
    ::setenv("VSCRUB_FORCE_ISA", saved.c_str(), 1);
  } else {
    ::unsetenv("VSCRUB_FORCE_ISA");
  }
}

TEST(Cli, OneShotCampaignTakesTheSubmitSeed) {
  // One-shot campaigns used to hard-wire the sample seed; now --seed is a
  // campaign flag everywhere, with submit's default of 99.
  const CliCommand* campaign = cli_find("campaign");
  ASSERT_NE(campaign, nullptr);
  const CliArgs seeded =
      cli_parse(*campaign, {"lfsrmult", "--seed", "7", "--sample", "500"});
  EXPECT_EQ(cli_campaign(seeded).options.sample_seed, 7u);
  const CliArgs bare = cli_parse(*campaign, {"lfsrmult"});
  EXPECT_EQ(cli_campaign(bare).options.sample_seed, 99u);
  EXPECT_NO_THROW(
      cli_parse(*cli_find("recampaign"), {"lfsrmult", "--seed", "7"}));
}

TEST(Cli, SubmitTakesChunkAndNoPrune) {
  const CliCommand* submit = cli_find("submit");
  ASSERT_NE(submit, nullptr);
  const CliArgs args = cli_parse(
      *submit, {"campaign", "lfsrmult", "--chunk", "64", "--no-prune"});
  const FlatJson request = FlatJson::parse(
      cli_request(args, "campaign_request", "lfsrmult").to_json());
  EXPECT_EQ(request.get_u64("chunk"), 64u);
  EXPECT_TRUE(request.get_bool("no_prune"));
}

TEST(Cli, FleetSubmitTakesTenant) {
  const CliCommand* fleet_submit = cli_find("fleet-submit");
  ASSERT_NE(fleet_submit, nullptr);
  const CliArgs args =
      cli_parse(*fleet_submit, {"lfsrmult", "--tenant", "alice"});
  EXPECT_EQ(args.option("--tenant", ""), "alice");
}

TEST(Cli, OneShotGangWidthDefaultIsTheServedDefault) {
  const CliCommand* campaign = cli_find("campaign");
  EXPECT_EQ(cli_campaign(cli_parse(*campaign, {"lfsrmult"}))
                .options.injection.gang_width,
            served_gang_width_default());
  EXPECT_EQ(cli_campaign(cli_parse(*campaign, {"lfsrmult", "--no-gang"}))
                .options.injection.gang_width,
            1u);
}

TEST(Cli, UnknownCommandIsNull) {
  EXPECT_EQ(cli_find("recalibrate"), nullptr);
  EXPECT_NE(cli_find("recampaign"), nullptr);
}

}  // namespace
}  // namespace vscrub
