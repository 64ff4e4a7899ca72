// Declarative command-line surface for vscrubctl. The command table — every
// subcommand, its positionals and its flags — lives here in the library
// rather than in the tool so the test suite can enforce the CLI contract
// (campaign parameter flags are generated from svc/campaign_spec.h):
// one flag-naming convention (long flags are lowercase `--kebab-case`), no
// undeclared flags accepted, and `--help` output that lists every declared
// flag of every subcommand.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "report/json.h"
#include "seu/campaign.h"

namespace vscrub {

struct CliFlag {
  std::string name;        ///< "--json", "-o", ...
  bool takes_value = false;
  std::string value_name;  ///< "N", "FILE", ... (empty for boolean flags)
  std::string help;
};

struct CliCommand {
  std::string name;        ///< "campaign"
  std::string positional;  ///< "<design>" or "" when none
  std::string help;        ///< one-line description
  std::vector<CliFlag> flags;
};

/// The full vscrubctl command table: the single source of truth for parsing,
/// per-command help, the usage screen, and the CLI tests.
const std::vector<CliCommand>& cli_commands();

/// Lookup by command name; nullptr when unknown.
const CliCommand* cli_find(const std::string& name);

/// Parsed arguments of one invocation.
struct CliArgs {
  std::vector<std::string> positional;
  /// (flag name, value) pairs in command-line order, one per use of a flag
  /// (so repeatable flags such as serve's --worker keep every value);
  /// boolean flags carry an empty value.
  std::vector<std::pair<std::string, std::string>> options;

  bool flag(const std::string& name) const;
  std::string option(const std::string& name, const std::string& dflt) const;
  u64 option_u64(const std::string& name, u64 dflt) const;
};

/// Parses everything after the command word against the command's declared
/// flags. Throws Error on an undeclared flag or a value flag with no value.
CliArgs cli_parse(const CliCommand& cmd,
                  const std::vector<std::string>& argv);

/// The served request a command line stands for: every campaign-spec flag
/// the user gave, typed, plus `design` when non-empty. Flags not given are
/// left out, so every path runs on the spec's defaults.
JsonReport cli_request(const CliArgs& args, const std::string& kind,
                       const std::string& design);

/// A one-shot `campaign`/`recampaign` line run as its rendered request runs
/// served (request_design, campaign_options_from), plus the local-only
/// --threads, --checkpoint and --cache-dir.
struct CliCampaign {
  std::shared_ptr<const PlacedDesign> design;
  CampaignOptions options;
};
CliCampaign cli_campaign(const CliArgs& args);

/// Help text for one command: usage line plus one line per declared flag.
std::string cli_help(const CliCommand& cmd);

/// The all-commands usage screen.
std::string cli_usage();

}  // namespace vscrub
