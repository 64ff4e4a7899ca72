#include "core/cli.h"

#include <cstdlib>
#include <initializer_list>

#include "common/types.h"
#include "svc/campaign_spec.h"
#include "svc/config.h"
#include "svc/requests.h"

namespace vscrub {

namespace {

CliFlag value_flag(const char* name, const char* value_name,
                   const char* help) {
  return CliFlag{name, true, value_name, help};
}

CliFlag bool_flag(const char* name, const char* help) {
  return CliFlag{name, false, "", help};
}

/// A client's --socket: the daemon default every `serve` starts on.
CliFlag socket_flag(const char* what) {
  return CliFlag{"--socket", true, "PATH",
                 std::string(what) + " (default " +
                     ServiceConfig{}.socket_path + ")"};
}

CliFlag spec_flag(const SpecRow& row) {
  return CliFlag{row.flag(), row.type != SpecType::kBool, row.value_name,
                 row.help};
}

/// The campaign-spec rows of `scope` as flags, then `local` — the
/// command's own settings, which never travel in a request. Wire-only rows
/// (tenant) appear on `served` commands alone.
std::vector<CliFlag> spec_flags(unsigned scope, bool served,
                                std::initializer_list<CliFlag> local) {
  const unsigned skip = kSpecPositional | (served ? 0u : kSpecServed);
  std::vector<CliFlag> flags;
  for (const SpecRow& row : campaign_spec()) {
    if ((row.scope & scope) != 0 && (row.scope & skip) == 0) {
      flags.push_back(spec_flag(row));
    }
  }
  flags.insert(flags.end(), local);
  return flags;
}

std::vector<CliFlag> campaign_flags() {
  return spec_flags(
      kSpecCampaign, false,
      {value_flag("--threads", "N", "worker threads (0 = hardware)"),
       value_flag("--checkpoint", "FILE", "checkpoint/resume file"),
       bool_flag("--progress", "live progress line on stderr"),
       value_flag("--cache-dir", "DIR", "content-addressed verdict store"),
       value_flag("--json", "FILE", "write a versioned campaign report")});
}

std::vector<CliCommand> build_commands() {
  std::vector<CliCommand> commands;
  commands.push_back(
      {"compile", "<design>", "place, route and emit a configuration image",
       {
           spec_flag(spec_row(Param::kDevice)),
           bool_flag("--raddrc", "route LUT-ROM constants (half-latch DRC)"),
           bool_flag("--tmr", "apply triple modular redundancy first"),
           value_flag("-o", "FILE", "write the bitstream image"),
       }});
  commands.push_back({"campaign", "<design>",
                      "run a fault-injection campaign", campaign_flags()});
  commands.push_back({"recampaign", "<design>",
                      "delta re-campaign against a verdict store",
                      campaign_flags()});
  commands.push_back(
      {"beam", "<design>", "virtual beam-test correlation run",
       {
           spec_flag(spec_row(Param::kDevice)),
           value_flag("--observations", "N", "beam observations (default 1000)"),
       }});
  commands.push_back(
      {"mission", "", "single on-orbit mission simulation",
       spec_flags(kSpecMission, false,
                  {value_flag("--trace", "FILE", "write a JSONL event trace"),
                   value_flag("--json", "FILE",
                              "write a versioned mission report")})});
  commands.push_back(
      {"fleet", "", "Monte-Carlo fleet of seeded missions",
       spec_flags(kSpecFleet, false,
                  {value_flag("--threads", "N",
                              "worker threads (0 = hardware)"),
                   value_flag("--json", "FILE",
                              "write a versioned fleet report")})});
  commands.push_back({"bist", "", "built-in self-test of the fabric model",
                      {spec_flag(spec_row(Param::kDevice))}});
  {
    // The serve surface is declared once, in svc/config.h — the CLI table
    // here is derived from it so a knob cannot exist without its flag.
    CliCommand serve{"serve", "",
                     "run the vscrubd campaign service (VSRP1 socket)", {}};
    for (const ServiceConfigFlag& f : service_config_flags()) {
      serve.flags.push_back(CliFlag{f.name, f.takes_value, f.value_name,
                                    f.help});
    }
    commands.push_back(std::move(serve));
  }
  commands.push_back(
      {"submit", "<op> [design]",
       "submit ping|stats|campaign|recampaign|mission|fleet to a vscrubd",
       spec_flags(kSpecCampaign | kSpecMission | kSpecFleet, true,
                  {socket_flag("daemon unix socket"),
                   bool_flag("--progress", "stream progress frames to stderr"),
                   value_flag("--json", "FILE",
                              "write the returned report JSON")})});
  commands.push_back(
      {"fleet-submit", "<design>",
       "submit a sharded campaign to a coordinator (serve --worker ...)",
       spec_flags(kSpecForward, true,
                  {socket_flag("coordinator unix socket"),
                   bool_flag("--progress",
                             "stream merged fabric progress to stderr"),
                   value_flag("--json", "FILE",
                              "write the merged campaign report")})});
  commands.push_back(
      {"info", "<image.vsb>", "describe a saved configuration image", {}});
  commands.push_back({"designs", "", "list built-in design generators", {}});
  commands.push_back({"devices", "", "list device geometries", {}});
  commands.push_back({"policies", "", "list scrub policies", {}});
  commands.push_back({"version", "",
                      "print workbench API, library and report-schema "
                      "versions", {}});
  return commands;
}

}  // namespace

const std::vector<CliCommand>& cli_commands() {
  static const std::vector<CliCommand> commands = build_commands();
  return commands;
}

const CliCommand* cli_find(const std::string& name) {
  for (const CliCommand& cmd : cli_commands()) {
    if (cmd.name == name) return &cmd;
  }
  return nullptr;
}

bool CliArgs::flag(const std::string& name) const {
  for (const auto& [k, v] : options) {
    if (k == name) return true;
  }
  return false;
}

std::string CliArgs::option(const std::string& name,
                            const std::string& dflt) const {
  for (const auto& [k, v] : options) {
    if (k == name) return v;
  }
  return dflt;
}

u64 CliArgs::option_u64(const std::string& name, u64 dflt) const {
  for (const auto& [k, v] : options) {
    if (k == name) return std::strtoull(v.c_str(), nullptr, 10);
  }
  return dflt;
}

JsonReport cli_request(const CliArgs& args, const std::string& kind,
                       const std::string& design) {
  JsonReport request(kind);
  if (!design.empty()) spec_set(request, spec_row(Param::kDesign), design);
  for (const SpecRow& row : campaign_spec()) {
    const std::string flag = row.flag();
    if (args.flag(flag)) {
      spec_set(request, row,
               row.type == SpecType::kBool ? "true" : args.option(flag, ""));
    }
  }
  return request;
}

CliCampaign cli_campaign(const CliArgs& args) {
  VSCRUB_CHECK(!args.positional.empty(), "campaign needs a design name");
  const FlatJson params = FlatJson::parse(
      cli_request(args, "campaign_request", args.positional[0]).to_json());
  CliCampaign out{request_design(spec_string(params, Param::kDesign),
                                 spec_string(params, Param::kDevice)),
                  campaign_options_from(params)};
  out.options.with_threads(
      static_cast<unsigned>(args.option_u64("--threads", 0)));
  const std::string checkpoint = args.option("--checkpoint", "");
  if (!checkpoint.empty()) out.options.with_checkpoint(checkpoint);
  const std::string cache_dir = args.option("--cache-dir", "");
  if (!cache_dir.empty()) out.options.with_cache(cache_dir);
  return out;
}

CliArgs cli_parse(const CliCommand& cmd,
                  const std::vector<std::string>& argv) {
  CliArgs args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& word = argv[i];
    if (word.empty() || word[0] != '-') {
      args.positional.push_back(word);
      continue;
    }
    const CliFlag* flag = nullptr;
    for (const CliFlag& f : cmd.flags) {
      if (f.name == word) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      throw Error("unknown flag '" + word + "' for `vscrubctl " + cmd.name +
                  "` (try --help)");
    }
    std::string value;
    if (flag->takes_value) {
      if (i + 1 >= argv.size()) {
        throw Error("flag '" + word + "' needs a " + flag->value_name +
                    " value");
      }
      value = argv[++i];
    }
    args.options.emplace_back(word, std::move(value));
  }
  return args;
}

std::string cli_help(const CliCommand& cmd) {
  std::string out = "usage: vscrubctl " + cmd.name;
  if (!cmd.positional.empty()) out += " " + cmd.positional;
  if (!cmd.flags.empty()) out += " [flags]";
  out += "\n  " + cmd.help + "\n";
  if (!cmd.flags.empty()) out += "flags:\n";
  for (const CliFlag& f : cmd.flags) {
    std::string lhs = "  " + f.name;
    if (f.takes_value) lhs += " " + f.value_name;
    while (lhs.size() < 22) lhs += ' ';
    out += lhs + f.help + "\n";
  }
  return out;
}

std::string cli_usage() {
  std::string out = "usage: vscrubctl <command> [flags]\n"
                    "commands (see `vscrubctl <command> --help`):\n";
  for (const CliCommand& cmd : cli_commands()) {
    std::string lhs = "  " + cmd.name;
    if (!cmd.positional.empty()) lhs += " " + cmd.positional;
    while (lhs.size() < 22) lhs += ' ';
    out += lhs + cmd.help + "\n";
  }
  return out;
}

}  // namespace vscrub
