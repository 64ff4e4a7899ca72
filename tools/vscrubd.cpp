// vscrubd — the standalone campaign-service daemon. A thin shell over the
// same `serve` command implementation `vscrubctl serve` uses; exists so a
// deployment can ship and supervise the daemon without the full CLI.
//
// `vscrubd --worker A --worker B ...` runs a coordinator: the same service,
// sharding each campaign across those worker daemons.
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.h"
#include "serve_common.h"

int main(int argc, char** argv) {
  using namespace vscrub;
  const CliCommand* cmd = cli_find("serve");
  const std::vector<std::string> rest(argv + 1, argv + argc);
  for (const std::string& word : rest) {
    if (word == "--help" || word == "-h") {
      std::string help = cli_help(*cmd);
      // The shared command table prints `vscrubctl serve`; this binary is
      // invoked as plain `vscrubd`.
      const std::string from = "vscrubctl serve";
      const auto at = help.find(from);
      if (at != std::string::npos) help.replace(at, from.size(), "vscrubd");
      std::fputs(help.c_str(), stdout);
      return 0;
    }
  }
  try {
    return run_serve(cli_parse(*cmd, rest));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vscrubd: %s\n", e.what());
    return 1;
  }
}
