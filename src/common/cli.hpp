// One flag-table parser for every command line of the mt4g binary and the
// benches. A table row holds a flag's spellings, value placeholder, help text
// and a setter that validates the value into the caller's own variable;
// flag_usage() renders the help from the same rows.
//
// The discover command mirrors the flag set of the original tool's artifact
// description: -g (graphs/series dump), -o (raw timings), -p (markdown
// report), -j (JSON file), -q (quiet, JSON to stdout only), plus
// simulator-specific options: --gpu <name>, --seed <n>, --only <element>,
// --cache-config <mode>.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mt4g::cli {

struct Options {
  std::string gpu_name = "H100-80";   ///< registry key of the simulated GPU
  bool gpu_name_set = false;          ///< --gpu given explicitly
  std::uint64_t seed = 42;            ///< simulator noise seed
  bool emit_graphs = false;           ///< -g: dump reduction series (Fig. 2 data)
  bool emit_raw = false;              ///< -o: legacy CSV attribute table
  bool emit_markdown = false;         ///< -p: write the .md report
  bool emit_json_file = false;        ///< -j: write <GPU>.json
  bool quiet = false;                 ///< -q: JSON to stdout only
  bool list_gpus = false;             ///< --list: print registry and exit
  bool measure_flops = false;         ///< --flops: per-dtype compute benchmarks
  /// --only l1,l2,...: restrict scope to an element set (repeatable flag,
  /// comma-separated values). Empty = full discovery.
  std::vector<std::string> only;
  std::uint32_t sweep_threads = 1;    ///< --sweep-threads: parallel sweeps
  std::uint32_t bench_threads = 1;    ///< --bench-threads: concurrent stages
  std::string cache_config = "PreferL1";  ///< L1/Shared split policy
  std::string output_dir = ".";       ///< where -j/-p/-g/-o files land
  /// --trace FILE: write a Chrome trace-event JSON of the run (Perfetto /
  /// chrome://tracing). Tracing alone never changes report bytes.
  std::string trace_path;
  /// --metrics FILE: enable the obs metrics registry, dump it as Prometheus
  /// text, and embed the per-discovery aggregation as meta.wall in the JSON.
  std::string metrics_path;
  /// --model-dir DIR: overlay every *.json GPU spec of DIR onto the built-in
  /// registry before the run (same semantics as $MT4G_MODEL_DIR).
  std::string model_dir;
  /// --model-spec FILE: load one GPU spec file (repeatable). Without an
  /// explicit --gpu, the (last) file's model becomes the analysed GPU.
  std::vector<std::string> model_specs;
};

struct ParseResult {
  Options options;
  std::vector<std::string> errors;  ///< empty on success
  bool show_help = false;
};

/// Parses argv. Never exits; callers decide what to do with errors/help.
ParseResult parse(int argc, const char* const* argv);

/// A seed value: decimal digits only, within 64 bits. Empty, signed,
/// partly numeric or out-of-range text yields nullopt.
std::optional<std::uint64_t> parse_seed(const std::string& text);

/// Usage text for --help.
std::string usage();

/// Stores a flag's value (the empty string for a switch) into the caller's
/// variable. Returns "" to accept it, or what it expected instead.
using Setter = std::function<std::string(const std::string& value)>;

/// One row of a flag table.
struct Flag {
  std::vector<std::string> names;  ///< spellings, e.g. {"-q", "--quiet"}
  std::string value;               ///< value placeholder; empty = a switch
  std::string help;                ///< help text; '\n' starts a new line
  Setter set;
};

/// What parse_flags() found besides the values its setters stored.
struct FlagParse {
  std::vector<std::string> errors;       ///< empty on success
  std::vector<std::string> positionals;  ///< arguments that are not flags
  bool show_help = false;                ///< -h or --help given
};

/// Applies @p flags to argv[1..argc). A value flag takes the next argument
/// whatever it looks like; an unknown "-..." argument is an error, and so is
/// every positional argument past the first @p max_positionals. -h and
/// --help belong to every table. Never exits.
FlagParse parse_flags(const std::vector<Flag>& flags, int argc,
                      const char* const* argv,
                      std::size_t max_positionals = 0);

/// Help lines for @p flags and -h/--help, their texts aligned in one column.
std::string flag_usage(const std::vector<Flag>& flags);

/// The upper bound of every thread and process count.
inline constexpr std::uint32_t kMaxThreads = 1024;

/// Setters for the common value kinds: text, repeatable text (every
/// occurrence appends), a switch that stores @p to, a decimal integer in
/// [min, max], finite seconds > 0, and a parse_seed() value.
Setter text(std::string& out);
Setter texts(std::vector<std::string>& out);
Setter toggle(bool& out, bool to = true);
Setter count(std::uint32_t& out, std::uint32_t min,
             std::uint32_t max = kMaxThreads);
Setter seconds(double& out);
Setter seed(std::uint64_t& out);

/// Settles a parse before a command runs: for --help prints @p usage to
/// stdout and yields 0; for errors prints each as "<prog>: <error>", then
/// @p usage, to stderr and yields 2. nullopt when the command should run.
std::optional<int> help_or_errors(bool show_help,
                                  const std::vector<std::string>& errors,
                                  const std::string& prog,
                                  const std::string& usage);

}  // namespace mt4g::cli
