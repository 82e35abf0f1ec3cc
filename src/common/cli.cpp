#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "common/strings.hpp"

namespace mt4g::cli {

ParseResult parse(int argc, const char* const* argv) {
  ParseResult result;
  auto need_value = [&](int& i, const std::string& flag) -> std::optional<std::string> {
    if (i + 1 >= argc) {
      result.errors.push_back("missing value for " + flag);
      return std::nullopt;
    }
    return std::string(argv[++i]);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-g") {
      result.options.emit_graphs = true;
    } else if (arg == "-o") {
      result.options.emit_raw = true;
    } else if (arg == "-p") {
      result.options.emit_markdown = true;
    } else if (arg == "-j") {
      result.options.emit_json_file = true;
    } else if (arg == "-q") {
      result.options.quiet = true;
    } else if (arg == "--flops") {
      result.options.measure_flops = true;
    } else if (arg == "--list") {
      result.options.list_gpus = true;
    } else if (arg == "-h" || arg == "--help") {
      result.show_help = true;
    } else if (arg == "--gpu") {
      if (auto v = need_value(i, arg)) {
        result.options.gpu_name = *v;
        result.options.gpu_name_set = true;
      }
    } else if (arg == "--model-dir") {
      if (auto v = need_value(i, arg)) result.options.model_dir = *v;
    } else if (arg == "--model-spec") {
      if (auto v = need_value(i, arg)) result.options.model_specs.push_back(*v);
    } else if (arg == "--seed") {
      if (auto v = need_value(i, arg)) {
        if (const auto seed = parse_seed(*v)) {
          result.options.seed = *seed;
        } else {
          result.errors.push_back("invalid --seed value '" + *v + "'");
        }
      }
    } else if (arg == "--only") {
      if (auto v = need_value(i, arg)) {
        // Comma-separated element set; the flag may also repeat.
        for (const std::string& element : split(*v, ',')) {
          if (!element.empty()) result.options.only.push_back(element);
        }
      }
    } else if (arg == "--sweep-threads" || arg == "--bench-threads") {
      if (auto v = need_value(i, arg)) {
        try {
          const unsigned long parsed = std::stoul(*v);
          if (parsed == 0 || parsed > 1024) throw std::out_of_range(*v);
          (arg == "--sweep-threads" ? result.options.sweep_threads
                                    : result.options.bench_threads) =
              static_cast<std::uint32_t>(parsed);
        } catch (const std::exception&) {
          result.errors.push_back("invalid " + arg + " value '" + *v +
                                  "' (expected 1..1024)");
        }
      }
    } else if (arg == "--cache-config") {
      if (auto v = need_value(i, arg)) {
        if (*v != "PreferL1" && *v != "PreferShared" && *v != "PreferEqual") {
          result.errors.push_back("unknown --cache-config '" + *v + "'");
        } else {
          result.options.cache_config = *v;
        }
      }
    } else if (arg == "--out") {
      if (auto v = need_value(i, arg)) result.options.output_dir = *v;
    } else if (arg == "--trace") {
      if (auto v = need_value(i, arg)) result.options.trace_path = *v;
    } else if (arg == "--metrics") {
      if (auto v = need_value(i, arg)) result.options.metrics_path = *v;
    } else {
      result.errors.push_back("unknown argument '" + arg + "'");
    }
  }
  return result;
}

std::optional<std::uint64_t> parse_seed(const std::string& text) {
  std::uint64_t seed = 0;
  const char* end = text.data() + text.size();
  // from_chars takes no sign, space or base prefix for an unsigned target.
  const auto [stop, error] = std::from_chars(text.data(), end, seed);
  if (error != std::errc() || stop != end) return std::nullopt;
  return seed;
}

std::string usage() {
  return R"(mt4g — GPU compute & memory topology auto-discovery (simulated substrate)

Usage: mt4g [options]
       mt4g fleet [fleet-options]   parallel whole-registry sweep
                                    (see `mt4g fleet --help`)
  --gpu <name>           GPU model to analyse (default H100-80; see --list)
  --model-dir <dir>      overlay every *.json GPU spec in <dir> onto the
                         built-in registry (same as $MT4G_MODEL_DIR)
  --model-spec <file>    load a GPU spec file (repeatable); without --gpu the
                         file's model is the one analysed — see README
                         "Model spec files" for the schema
  --list                 list available GPU models and exit
  --seed <n>             simulator noise seed (default 42)
  --only <set>           restrict to a comma-separated element set, e.g.
                         "--only l1,l2" (L1, L2, TEX, RO, CONST_L1, CONST_L15,
                         SHARED, DMEM, VL1, SL1D, L3, LDS); dependencies of
                         the selected elements still run, but stay silent
  --sweep-threads <n>    parallel chases inside one benchmark (default 1)
  --bench-threads <n>    concurrent benchmarks of the discovery stage graph
                         (default 1; reports are byte-identical for every
                         sweep/bench thread combination)
  --cache-config <mode>  PreferL1 | PreferShared | PreferEqual (default PreferL1)
  --out <dir>            output directory for report files (default .)
  --trace <file>         write a Chrome trace-event JSON (open in Perfetto or
                         chrome://tracing); never changes the report bytes
  --metrics <file>       write wall-clock metrics as Prometheus text and embed
                         the per-discovery aggregation as meta.wall in the JSON
  --flops                also run the per-datatype compute benchmarks
  -g                     dump reduction-value series (Fig. 2 data) as CSV
  -o                     write the legacy CSV attribute table (the format
                         GPUscout-GUI parses, paper Sec. VI-B)
  -p                     write a markdown report
  -j                     write <GPU>.json instead of printing to stdout
  -q                     quiet: JSON to stdout only, no progress lines
  -h, --help             this text
)";
}

}  // namespace mt4g::cli
