#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/strings.hpp"

namespace mt4g::cli {
namespace {

/// The discover command's flag table, bound to @p o.
std::vector<Flag> discover_flags(Options& o) {
  return {
      {{"--gpu"}, "<name>", "GPU model to analyse (default H100-80; see --list)",
       [&o](const std::string& value) {
         o.gpu_name = value;
         o.gpu_name_set = true;
         return std::string();
       }},
      {{"--model-dir"}, "<dir>",
       "overlay every *.json GPU spec in <dir> onto the\n"
       "built-in registry (same as $MT4G_MODEL_DIR)",
       text(o.model_dir)},
      {{"--model-spec"}, "<file>",
       "load a GPU spec file (repeatable); without --gpu the\n"
       "file's model is the one analysed — see README\n"
       "\"Model spec files\" for the schema",
       texts(o.model_specs)},
      {{"--list"}, "", "list available GPU models and exit",
       toggle(o.list_gpus)},
      {{"--seed"}, "<n>", "simulator noise seed (default 42)", seed(o.seed)},
      {{"--only"}, "<set>",
       "restrict to a comma-separated element set, e.g.\n"
       "\"--only l1,l2\" (L1, L2, TEX, RO, CONST_L1, CONST_L15,\n"
       "SHARED, DMEM, VL1, SL1D, L3, LDS); dependencies of\n"
       "the selected elements still run, but stay silent",
       [&o](const std::string& value) {
         // Comma-separated element set; the flag may also repeat.
         for (const std::string& element : split(value, ',')) {
           if (!element.empty()) o.only.push_back(element);
         }
         return std::string();
       }},
      {{"--sweep-threads"}, "<n>",
       "parallel chases inside one benchmark (default 1)",
       count(o.sweep_threads, 1)},
      {{"--bench-threads"}, "<n>",
       "concurrent benchmarks of the discovery stage graph\n"
       "(default 1; reports are byte-identical for every\n"
       "sweep/bench thread combination)",
       count(o.bench_threads, 1)},
      {{"--cache-config"}, "<mode>",
       "PreferL1 | PreferShared | PreferEqual (default PreferL1)",
       [&o](const std::string& value) {
         if (value != "PreferL1" && value != "PreferShared" &&
             value != "PreferEqual") {
           return std::string("PreferL1, PreferShared or PreferEqual");
         }
         o.cache_config = value;
         return std::string();
       }},
      {{"--out"}, "<dir>", "output directory for report files (default .)",
       text(o.output_dir)},
      {{"--trace"}, "<file>",
       "write a Chrome trace-event JSON (open in Perfetto or\n"
       "chrome://tracing); never changes the report bytes",
       text(o.trace_path)},
      {{"--metrics"}, "<file>",
       "write wall-clock metrics as Prometheus text and embed\n"
       "the per-discovery aggregation as meta.wall in the JSON",
       text(o.metrics_path)},
      {{"--flops"}, "", "also run the per-datatype compute benchmarks",
       toggle(o.measure_flops)},
      {{"-g"}, "", "dump reduction-value series (Fig. 2 data) as CSV",
       toggle(o.emit_graphs)},
      {{"-o"}, "",
       "write the legacy CSV attribute table (the format\n"
       "GPUscout-GUI parses, paper Sec. VI-B)",
       toggle(o.emit_raw)},
      {{"-p"}, "", "write a markdown report", toggle(o.emit_markdown)},
      {{"-j"}, "", "write <GPU>.json instead of printing to stdout",
       toggle(o.emit_json_file)},
      {{"-q"}, "", "quiet: JSON to stdout only, no progress lines",
       toggle(o.quiet)},
  };
}

}  // namespace

ParseResult parse(int argc, const char* const* argv) {
  ParseResult result;
  FlagParse flags = parse_flags(discover_flags(result.options), argc, argv);
  result.errors = std::move(flags.errors);
  result.show_help = flags.show_help;
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
  Options unused;
  return "mt4g — GPU compute & memory topology auto-discovery (simulated "
         "substrate)\n\n"
         "Usage: mt4g [options]\n"
         "       mt4g fleet [fleet-options]   parallel whole-registry sweep\n"
         "                                    (see `mt4g fleet --help`)\n"
         "       mt4g spec <command> [args]   export, check, validate or hash\n"
         "                                    GPU spec files (see `mt4g spec "
         "--help`)\n" +
         flag_usage(discover_flags(unused));
}

FlagParse parse_flags(const std::vector<Flag>& flags, int argc,
                      const char* const* argv, std::size_t max_positionals) {
  FlagParse result;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      result.show_help = true;
      continue;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (result.positionals.size() < max_positionals) {
        result.positionals.push_back(arg);
      } else {
        result.errors.push_back("unexpected argument '" + arg + "'");
      }
      continue;
    }
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& row) {
          return std::find(row.names.begin(), row.names.end(), arg) !=
                 row.names.end();
        });
    if (flag == flags.end()) {
      result.errors.push_back("unknown argument '" + arg + "'");
      continue;
    }
    std::string value;
    if (!flag->value.empty()) {
      if (i + 1 >= argc) {
        result.errors.push_back("missing value for " + arg);
        continue;
      }
      value = argv[++i];
    }
    if (const std::string expected = flag->set(value); !expected.empty()) {
      result.errors.push_back("invalid " + arg + " value '" + value +
                              "' (expected " + expected + ")");
    }
  }
  return result;
}

std::string flag_usage(const std::vector<Flag>& flags) {
  const auto spelling = [](const Flag& flag) {
    return join(flag.names, ", ") + (flag.value.empty() ? "" : " ") +
           flag.value;
  };
  std::vector<Flag> rows = flags;
  rows.push_back({{"-h", "--help"}, "", "this text", nullptr});
  std::size_t width = 0;
  for (const Flag& row : rows) width = std::max(width, spelling(row).size());
  std::string text;
  for (const Flag& row : rows) {
    std::string lead = "  " + spelling(row);
    for (const std::string& line : split(row.help, '\n')) {
      lead.resize(width + 4, ' ');  // continuation lines: blanks only
      text += lead + line + "\n";
      lead.clear();
    }
  }
  return text;
}

Setter text(std::string& out) {
  return [&out](const std::string& value) {
    out = value;
    return std::string();
  };
}

Setter texts(std::vector<std::string>& out) {
  return [&out](const std::string& value) {
    out.push_back(value);
    return std::string();
  };
}

Setter toggle(bool& out, bool to) {
  return [&out, to](const std::string&) {
    out = to;
    return std::string();
  };
}

Setter count(std::uint32_t& out, std::uint32_t min, std::uint32_t max) {
  return [&out, min, max](const std::string& value) {
    std::uint32_t parsed = 0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (error != std::errc() || stop != end || parsed < min || parsed > max) {
      return "an integer in " + std::to_string(min) + ".." +
             std::to_string(max);
    }
    out = parsed;
    return std::string();
  };
}

Setter seconds(double& out) {
  return [&out](const std::string& value) {
    double parsed = 0.0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (error != std::errc() || stop != end || !std::isfinite(parsed) ||
        parsed <= 0.0) {
      return std::string("finite seconds > 0");
    }
    out = parsed;
    return std::string();
  };
}

Setter seed(std::uint64_t& out) {
  return [&out](const std::string& value) {
    const auto parsed = parse_seed(value);
    if (!parsed) return std::string("a decimal integer in [0, 2^64)");
    out = *parsed;
    return std::string();
  };
}

std::optional<int> help_or_errors(bool show_help,
                                  const std::vector<std::string>& errors,
                                  const std::string& prog,
                                  const std::string& usage) {
  if (show_help) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  if (errors.empty()) return std::nullopt;
  for (const std::string& error : errors) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), error.c_str());
  }
  std::fputs(usage.c_str(), stderr);
  return 2;
}

}  // namespace mt4g::cli
