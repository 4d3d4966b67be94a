/**
 * @file bench_util.hpp
 * Shared helpers for the figure-reproduction harnesses: experiment
 * shorthands, normalized-series printing, and paper-vs-measured
 * annotations. Every binary in bench/ regenerates one table or figure
 * of the paper and prints the same rows/series the paper reports.
 */
#pragma once

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "util/table.hpp"

namespace vibe::bench {

/**
 * Extract a boolean `--<name>` flag from argv, removing it so benches
 * keep their positional-argument parsing. Returns true when present.
 */
inline bool
extractFlag(int& argc, char** argv, const char* name)
{
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], name) != 0)
            continue;
        for (int rest = a + 1; rest < argc; ++rest)
            argv[rest - 1] = argv[rest];
        --argc;
        return true;
    }
    return false;
}

/**
 * Extract a `--json <path>` argument pair from argv, removing both
 * entries so benches keep their positional-argument parsing. Returns
 * the path, or "" when the flag is absent. When present, pass the
 * path to JsonReport::write after measuring.
 */
inline std::string
extractJsonPath(int& argc, char** argv)
{
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--json") != 0)
            continue;
        if (a + 1 >= argc) {
            std::cerr << "--json requires a path argument\n";
            std::exit(2);
        }
        const std::string path = argv[a + 1];
        for (int rest = a + 2; rest < argc; ++rest)
            argv[rest - 2] = argv[rest];
        argc -= 2;
        return path;
    }
    return "";
}

/**
 * Machine-readable result sink for BENCH_*.json trajectory tracking:
 * one entry per measured configuration, serialized as
 *
 *   {"bench": "<name>",
 *    "results": [{"name": "...",
 *                 "config": {"block": "8", "threads": "4"},
 *                 "median_seconds": 1.23e-03}, ...]}
 *
 * Config keys/values are strings on purpose — they label the point,
 * they are not re-parsed by the tracker.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

    /** Record one measured configuration (median wall seconds). */
    void add(const std::string& name,
             std::vector<std::pair<std::string, std::string>> config,
             double median_seconds)
    {
        entries_.push_back(
            {name, std::move(config), median_seconds});
    }

    /** Serialize all entries. */
    std::string str() const
    {
        std::ostringstream out;
        out << "{\"bench\": \"" << escape(bench_)
            << "\", \"results\": [";
        for (std::size_t e = 0; e < entries_.size(); ++e) {
            const Entry& entry = entries_[e];
            out << (e > 0 ? ", " : "") << "{\"name\": \""
                << escape(entry.name) << "\", \"config\": {";
            for (std::size_t c = 0; c < entry.config.size(); ++c)
                out << (c > 0 ? ", " : "") << "\""
                    << escape(entry.config[c].first) << "\": \""
                    << escape(entry.config[c].second) << "\"";
            out << "}, \"median_seconds\": ";
            out.precision(9);
            out << entry.medianSeconds << "}";
        }
        out << "]}\n";
        return out.str();
    }

    /** Write to `path` unless it is empty (flag absent). */
    void write(const std::string& path) const
    {
        if (path.empty())
            return;
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot write JSON results to '" << path
                      << "'\n";
            std::exit(2);
        }
        out << str();
        std::cout << "\nwrote " << entries_.size()
                  << " result(s) to " << path << "\n";
    }

  private:
    struct Entry
    {
        std::string name;
        std::vector<std::pair<std::string, std::string>> config;
        double medianSeconds = 0;
    };

    static std::string escape(const std::string& s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string bench_;
    std::vector<Entry> entries_;
};

/** Workload shorthand: (mesh, block, levels) with a cycle budget. */
inline ExperimentSpec
workload(int mesh, int block, int levels, int ncycles)
{
    ExperimentSpec spec;
    spec.meshSize = mesh;
    spec.blockSize = block;
    spec.amrLevels = levels;
    spec.ncycles = ncycles;
    spec.numeric = false;
    return spec;
}

/** Run one spec under one platform. */
inline ExperimentResult
run(ExperimentSpec spec, const PlatformConfig& platform)
{
    spec.platform = platform;
    return Experiment(spec).run();
}

/** "1.23e+07" or "OOM" for a FOM cell. */
inline std::string
fomCell(const ExperimentResult& result)
{
    return result.oom() ? "OOM" : formatSci(result.fom(), 2);
}

/** Banner printed at the top of every bench binary. */
inline void
banner(const std::string& id, const std::string& what)
{
    std::cout << "\n################################################\n"
              << "# " << id << ": " << what << "\n"
              << "# (modeled H100/Sapphire-Rapids platforms)\n"
              << "################################################\n\n";
}

/** Paper-vs-measured footnote helper. */
inline void
expect(Table& table, const std::string& note)
{
    table.addNote("paper: " + note);
}

} // namespace vibe::bench
