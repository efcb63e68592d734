#pragma once
/// \file bench.hpp
/// Shared pieces of the JanusEDA benchmark: its own seeded generator, the
/// timing and memory probes, the metric sink that prints the final result
/// line, and the declarations of the input generators, output checks and
/// workloads. Nothing here reuses the program's generators or checkers, so
/// a change to the program cannot change a workload or weaken a check.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "janus/flow/flow.hpp"
#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"

namespace perfbench {

// ------------------------------------------------------------------ basics

/// splitmix64: the benchmark's own generator (independent of util/rng).
class SplitMix {
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, bound); bound > 0.
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t s_;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The time point `seconds` after `t0`.
inline Clock::time_point after(Clock::time_point t0, double seconds) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// Median / percentile (nearest rank on the sorted samples).
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// The technology node every workload runs at.
janus::TechnologyNode bench_node();
std::shared_ptr<const janus::CellLibrary> bench_library();

/// Reads a .jnl file through the program's reader.
janus::Netlist load_netlist(const std::string& path,
                            std::shared_ptr<const janus::CellLibrary> lib);
std::string read_file(const std::string& path);

// ------------------------------------------------------------------ result

struct MetricSpec {
    const char* name;
    const char* unit;
};
const std::vector<MetricSpec>& e2e_metrics();
const std::vector<MetricSpec>& layer_metrics();

/// Collects metrics and correctness verdicts; prints the result line.
class Report {
  public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// Records one named check; a failing check makes the run incorrect.
    void check(const std::string& name, bool ok, const std::string& detail = "");
    void attempt(std::size_t n = 1) { attempted_ += n; }
    void fail(std::size_t n = 1) { failed_ += n; }
    bool correct() const { return correct_; }
    /// Human-readable line before the result (stdout, never the last line).
    void info(const std::string& line) const;
    /// Prints the `which` metrics as one JSON line (the last line of
    /// stdout); throws std::logic_error when one was never measured.
    void print_result(const std::vector<MetricSpec>& which) const;
    const std::map<std::string, std::pair<double, std::string>>& metrics() const {
        return metrics_;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    bool correct_ = true;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dir;             ///< work directory for inputs and outputs
    Clock::time_point start;     ///< start of main (for setup_s)
};

/// Seconds from the start of main to now.
double since_start_s(const Options& o);

// ------------------------------------------------------------------ inputs

/// Multiplier width and the other fixed sizes of the workloads.
inline constexpr int kMultBits = 96;
inline constexpr std::size_t kHierGates = 500000;
inline constexpr int kHierStages = 6;
inline constexpr std::size_t kEcoGates = 60000;
inline constexpr int kEcoStages = 8;
inline constexpr std::size_t kBatchGates = 600;
inline constexpr int kBatchDesigns = 4;

/// After each flow, the flow workloads run the ECO loop on its design for
/// this share of the flow's time, so that flows and ECOs both spread over
/// the whole run.
inline constexpr double kEcoShare = 0.5;

/// Writes every input file of `workload` into `dir`.
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir);

// ------------------------------------------------------------------ checks

/// Checks the multiplier's product against multi-word arithmetic on
/// random and corner operands. Returns the number of mismatching vectors.
std::size_t check_product(const janus::Netlist& nl, int bits, std::uint64_t seed);

/// One clock cycle of `impl` against `ref`: random primary inputs and flop
/// states, flops matched by instance name, outputs by name. Returns the
/// number of mismatching (flop or output) words, or SIZE_MAX when the two
/// netlists' interfaces do not match.
std::size_t check_one_cycle(const janus::Netlist& ref, const janus::Netlist& impl,
                            std::uint64_t seed);

/// A placed cell for the legality check: position and width in nm.
struct PlacedCell {
    std::int64_t x = 0, y = 0, w = 0;
    bool placed = false;
};
std::vector<PlacedCell> placed_cells(const janus::Netlist& nl,
                                     std::int64_t site_nm);

/// Row/site/overlap legality of cells [begin, end) from positions alone:
/// every cell placed, on a site and row boundary relative to the group's
/// lowest cell corner, and no two cells of a row overlapping. Returns the
/// number of violations.
std::size_t count_illegal(const std::vector<PlacedCell>& cells, std::size_t begin,
                          std::size_t end, std::int64_t site_nm,
                          std::int64_t row_nm);

/// Makes a deliberately broken copy of `nl`: the driver of one primary
/// output gets the complementary cell function. Returns false when no
/// output driver has a complement in the library.
bool corrupt_one_gate(janus::Netlist& nl);

/// Library-level ECO loop used by the flow workloads: on a warm
/// TimingGraph over `nl`, toggles resizes of instances spread over the
/// design up and back, alternating with timing queries, in whole rounds
/// until `until`. With `cold_check`, also compares one ECO with a cold full
/// analysis of the same edit. Appends to `acc`; the restore and negative
/// flags stay true only while every call passes them.
struct EcoLoopResult {
    std::vector<double> eco_ms, query_ms;
    double wall_ms = 0;            ///< the toggle loops alone
    std::size_t ops = 0;           ///< ECOs + queries
    std::size_t eco_evals = 0;     ///< median instances re-evaluated per ECO
    std::size_t full_evals = 0;    ///< cost of one full analysis
    bool cold_match = false;       ///< critical-path ECO == cold full analysis
    bool restored = true;          ///< final report == initial report
    bool negative_caught = true;   ///< an un-toggled ECO changes the report
};
void run_eco_loop(janus::Netlist& nl, const janus::TechnologyNode& node,
                  Clock::time_point until, bool cold_check, EcoLoopResult& acc);
/// Records the ECO loops' end-to-end metrics, checks and layer counters.
void report_eco_loop(Report& r, const EcoLoopResult& eco);

/// Records the flow workloads' flow metrics (mean flow time, flows per
/// second of flow time, QoR of `results.back()`) and checks that every flow
/// repeated the first one's QoR exactly.
void report_flows(Report& r, const std::vector<double>& flow_ms,
                  const std::vector<janus::FlowResult>& results);

/// Site width and row height (nm) of the placement grid at `node`.
std::int64_t site_nm(const janus::TechnologyNode& node);
std::int64_t row_nm(const janus::TechnologyNode& node);

// --------------------------------------------------------------- workloads

void run_flat_mult(const Options& o, Report& r);
void run_hier_mesh(const Options& o, Report& r);
void run_eco_mixed(const Options& o, Report& r);

/// Emits every per-layer metric the workload did not set, as 0 (the layer
/// does not run on that workload).
void fill_missing_layers(Report& r);

}  // namespace perfbench
