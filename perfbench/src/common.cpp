#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "janus/netlist/io.hpp"

namespace perfbench {

double peak_rss_mib() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    return 0.0;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

janus::TechnologyNode bench_node() { return *janus::find_node("28nm"); }

std::shared_ptr<const janus::CellLibrary> bench_library() {
    return std::make_shared<janus::CellLibrary>(
        janus::make_default_library(bench_node()));
}

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

janus::Netlist load_netlist(const std::string& path,
                            std::shared_ptr<const janus::CellLibrary> lib) {
    std::ifstream f(path);
    if (!f) throw std::runtime_error("cannot read " + path);
    janus::Netlist nl = janus::read_netlist(f, std::move(lib));
    const auto problems = nl.validate();
    if (!problems.empty()) {
        throw std::runtime_error(path + ": " + problems.front());
    }
    return nl;
}

double since_start_s(const Options& o) {
    return std::chrono::duration<double>(Clock::now() - o.start).count();
}

std::int64_t site_nm(const janus::TechnologyNode& node) {
    return std::max<std::int64_t>(1, std::llround(node.track_um * 1000));
}

std::int64_t row_nm(const janus::TechnologyNode& node) {
    return 8 * site_nm(node);
}

void report_eco_loop(Report& r, const EcoLoopResult& eco) {
    r.attempt(eco.ops);
    r.metric("eco_p50_ms", median(eco.eco_ms), "ms");
    r.metric("query_p50_ms", median(eco.query_ms), "ms");
    r.metric("interactive_rps", static_cast<double>(eco.ops) / (eco.wall_ms / 1000.0),
             "req/s");
    r.metric("timing.eco_evals", static_cast<double>(eco.eco_evals), "count");
    r.metric("timing.full_evals", static_cast<double>(eco.full_evals), "count");
    r.check("ECO equals a cold full analysis", eco.cold_match);
    r.check("toggled ECOs restore the first report", eco.restored);
    r.check("negative: an un-toggled ECO changes the report", eco.negative_caught);
}

void report_flows(Report& r, const std::vector<double>& flow_ms,
                  const std::vector<janus::FlowResult>& results) {
    double total_ms = 0;
    for (const double x : flow_ms) total_ms += x;
    const janus::FlowResult& q = results.back();
    // The mean, not the median: on a shared host whose speed switches
    // between states every few seconds, the median of a run's few flows
    // jumps from one state to the other where the mean moves with their share.
    r.metric("flow_s", total_ms / static_cast<double>(flow_ms.size()) / 1000.0, "s");
    r.metric("batch_flows_per_s", static_cast<double>(flow_ms.size()) / (total_ms / 1000.0),
             "flows/s");
    r.metric("area_um2", q.area_um2, "um2");
    r.metric("hpwl_um", q.hpwl_um, "um");
    r.metric("route_wl", static_cast<double>(q.route_wirelength), "gcells");
    r.metric("crit_delay_ps", q.critical_delay_ps, "ps");
    bool same = true;
    for (const janus::FlowResult& x : results) {
        same = same && x.area_um2 == q.area_um2 && x.hpwl_um == q.hpwl_um &&
               x.route_wirelength == q.route_wirelength &&
               x.critical_delay_ps == q.critical_delay_ps;
    }
    r.check("flows repeat their QoR exactly", same);
}

// ------------------------------------------------------------------ Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
    metrics_[name] = {value, unit};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
    std::printf("check %-44s %s%s%s\n", name.c_str(), ok ? "PASS" : "FAIL",
                detail.empty() ? "" : "  ", detail.c_str());
    if (!ok) correct_ = false;
}

void Report::info(const std::string& line) const {
    std::printf("%s\n", line.c_str());
}

void Report::print_result(const std::vector<MetricSpec>& which) const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& spec : which) {
        const auto it = metrics_.find(spec.name);
        if (it == metrics_.end()) {
            throw std::logic_error(std::string("metric not measured: ") + spec.name);
        }
        const auto& [name, entry] = *it;
        const auto& [value, unit] = entry;
        char num[64];
        std::snprintf(num, sizeof num, "%.10g", value);
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + unit +
               "\"}";
    }
    out += "}}";
    std::fflush(stdout);
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ------------------------------------------------------------ layer table

// Every end-to-end metric, in BENCHMARK.json order.
const std::vector<MetricSpec>& e2e_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},          {"flow_s", "s"},
        {"peak_rss_mb", "MiB"},    {"area_um2", "um2"},
        {"hpwl_um", "um"},         {"route_wl", "gcells"},
        {"crit_delay_ps", "ps"},   {"eco_p50_ms", "ms"},
        {"query_p50_ms", "ms"},    {"interactive_rps", "req/s"},
        {"batch_flows_per_s", "flows/s"},
    };
    return specs;
}

// Every per-layer metric of the traced mode, in BENCHMARK.json order.
const std::vector<MetricSpec>& layer_metrics() {
    static const std::vector<MetricSpec> specs = {
    {"netlist.read_ms", "ms"},       {"netlist.bytes_per_inst", "B/inst"},
    {"logic.optimize_ms", "ms"},     {"logic.cuts", "count"},
    {"logic.memo_hits", "count"},    {"logic.memo_misses", "count"},
    {"logic.espresso_calls", "count"}, {"logic.replacements", "count"},
    {"logic.map_ms", "ms"},          {"logic.map_matched", "count"},
    {"place.global_ms", "ms"},       {"place.legalize_ms", "ms"},
    {"place.sa_ms", "ms"},           {"place.sa_accepted", "count"},
    {"place.sa_commit_rate", "ratio"}, {"route.ms", "ms"},
    {"route.rounds", "count"},       {"route.commit_rate", "ratio"},
    {"route.nets_per_round", "count"}, {"timing.sta_ms", "ms"},
    {"timing.eco_evals", "count"},   {"timing.full_evals", "count"},
    {"flow.partition_ms", "ms"},     {"flow.cut_nets", "count"},
    {"flow.stitched_nets", "count"}, {"flow.block_ms_sum", "ms"},
    {"flow.block_ms_mean", "ms"},    {"flow.block_ms_max", "ms"},
    {"flow.top_sta_ms", "ms"},       {"server.apply_eco_us", "us"},
    {"server.timing_us", "us"},      {"server.parse_us", "us"},
    {"server.dump_us", "us"},        {"server.eco_preempts", "count"},
    {"server.batch_flow_ms", "ms"},
    };
    return specs;
}

void fill_missing_layers(Report& r) {
    for (const MetricSpec& m : layer_metrics()) {
        if (!r.metrics().count(m.name)) r.metric(m.name, 0.0, m.unit);
    }
}

}  // namespace perfbench
