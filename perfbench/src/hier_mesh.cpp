// hier_mesh: a pipelined mesh through the partition -> block batch ->
// stitch -> top STA flow, checked by one-cycle equivalence of the merged
// netlist with the input and by legality of the merged placement.

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "janus/flow/hier.hpp"
#include "janus/timing/delay_model.hpp"
#include "janus/timing/timing_graph.hpp"

namespace perfbench {

namespace {

constexpr int kBlocks = 8;
constexpr int kBatchWorkers = 4;

struct Box {
    std::int64_t x0, y0, x1, y1;
};

}  // namespace

void run_hier_mesh(const Options& o, Report& r) {
    const janus::TechnologyNode node = bench_node();
    const auto t_read = Clock::now();
    const janus::Netlist input = load_netlist(o.dir + "/hier.jnl", bench_library());
    const double read_ms = ms_since(t_read);
    r.metric("setup_s", since_start_s(o), "s");
    r.metric("netlist.read_ms", read_ms, "ms");
    r.metric("netlist.bytes_per_inst",
             static_cast<double>(input.memory_bytes()) /
                 static_cast<double>(input.num_instances()),
             "B/inst");

    janus::HierParams hp;
    hp.num_blocks = kBlocks;
    hp.workers = kBatchWorkers;
    std::vector<double> flow_ms;
    std::vector<janus::FlowResult> tops;
    janus::HierFlowResult last;
    EcoLoopResult eco;
    const auto t_window = Clock::now();
    double round_ms = 0;
    do {
        const auto t_round = Clock::now();
        last = janus::HierFlowResult{};
        const auto t0 = Clock::now();
        last = janus::run_hier_flow(input, node, hp);
        flow_ms.push_back(ms_since(t0));
        r.attempt();
        if (last.top.failed()) r.fail();
        tops.push_back(last.top);
        if (!last.merged) throw std::runtime_error("hier flow produced no netlist");
        // Interactive ECOs on the merged design.
        run_eco_loop(*last.merged, node,
                     after(Clock::now(), kEcoShare * flow_ms.back() / 1000.0), false, eco);
        round_ms = ms_since(t_round);
    } while (ms_since(t_window) + round_ms <= o.seconds * 1000.0);
    janus::Netlist& merged = *last.merged;

    // The workload's peak (flows and their interactive ECOs), before the
    // cold reference analysis and the output checks.
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    run_eco_loop(merged, node, Clock::now(), true, eco);
    report_flows(r, flow_ms, tops);
    report_eco_loop(r, eco);

    std::vector<double> block_ms;
    for (const janus::HierBlockResult& b : last.blocks) block_ms.push_back(b.flow.runtime_ms);
    double block_sum = 0;
    for (const double x : block_ms) block_sum += x;
    const double block_max = block_ms.empty() ? 0 : *std::max_element(block_ms.begin(), block_ms.end());
    r.info("flows " + std::to_string(flow_ms.size()) + ", merged instances " +
           std::to_string(merged.num_instances()) + ", blocks " +
           std::to_string(block_ms.size()) + " (max " + std::to_string(block_max) +
           " ms, mean " + std::to_string(block_sum / std::max<std::size_t>(1, block_ms.size())) +
           " ms), eco p99 " + std::to_string(percentile(eco.eco_ms, 0.99)) + " ms over " +
           std::to_string(eco.eco_ms.size()) + " ECOs");

    // --- checks --------------------------------------------------------
    const std::size_t bad = check_one_cycle(input, merged, o.seed);
    r.check("merged netlist matches the input for one cycle", bad == 0,
            bad == std::numeric_limits<std::size_t>::max()
                ? "interfaces differ"
                : std::to_string(bad) + " mismatching words");
    {
        janus::Netlist broken = merged;
        const bool corrupted = corrupt_one_gate(broken);
        const std::size_t nbad = corrupted ? check_one_cycle(input, broken, o.seed) : 0;
        r.check("negative: corrupted gate fails the one-cycle check",
                corrupted && nbad > 0 && nbad != std::numeric_limits<std::size_t>::max());
    }

    // Legality per block (instances are stitched block by block, each on
    // its own row grid), then block outlines pairwise disjoint.
    const std::int64_t site = site_nm(node), row = row_nm(node);
    std::vector<PlacedCell> cells = placed_cells(merged, site);
    const auto legality = [&](const std::vector<PlacedCell>& cs) {
        std::size_t violations = 0, begin = 0;
        std::vector<Box> boxes;
        for (const janus::HierBlockResult& b : last.blocks) {
            const std::size_t end = begin + b.flow.instances;
            if (end > cs.size()) return std::numeric_limits<std::size_t>::max();
            violations += count_illegal(cs, begin, end, site, row);
            Box box{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::min(),
                    std::numeric_limits<std::int64_t>::min()};
            for (std::size_t i = begin; i < end; ++i) {
                box.x0 = std::min(box.x0, cs[i].x);
                box.y0 = std::min(box.y0, cs[i].y);
                box.x1 = std::max(box.x1, cs[i].x + cs[i].w);
                box.y1 = std::max(box.y1, cs[i].y + row);
            }
            if (end > begin) boxes.push_back(box);
            begin = end;
        }
        if (begin != cs.size()) return std::numeric_limits<std::size_t>::max();
        for (std::size_t a = 0; a < boxes.size(); ++a) {
            for (std::size_t b = a + 1; b < boxes.size(); ++b) {
                const bool apart = boxes[a].x1 <= boxes[b].x0 || boxes[b].x1 <= boxes[a].x0 ||
                                   boxes[a].y1 <= boxes[b].y0 || boxes[b].y1 <= boxes[a].y0;
                violations += apart ? 0 : 1;
            }
        }
        return violations;
    };
    const std::size_t illegal = legality(cells);
    r.check("merged placement legal from positions", illegal == 0,
            std::to_string(illegal) + " violations");
    cells[1].x = cells[0].x;
    cells[1].y = cells[0].y;
    r.check("negative: two stacked cells fail the legality check", legality(cells) > 0);

    // --- per-layer (calls made here, outside the timed flows) ------------
    r.metric("flow.cut_nets", static_cast<double>(last.cut_nets), "count");
    r.metric("flow.stitched_nets", static_cast<double>(last.stitched_nets), "count");
    r.metric("flow.block_ms_sum", block_sum, "ms");
    r.metric("flow.block_ms_mean", block_sum / std::max<std::size_t>(1, block_ms.size()), "ms");
    r.metric("flow.block_ms_max", block_max, "ms");
    if (o.trace) {
        auto t0 = Clock::now();
        const janus::HierPartition part = janus::partition_min_cut(
            input, hp.num_blocks, hp.refine_passes, hp.balance_slack);
        r.metric("flow.partition_ms", ms_since(t0), "ms");
        r.check("partition cut matches the flow's", part.cut_nets == last.cut_nets);
        janus::StaOptions sta;
        sta.wire = janus::WireModel::for_node(node);
        janus::TimingGraph tg(merged, sta);
        t0 = Clock::now();
        tg.analyze(1);
        const double sta_ms = ms_since(t0);
        r.metric("flow.top_sta_ms", sta_ms, "ms");
        r.metric("timing.sta_ms", sta_ms, "ms");
    }
}

}  // namespace perfbench
