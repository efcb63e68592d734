// flat_mult: the multiplier through the flat FlowEngine pipeline
// (synthesis-heavy), checked by arithmetic and by legality from positions.

#include <map>
#include <memory>

#include "bench.hpp"
#include "janus/flow/flow_engine.hpp"

namespace perfbench {

namespace {

constexpr int kSaMovesPerCell = 8;

struct StageSamples {
    std::map<std::string, std::vector<double>> ms;   ///< per stage wall time
    std::map<std::string, std::vector<double>> note; ///< "stage.key" values
};

/// Runs the whole pipeline, one run_to per stage when tracing.
void run_flow(const janus::FlowEngine& engine, janus::FlowContext& ctx, bool trace,
              StageSamples& samples) {
    const auto& stages = engine.stages();
    if (!trace) {
        engine.run_to(ctx, stages.back().name);
        return;
    }
    for (const janus::FlowStage& stage : stages) {
        const auto t0 = Clock::now();
        engine.run_to(ctx, stage.name);
        samples.ms[stage.name].push_back(ms_since(t0));
        const janus::StageTraceEntry& e = ctx.trace.entries.back();
        for (const janus::StageNote& n : e.notes) {
            samples.note[stage.name + "." + n.key].push_back(
                e.note_real(n.key));
        }
    }
}

}  // namespace

void run_flat_mult(const Options& o, Report& r) {
    const janus::TechnologyNode node = bench_node();
    const auto lib = bench_library();
    const auto t_read = Clock::now();
    auto input = std::make_unique<janus::Netlist>(load_netlist(o.dir + "/mult.jnl", lib));
    const double read_ms = ms_since(t_read);
    r.metric("setup_s", since_start_s(o), "s");
    r.metric("netlist.read_ms", read_ms, "ms");
    r.metric("netlist.bytes_per_inst",
             static_cast<double>(input->memory_bytes()) /
                 static_cast<double>(input->num_instances()),
             "B/inst");

    janus::FlowParams params;
    params.sa_moves_per_cell = kSaMovesPerCell;
    const janus::FlowEngine engine;
    StageSamples samples;
    std::vector<double> flow_ms;
    std::vector<janus::FlowResult> results;
    std::unique_ptr<janus::FlowContext> ctx;
    EcoLoopResult eco;
    const auto t_window = Clock::now();
    double round_ms = 0;
    do {
        const auto t_round = Clock::now();
        ctx.reset();
        const auto t0 = Clock::now();
        ctx = std::make_unique<janus::FlowContext>(*input, node, params);
        run_flow(engine, *ctx, o.trace, samples);
        flow_ms.push_back(ms_since(t0));
        r.attempt();
        if (ctx->result.failed()) r.fail();
        results.push_back(ctx->result);
        // Interactive ECOs on the implemented design.
        run_eco_loop(ctx->netlist, node, after(Clock::now(), kEcoShare * flow_ms.back() / 1000.0),
                     false, eco);
        round_ms = ms_since(t_round);
    } while (ms_since(t_window) + round_ms <= o.seconds * 1000.0);
    input.reset();
    // The workload's peak (flows and their interactive ECOs), before the
    // cold reference analysis and the output checks.
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    run_eco_loop(ctx->netlist, node, Clock::now(), true, eco);
    report_flows(r, flow_ms, results);
    report_eco_loop(r, eco);
    r.info("flows " + std::to_string(flow_ms.size()) + ", mapped instances " +
           std::to_string(ctx->result.instances) + ", eco p99 " +
           std::to_string(percentile(eco.eco_ms, 0.99)) + " ms over " +
           std::to_string(eco.eco_ms.size()) + " ECOs");

    // --- checks --------------------------------------------------------
    const std::size_t bad_products = check_product(ctx->netlist, kMultBits, o.seed);
    r.check("product equals multi-word arithmetic", bad_products == 0,
            std::to_string(bad_products) + " of 1024 vectors wrong");
    janus::Netlist broken = ctx->netlist;
    r.check("negative: corrupted gate fails the product check",
            corrupt_one_gate(broken) && check_product(broken, kMultBits, o.seed) > 0);

    const std::int64_t site = site_nm(node), row = row_nm(node);
    std::vector<PlacedCell> cells = placed_cells(ctx->netlist, site);
    const std::size_t illegal = count_illegal(cells, 0, cells.size(), site, row);
    r.check("placement legal from positions", illegal == 0,
            std::to_string(illegal) + " violations");
    cells[1].x = cells[0].x;
    cells[1].y = cells[0].y;
    r.check("negative: two stacked cells fail the legality check",
            count_illegal(cells, 0, cells.size(), site, row) > 0);

    // --- per-layer -----------------------------------------------------
    const auto ms = [&](const char* stage) { return median(samples.ms[stage]); };
    const auto note = [&](const char* key) { return median(samples.note[key]); };
    r.metric("logic.optimize_ms", ms("optimize"), "ms");
    r.metric("logic.cuts", note("optimize.cuts"), "count");
    r.metric("logic.memo_hits", note("optimize.memo_hits"), "count");
    r.metric("logic.memo_misses", note("optimize.memo_misses"), "count");
    r.metric("logic.espresso_calls", note("optimize.espresso"), "count");
    r.metric("logic.replacements", note("optimize.replacements"), "count");
    r.metric("logic.map_ms", ms("map"), "ms");
    r.metric("logic.map_matched", note("map.matched"), "count");
    r.metric("place.global_ms", ms("place"), "ms");
    r.metric("place.legalize_ms", ms("legalize"), "ms");
    r.metric("place.sa_ms", ms("sa_refine"), "ms");
    r.metric("place.sa_accepted", note("sa_refine.accepted"), "count");
    r.metric("place.sa_commit_rate", note("sa_refine.commit_rate"), "ratio");
    r.metric("route.ms", ms("route"), "ms");
    r.metric("route.rounds", note("route.rounds"), "count");
    r.metric("route.commit_rate", note("route.commit_rate"), "ratio");
    r.metric("route.nets_per_round", note("route.nets_per_round"), "count");
    r.metric("timing.sta_ms", ms("sta"), "ms");
}

}  // namespace perfbench
