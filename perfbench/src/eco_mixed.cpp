// eco_mixed: a warm flow-server session under two interactive clients
// (timing queries + resize ECOs over loopback) and one batch client (small
// designs through submit_design + run_to route), all closed loops.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/server/flow_server.hpp"
#include "janus/timing/delay_model.hpp"
#include "janus/timing/timing_graph.hpp"

namespace perfbench {

using janus::server::JsonValue;

namespace {

constexpr int kServerWorkers = 2;
constexpr int kClients = 2;
constexpr std::size_t kTargets = 8;
constexpr int kTraceCalls = 200;

struct Target {
    std::string inst, orig, up;
};

/// Submits with the default flow parameters.
std::string submit_req(const std::string& session, const std::string& text) {
    JsonValue req = JsonValue::object();
    req.set("cmd", "submit_design");
    req.set("session", session);
    req.set("netlist", text);
    return req.dump();
}

std::string run_to_req(const std::string& session, const std::string& stage) {
    return "{\"cmd\":\"run_to\",\"session\":\"" + session + "\",\"stage\":\"" + stage + "\"}";
}

const std::string kTimingReq = "{\"cmd\":\"timing\",\"session\":\"warm\"}";

std::string eco_req(const std::string& inst, const std::string& cell) {
    JsonValue edit = JsonValue::object();
    edit.set("kind", "resize");
    edit.set("instance", inst);
    edit.set("cell", cell);
    JsonValue edits = JsonValue::array();
    edits.push(std::move(edit));
    JsonValue req = JsonValue::object();
    req.set("cmd", "eco");
    req.set("session", "warm");
    req.set("edits", std::move(edits));
    return req.dump();
}

/// Parses a reply; `ok` is false unless it is an object with status "ok".
JsonValue parse_reply(const std::string& line, bool& ok) {
    try {
        JsonValue v = janus::server::parse_json(line);
        ok = v.is_object() && v.get_string("status") == "ok";
        return v;
    } catch (const std::exception&) {
        ok = false;
        return JsonValue{};
    }
}

/// Critical-path instances (endpoint first) from a timing report's
/// "critical path (N stages): name(cell) ..." line, each with its next
/// larger drive variant.
std::vector<Target> pick_targets(const std::string& report, const janus::CellLibrary& lib) {
    std::vector<Target> path;
    const auto colon = report.find("stages):");
    if (colon == std::string::npos) return path;
    std::istringstream ss(report.substr(colon + 8));
    std::string tok;
    while (ss >> tok) {
        const auto open = tok.find('(');
        if (open == std::string::npos || tok.back() != ')') continue;
        Target t{tok.substr(0, open), tok.substr(open + 1, tok.size() - open - 2), ""};
        const auto cell = lib.find(t.orig);
        if (!cell) continue;
        for (const std::size_t v : lib.variants(lib.cell(*cell).function)) {
            if (lib.cell(v).drive > lib.cell(*cell).drive) {
                t.up = lib.cell(v).name;
                break;
            }
        }
        if (!t.up.empty()) path.push_back(std::move(t));
    }
    std::vector<Target> out(path.rbegin(), path.rend());
    if (out.size() > kTargets) out.resize(kTargets);
    return out;
}

}  // namespace

void run_eco_mixed(const Options& o, Report& r) {
    const janus::TechnologyNode node = bench_node();
    const auto lib = bench_library();
    janus::server::FlowServerOptions opts;
    opts.workers = kServerWorkers;
    janus::server::FlowServer server(node, opts);

    // --- set-up: submit, run to legalize, first timing ------------------
    bool ok = false;
    std::string text = read_file(o.dir + "/eco.jnl");
    const JsonValue sub =
        parse_reply(server.handle_request(submit_req("warm", text)), ok);
    if (!ok) throw std::runtime_error("submit_design failed: " + sub.dump());
    text.clear();
    text.shrink_to_fit();
    const JsonValue placed = parse_reply(server.handle_request(run_to_req("warm", "legalize")), ok);
    if (!ok) throw std::runtime_error("run_to failed: " + placed.dump());
    const std::string first_line = server.handle_request(kTimingReq);
    const JsonValue first = parse_reply(first_line, ok);
    if (!ok) throw std::runtime_error("timing failed: " + first_line);
    r.metric("setup_s", since_start_s(o), "s");
    const std::string before = first.get_string("report");
    r.metric("area_um2", placed.get_real("area_um2"), "um2");
    r.metric("hpwl_um", placed.get_real("hpwl_um"), "um");
    r.metric("crit_delay_ps", first.get_real("critical_delay_ps"), "ps");

    const std::vector<Target> targets = pick_targets(before, *lib);
    if (targets.size() < static_cast<std::size_t>(kClients)) {
        throw std::runtime_error("critical path too short for the ECO clients");
    }
    // The checked ECO, before the load: up (compared with a cold analysis
    // below), then back (must restore the report).
    const JsonValue checked = parse_reply(
        server.handle_request(eco_req(targets[0].inst, targets[0].up)), ok);
    const bool checked_ok = ok && checked.find("incremental") &&
                            checked.at("incremental").as_bool();
    const JsonValue back = parse_reply(
        server.handle_request(eco_req(targets[0].inst, targets[0].orig)), ok);
    r.check("ECO up and back on the warm path", checked_ok && ok &&
                                                    back.get_string("report") == before);

    std::vector<std::string> batch_texts;
    for (int b = 0; b < kBatchDesigns; ++b) {
        batch_texts.push_back(read_file(o.dir + "/batch" + std::to_string(b) + ".jnl"));
    }

    // --- the load ---------------------------------------------------------
    server.start();
    std::atomic<bool> stop_batch{false};
    std::atomic<std::size_t> failures{0};
    std::vector<std::vector<double>> eco_ms(kClients), query_ms(kClients);
    std::vector<double> batch_ms;
    std::map<int, std::vector<std::int64_t>> batch_route;  // design -> route_wl seen
    std::size_t batch_flows = 0;
    double batch_s = 0;
    const auto window_end = after(Clock::now(), o.seconds);

    std::thread batch([&] {
      try {
        janus::server::JanusClient c(server.port());
        const auto t_start = Clock::now();
        for (int i = 0; !stop_batch.load() || i < kBatchDesigns; ++i) {
            const int d = i % kBatchDesigns;
            const std::string name = "batch" + std::to_string(d);
            const auto t0 = Clock::now();
            bool s_ok = false, r_ok = false;
            parse_reply(c.request(submit_req(name, batch_texts[static_cast<std::size_t>(d)])),
                        s_ok);
            const JsonValue rr = parse_reply(c.request(run_to_req(name, "route")), r_ok);
            batch_ms.push_back(ms_since(t0));
            if (!s_ok || !r_ok) failures.fetch_add(1);
            batch_route[d].push_back(rr.get_int("route_wirelength", -1));
            ++batch_flows;
        }
        batch_s = ms_since(t_start) / 1000.0;
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });

    std::vector<std::thread> clients;
    const auto t_mix = Clock::now();
    for (int ci = 0; ci < kClients; ++ci) {
        clients.emplace_back([&, ci] {
          try {
            janus::server::JanusClient c(server.port());
            do {
                for (std::size_t k = static_cast<std::size_t>(ci); k < targets.size();
                     k += kClients) {
                    for (const std::string* cell : {&targets[k].up, &targets[k].orig}) {
                        bool q_ok = false, e_ok = false;
                        auto t0 = Clock::now();
                        parse_reply(c.request(kTimingReq), q_ok);
                        query_ms[static_cast<std::size_t>(ci)].push_back(ms_since(t0));
                        t0 = Clock::now();
                        parse_reply(c.request(eco_req(targets[k].inst, *cell)), e_ok);
                        eco_ms[static_cast<std::size_t>(ci)].push_back(ms_since(t0));
                        failures.fetch_add((q_ok ? 0 : 1) + (e_ok ? 0 : 1));
                    }
                }
            } while (Clock::now() < window_end);
          } catch (const std::exception&) {
            failures.fetch_add(1);
          }
        });
    }
    for (std::thread& t : clients) t.join();
    const double mix_s = ms_since(t_mix) / 1000.0;
    stop_batch.store(true);
    batch.join();
    const janus::SchedulerStats stats = server.scheduler_stats();
    server.stop();

    std::vector<double> all_eco, all_query;
    for (int ci = 0; ci < kClients; ++ci) {
        all_eco.insert(all_eco.end(), eco_ms[static_cast<std::size_t>(ci)].begin(),
                       eco_ms[static_cast<std::size_t>(ci)].end());
        all_query.insert(all_query.end(), query_ms[static_cast<std::size_t>(ci)].begin(),
                         query_ms[static_cast<std::size_t>(ci)].end());
    }
    const std::size_t interactive = all_eco.size() + all_query.size();
    r.attempt(interactive + 2 * batch_flows);
    r.fail(failures.load());
    r.metric("eco_p50_ms", median(all_eco), "ms");
    r.metric("query_p50_ms", median(all_query), "ms");
    r.metric("interactive_rps", static_cast<double>(interactive) / mix_s, "req/s");
    r.metric("batch_flows_per_s", static_cast<double>(batch_flows) / batch_s, "flows/s");
    r.metric("flow_s", median(batch_ms) / 1000.0, "s");
    std::int64_t route_sum = 0;
    bool batch_repeat = true;
    for (const auto& [d, seen] : batch_route) {
        route_sum += seen.front();
        for (const std::int64_t x : seen) batch_repeat = batch_repeat && x == seen.front();
    }
    r.metric("route_wl", static_cast<double>(route_sum), "gcells");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    r.info("interactive " + std::to_string(interactive) + " reqs in " + std::to_string(mix_s) +
           " s; eco p99 " + std::to_string(percentile(all_eco, 0.99)) + " ms over " +
           std::to_string(all_eco.size()) + ", query p99 " +
           std::to_string(percentile(all_query, 0.99)) + " ms over " +
           std::to_string(all_query.size()) + "; batch flows " + std::to_string(batch_flows) +
           ", median " + std::to_string(median(batch_ms)) + " ms");

    // --- checks -----------------------------------------------------------
    r.check("every reply ok", failures.load() == 0,
            std::to_string(failures.load()) + " failed");
    r.check("batch designs repeat their route wirelength", batch_repeat && route_sum > 0);
    const std::string after_line = server.handle_request(kTimingReq);
    const JsonValue after = parse_reply(after_line, ok);
    r.check("toggled ECOs restore the pre-load report", ok && after.get_string("report") == before);
    const JsonValue left = parse_reply(
        server.handle_request(eco_req(targets[0].inst, targets[0].up)), ok);
    r.check("negative: an un-toggled ECO changes the report",
            ok && left.get_string("report") != before);
    parse_reply(server.handle_request(eco_req(targets[0].inst, targets[0].orig)), ok);

    // An independent flow of the same design and params: its cold analysis
    // must equal the warm replies, before and after the checked edit.
    const auto t_read = Clock::now();
    janus::Netlist design = load_netlist(o.dir + "/eco.jnl", lib);
    r.metric("netlist.read_ms", ms_since(t_read), "ms");
    r.metric("netlist.bytes_per_inst",
             static_cast<double>(design.memory_bytes()) /
                 static_cast<double>(design.num_instances()),
             "B/inst");
    janus::FlowContext ref(std::move(design), node, janus::FlowParams{});
    janus::FlowEngine().run_to(ref, "legalize");
    janus::StaOptions sta;
    sta.wire = janus::WireModel::for_node(node);
    const auto cold_report = [&] {
        janus::TimingGraph tg(ref.netlist, sta);
        tg.analyze(1);
        return janus::format_timing_report(ref.netlist, tg.report());
    };
    const bool cold_before = cold_report() == before;
    bool edited = false;
    for (janus::InstId i = 0; i < ref.netlist.num_instances(); ++i) {
        if (ref.netlist.instance_name(i) == targets[0].inst) {
            ref.netlist.instance(i).type = static_cast<std::uint32_t>(*lib->find(targets[0].up));
            edited = true;
            break;
        }
    }
    r.check("cold analysis equals the warm report before the load", cold_before);
    r.check("checked ECO equals a cold full analysis of the same edit",
            edited && cold_report() == checked.get_string("report"));

    // --- per-layer: direct calls into the session and the protocol -------
    r.metric("server.eco_preempts", static_cast<double>(stats.eco_preempts), "count");
    r.metric("server.batch_flow_ms", median(batch_ms), "ms");
    r.metric("timing.full_evals", static_cast<double>(checked.get_int("full_evals")), "count");
    if (o.trace) {
        const std::shared_ptr<janus::server::Session> s = server.sessions().find("warm");
        std::lock_guard<std::mutex> lock(s->mutex());
        std::vector<double> t_timing, t_eco, evals, t_parse, t_dump;
        for (int k = 0; k < kTraceCalls; ++k) {
            auto t0 = Clock::now();
            const janus::server::TimingOutcome q = s->timing();
            t_timing.push_back(ms_since(t0) * 1000.0);
            const Target& tg = targets[static_cast<std::size_t>(k) % targets.size()];
            for (const std::string* cell : {&tg.up, &tg.orig}) {
                janus::server::EcoEdit edit;
                edit.kind = janus::server::EcoEdit::Kind::Resize;
                edit.instance = tg.inst;
                edit.cell = *cell;
                t0 = Clock::now();
                const janus::server::TimingOutcome e = s->apply_eco({edit});
                t_eco.push_back(ms_since(t0) * 1000.0);
                evals.push_back(static_cast<double>(e.evals));
            }
            t0 = Clock::now();
            const JsonValue parsed = janus::server::parse_json(first_line);
            t_parse.push_back(ms_since(t0) * 1000.0);
            t0 = Clock::now();
            const std::string dumped = parsed.dump();
            t_dump.push_back(ms_since(t0) * 1000.0);
            if (dumped.size() != first_line.size() || q.report_text != before) {
                r.check("direct session calls agree with the wire", false);
            }
        }
        r.metric("server.timing_us", median(t_timing), "us");
        r.metric("server.apply_eco_us", median(t_eco), "us");
        r.metric("server.parse_us", median(t_parse), "us");
        r.metric("server.dump_us", median(t_dump), "us");
        r.metric("timing.eco_evals", median(evals), "count");
    }
}

}  // namespace perfbench
