// JanusEDA benchmark program.
//
//   janus_perfbench gen --workload W --seed N --dir D
//       writes the workload's seeded input files into D;
//   janus_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       runs the workload on those files and prints its result line last.
//       Set-up time is measured from the start of main.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: janus_perfbench gen|run --workload flat_mult|hier_mesh|eco_mixed "
                 "--seed N --dir D [--seconds S] [--trace 0|1]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o;
    o.start = Clock::now();
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload") o.workload = val;
        else if (key == "--seed") o.seed = std::stoull(val);
        else if (key == "--seconds") o.seconds = std::stod(val);
        else if (key == "--trace") o.trace = val == "1";
        else if (key == "--dir") o.dir = val;
        else return usage();
    }
    if (o.workload.empty() || o.dir.empty() || o.seconds <= 0) return usage();
    try {
        if (mode == "gen") {
            generate_inputs(o.workload, o.seed, o.dir);
            return 0;
        }
        if (mode != "run") return usage();
        Report r;
        if (o.workload == "flat_mult") run_flat_mult(o, r);
        else if (o.workload == "hier_mesh") run_hier_mesh(o, r);
        else if (o.workload == "eco_mixed") run_eco_mixed(o, r);
        else return usage();
        fill_missing_layers(r);
        if (o.trace) {
            // The untraced metrics of this run, for the tracing overhead.
            std::string line = "traced-run end-to-end:";
            for (const MetricSpec& m : e2e_metrics()) {
                char buf[96];
                std::snprintf(buf, sizeof buf, " %s=%.6g", m.name, r.metrics().at(m.name).first);
                line += buf;
            }
            r.info(line);
        }
        r.print_result(o.trace ? layer_metrics() : e2e_metrics());
        return r.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "janus_perfbench: %s\n", e.what());
        return 1;
    }
}
