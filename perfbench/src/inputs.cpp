// Seeded input generators. They write .jnl text directly (cell names of the
// default library, "<FUNC>_X1"), so a change to the program's own
// generators cannot change a workload.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

class JnlWriter {
  public:
    JnlWriter(const std::string& path, const std::string& design) : f_(path) {
        if (!f_) throw std::runtime_error("cannot write " + path);
        f_ << "design " << design << "\n";
    }
    void input(const std::string& name) { f_ << "input " << name << " " << name << "\n"; }
    /// Instantiates `cell` and returns its output net name.
    std::string inst(const std::string& cell, const std::vector<std::string>& ins,
                     char prefix = 'g') {
        const std::string id = std::to_string(count_++);
        const std::string out = "n" + id;
        f_ << "inst " << prefix << id << " " << cell << " " << out;
        for (const std::string& in : ins) f_ << " " << in;
        f_ << "\n";
        return out;
    }
    void output(const std::string& name, const std::string& net) {
        f_ << "output " << name << " " << net << "\n";
    }
    void close() {
        f_.close();
        if (!f_) throw std::runtime_error("write failed");
    }

  private:
    std::ofstream f_;
    std::size_t count_ = 0;
};

/// "<prefix><k>", a port or instance name.
std::string indexed(char prefix, std::size_t k) {
    std::string s(1, prefix);
    s += std::to_string(k);
    return s;
}

/// Writes an n x n combinational array multiplier (PIs a0.., b0..; POs
/// p0..p{2n-1}).
void write_multiplier(const std::string& path, int bits) {
    JnlWriter w(path, "mult" + std::to_string(bits));
    const auto n = static_cast<std::size_t>(bits);
    const auto a = [](std::size_t k) { return indexed('a', k); };
    const auto b = [](std::size_t k) { return indexed('b', k); };
    for (std::size_t k = 0; k < n; ++k) w.input(a(k));
    for (std::size_t k = 0; k < n; ++k) w.input(b(k));
    const auto out = [&](std::size_t c, const std::string& net) {
        w.output(indexed('p', c), net);
    };
    // Carry-save array: row i adds the partial products a_j & b_i (weight
    // i + j) to the previous row's sum and carry bits with full adders
    // (XOR3 sum, MAJ3 carry into weight + 1 of the next row). Weight i is
    // final after row i; a ripple-carry row merges what is left.
    std::vector<std::string> sum(2 * n + 1), carry(2 * n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::string> next_carry(2 * n + 1);
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t wt = i + j;
            std::vector<std::string> ins = {w.inst("AND2_X1", {a(j), b(i)})};
            if (!sum[wt].empty()) ins.push_back(sum[wt]);
            if (!carry[wt].empty()) ins.push_back(carry[wt]);
            if (ins.size() == 3) {
                sum[wt] = w.inst("XOR3_X1", ins);
                next_carry[wt + 1] = w.inst("MAJ3_X1", ins);
            } else if (ins.size() == 2) {
                sum[wt] = w.inst("XOR2_X1", ins);
                next_carry[wt + 1] = w.inst("AND2_X1", ins);
            } else {
                sum[wt] = ins.front();
            }
        }
        carry = std::move(next_carry);
        out(i, sum[i]);
    }
    std::string ripple;
    for (std::size_t wt = n; wt < 2 * n; ++wt) {
        std::vector<std::string> ins;
        for (const std::string* x : {&sum[wt], &carry[wt], &ripple}) {
            if (!x->empty()) ins.push_back(*x);
        }
        std::string bit;
        if (ins.size() == 3) {
            bit = w.inst("XOR3_X1", ins);
            ripple = w.inst("MAJ3_X1", ins);
        } else if (ins.size() == 2) {
            bit = w.inst("XOR2_X1", ins);
            ripple = w.inst("AND2_X1", ins);
        } else {
            bit = ins.empty() ? w.inst("TIE0_X1", {}) : ins.front();
            ripple.clear();
        }
        out(wt, bit);
    }
    w.close();
}

/// Writes a seeded pipelined datapath mesh of about `gates` logic gates
/// with `stages` register columns.
void write_mesh(const std::string& path, const std::string& name,
                std::size_t gates, int stages, std::uint64_t seed) {
    SplitMix rng(seed);
    JnlWriter w(path, name);
    const auto rows = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(gates)))));
    const std::size_t cols = std::max<std::size_t>(2, gates / rows);
    // Logic column indices after which a register column is inserted.
    std::vector<bool> reg_after(cols, false);
    for (int s = 1; s <= stages; ++s) {
        const std::size_t c = cols * static_cast<std::size_t>(s) /
                              static_cast<std::size_t>(stages + 1);
        if (c >= 1 && c < cols) reg_after[c - 1] = true;
    }
    struct Fn {
        const char* cell;
        int arity;
    };
    static const Fn kFns[] = {
        {"NAND2_X1", 2}, {"NOR2_X1", 2},  {"AND2_X1", 2},  {"OR2_X1", 2},
        {"XOR2_X1", 2},  {"XNOR2_X1", 2}, {"INV_X1", 1},   {"AOI21_X1", 3},
        {"OAI21_X1", 3}, {"MUX2_X1", 3},  {"NAND3_X1", 3}, {"NOR3_X1", 3},
        {"MAJ3_X1", 3},  {"NAND2_X1", 2}, {"NOR2_X1", 2},  {"INV_X1", 1},
    };
    constexpr std::size_t kNumFns = sizeof kFns / sizeof kFns[0];

    std::vector<std::string> prev(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        prev[r] = "in" + std::to_string(r);
        w.input(prev[r]);
    }
    std::vector<std::string> cur(rows);
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
            const Fn& fn = kFns[rng.below(kNumFns)];
            std::vector<std::string> ins;
            for (int p = 0; p < fn.arity; ++p) {
                // Fanins from a +-2-row window of the previous column.
                const auto lo = static_cast<std::int64_t>(r) - 2;
                auto src = lo + static_cast<std::int64_t>(rng.below(5));
                src = std::clamp<std::int64_t>(src, 0,
                                               static_cast<std::int64_t>(rows) - 1);
                ins.push_back(prev[static_cast<std::size_t>(src)]);
            }
            cur[r] = w.inst(fn.cell, ins);
        }
        std::swap(prev, cur);
        if (reg_after[c]) {
            for (std::size_t r = 0; r < rows; ++r) {
                cur[r] = w.inst("DFF_X1", {prev[r]}, 'f');
            }
            std::swap(prev, cur);
        }
    }
    for (std::size_t r = 0; r < rows; ++r) w.output("out" + std::to_string(r), prev[r]);
    w.close();
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
    // Distinct streams per design, all derived from the workload seed.
    SplitMix seeds(seed * 0x100000001B3ULL + 17);
    if (workload == "flat_mult") {
        write_multiplier(dir + "/mult.jnl", kMultBits);
    } else if (workload == "hier_mesh") {
        write_mesh(dir + "/hier.jnl", "hier_mesh", kHierGates, kHierStages,
                   seeds.next());
    } else if (workload == "eco_mixed") {
        write_mesh(dir + "/eco.jnl", "eco_mesh", kEcoGates, kEcoStages, seeds.next());
        for (int b = 0; b < kBatchDesigns; ++b) {
            write_mesh(dir + "/batch" + std::to_string(b) + ".jnl",
                       "batch" + std::to_string(b), kBatchGates, 2, seeds.next());
        }
    } else {
        throw std::invalid_argument("unknown workload " + workload);
    }
}

}  // namespace perfbench
