// Output checks computed apart from the program: a bit-parallel simulator
// over the cell functions, multi-word multiplication, a row/site/overlap
// legality check from positions, and the incremental-timing ECO loop with
// its cold reference.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "janus/timing/delay_model.hpp"
#include "janus/timing/sta.hpp"
#include "janus/timing/timing_graph.hpp"

namespace perfbench {

using janus::CellFunction;
using janus::InstId;
using janus::NetId;
using janus::Netlist;

namespace {

// ----------------------------------------------------------------- WordSim

/// Bit-parallel simulator over the library's cell functions: 64 input
/// vectors per word. Implements every CellFunction itself.
class WordSim {
  public:
    explicit WordSim(const Netlist& nl);
    /// Evaluates the combinational logic for the given primary-input words
    /// (primary_inputs() order) and flop-state words (per instance id;
    /// ignored for combinational instances). Returns one word per net.
    std::vector<std::uint64_t> eval(const std::vector<std::uint64_t>& pi,
                                    const std::vector<std::uint64_t>& state) const;

  private:
    const Netlist& nl_;
    std::vector<InstId> order_;  ///< combinational, topological
};

WordSim::WordSim(const Netlist& nl) : nl_(nl) {
    // Own Kahn levelization: flop outputs and primary inputs are sources.
    const std::size_t n = nl.num_instances();
    std::vector<std::uint32_t> indeg(n, 0);
    std::vector<std::vector<InstId>> fanout(n);
    const auto comb = [&](InstId i) {
        return !janus::is_sequential(nl.type_of(i).function);
    };
    for (InstId i = 0; i < n; ++i) {
        if (!comb(i)) continue;
        const int arity = janus::function_arity(nl.type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId f = nl.instance(i).fanin[static_cast<std::size_t>(p)];
            if (f == janus::kNoNet) continue;
            const janus::Net& net = nl.net(f);
            if (net.driver_kind == janus::DriverKind::Instance && comb(net.driver_inst)) {
                ++indeg[i];
                fanout[net.driver_inst].push_back(i);
            }
        }
    }
    for (InstId i = 0; i < n; ++i) {
        if (comb(i) && indeg[i] == 0) order_.push_back(i);
    }
    for (std::size_t k = 0; k < order_.size(); ++k) {
        for (const InstId s : fanout[order_[k]]) {
            if (--indeg[s] == 0) order_.push_back(s);
        }
    }
    std::size_t comb_count = 0;
    for (InstId i = 0; i < n; ++i) comb_count += comb(i) ? 1 : 0;
    if (order_.size() != comb_count) {
        throw std::runtime_error("WordSim: combinational loop");
    }
}

std::vector<std::uint64_t> WordSim::eval(const std::vector<std::uint64_t>& pi,
                                         const std::vector<std::uint64_t>& state) const {
    std::vector<std::uint64_t> v(nl_.num_nets(), 0);
    const auto& pis = nl_.primary_inputs();
    for (std::size_t k = 0; k < pis.size(); ++k) v[pis[k]] = pi[k];
    for (InstId i = 0; i < nl_.num_instances(); ++i) {
        if (janus::is_sequential(nl_.type_of(i).function)) {
            v[nl_.instance(i).output] = state[i];
        }
    }
    for (const InstId i : order_) {
        const janus::Instance& inst = nl_.instance(i);
        const auto in = [&](int p) {
            const NetId f = inst.fanin[static_cast<std::size_t>(p)];
            return f == janus::kNoNet ? std::uint64_t{0} : v[f];
        };
        std::uint64_t a = 0, b = 0, c = 0, d = 0;
        const CellFunction fn = nl_.type_of(i).function;
        const int arity = janus::function_arity(fn);
        if (arity > 0) a = in(0);
        if (arity > 1) b = in(1);
        if (arity > 2) c = in(2);
        if (arity > 3) d = in(3);
        std::uint64_t out = 0;
        switch (fn) {
            case CellFunction::Const0: out = 0; break;
            case CellFunction::Const1: out = ~0ULL; break;
            case CellFunction::Buf: out = a; break;
            case CellFunction::Inv: out = ~a; break;
            case CellFunction::And2: out = a & b; break;
            case CellFunction::And3: out = a & b & c; break;
            case CellFunction::And4: out = a & b & c & d; break;
            case CellFunction::Nand2: out = ~(a & b); break;
            case CellFunction::Nand3: out = ~(a & b & c); break;
            case CellFunction::Nand4: out = ~(a & b & c & d); break;
            case CellFunction::Or2: out = a | b; break;
            case CellFunction::Or3: out = a | b | c; break;
            case CellFunction::Or4: out = a | b | c | d; break;
            case CellFunction::Nor2: out = ~(a | b); break;
            case CellFunction::Nor3: out = ~(a | b | c); break;
            case CellFunction::Nor4: out = ~(a | b | c | d); break;
            case CellFunction::Xor2: out = a ^ b; break;
            case CellFunction::Xnor2: out = ~(a ^ b); break;
            case CellFunction::Xor3: out = a ^ b ^ c; break;
            case CellFunction::Mux2: out = (a & c) | (~a & b); break;  // sel ? b : a
            case CellFunction::Aoi21: out = ~((a & b) | c); break;
            case CellFunction::Oai21: out = ~((a | b) & c); break;
            case CellFunction::Maj3: out = (a & b) | (a & c) | (b & c); break;
            case CellFunction::Dff:
            case CellFunction::ScanDff: break;
        }
        v[inst.output] = out;
    }
    return v;
}

// ------------------------------------------------------------ product check

using Limbs = std::vector<std::uint32_t>;

bool bit_of(const Limbs& x, std::size_t k) { return (x[k / 32] >> (k % 32)) & 1u; }

Limbs multiply(const Limbs& a, const Limbs& b) {
    Limbs p(a.size() + b.size(), 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < b.size(); ++j) {
            const std::uint64_t t = static_cast<std::uint64_t>(a[i]) * b[j] +
                                    p[i + j] + carry;
            p[i + j] = static_cast<std::uint32_t>(t);
            carry = t >> 32;
        }
        p[i + b.size()] = static_cast<std::uint32_t>(carry);
    }
    return p;
}

/// Operand with bit k set per `f(k)`, masked to `bits`.
template <typename F>
Limbs operand(int bits, F&& f) {
    Limbs x((static_cast<std::size_t>(bits) + 31) / 32, 0);
    for (int k = 0; k < bits; ++k) {
        if (f(k)) x[static_cast<std::size_t>(k) / 32] |= 1u << (k % 32);
    }
    return x;
}

std::unordered_map<std::string, std::size_t> pi_index(const Netlist& nl) {
    std::unordered_map<std::string, std::size_t> m;
    const auto& pis = nl.primary_inputs();
    for (std::size_t k = 0; k < pis.size(); ++k) m.emplace(nl.net_name(pis[k]), k);
    return m;
}

}  // namespace

std::size_t check_product(const Netlist& nl, int bits, std::uint64_t seed) {
    const auto n = static_cast<std::size_t>(bits);
    const auto pis = pi_index(nl);
    std::vector<std::size_t> a_idx(n), b_idx(n);
    for (std::size_t k = 0; k < n; ++k) {
        const auto ia = pis.find(std::string("a") + std::to_string(k));
        const auto ib = pis.find(std::string("b") + std::to_string(k));
        if (ia == pis.end() || ib == pis.end()) return std::numeric_limits<std::size_t>::max();
        a_idx[k] = ia->second;
        b_idx[k] = ib->second;
    }
    std::map<std::string, NetId> pos;
    for (const auto& [name, net] : nl.primary_outputs()) pos.emplace(name, net);
    std::vector<NetId> p_net(2 * n);
    for (std::size_t c = 0; c < 2 * n; ++c) {
        const auto it = pos.find(std::string("p") + std::to_string(c));
        if (it == pos.end()) return std::numeric_limits<std::size_t>::max();
        p_net[c] = it->second;
    }

    // Corner operands first, then seeded random ones: 16 words of 64.
    SplitMix rng(seed ^ 0xC0FFEEULL);
    const auto ones = [](int) { return true; };
    const auto zero = [](int) { return false; };
    std::vector<std::pair<Limbs, Limbs>> cases = {
        {operand(bits, zero), operand(bits, zero)},
        {operand(bits, ones), operand(bits, ones)},
        {operand(bits, ones), operand(bits, [](int k) { return k == 0; })},
        {operand(bits, [](int k) { return k == 0; }), operand(bits, ones)},
        {operand(bits, ones), operand(bits, zero)},
        {operand(bits, [bits](int k) { return k == bits - 1; }),
         operand(bits, [bits](int k) { return k == bits - 1; })},
        {operand(bits, [](int k) { return k % 2 == 0; }),
         operand(bits, [](int k) { return k % 2 == 1; })},
        {operand(bits, [](int k) { return k % 2 == 1; }), operand(bits, ones)},
    };
    constexpr std::size_t kWords = 16;
    while (cases.size() < 64 * kWords) {
        // Mix dense random operands with sparse ones (long carry chains).
        const bool sparse = rng.below(4) == 0;
        const auto draw = [&](int) { return sparse ? rng.below(16) == 0 : (rng.next() & 1) != 0; };
        Limbs a = operand(bits, draw);
        Limbs b = operand(bits, draw);
        cases.emplace_back(std::move(a), std::move(b));
    }

    WordSim sim(nl);
    std::vector<std::uint64_t> state(nl.num_instances(), 0);
    std::size_t mismatches = 0;
    for (std::size_t wd = 0; wd < kWords; ++wd) {
        std::vector<std::uint64_t> pi(nl.primary_inputs().size(), 0);
        for (std::size_t t = 0; t < 64; ++t) {
            const auto& [a, b] = cases[wd * 64 + t];
            for (std::size_t k = 0; k < n; ++k) {
                if (bit_of(a, k)) pi[a_idx[k]] |= 1ULL << t;
                if (bit_of(b, k)) pi[b_idx[k]] |= 1ULL << t;
            }
        }
        const auto v = sim.eval(pi, state);
        for (std::size_t t = 0; t < 64; ++t) {
            const auto& [a, b] = cases[wd * 64 + t];
            const Limbs prod = multiply(a, b);
            bool ok = true;
            for (std::size_t c = 0; c < 2 * n && ok; ++c) {
                ok = ((v[p_net[c]] >> t) & 1ULL) == static_cast<std::uint64_t>(bit_of(prod, c));
            }
            mismatches += ok ? 0 : 1;
        }
    }
    return mismatches;
}

// ---------------------------------------------------------- one-cycle check

std::size_t check_one_cycle(const Netlist& ref, const Netlist& impl,
                            std::uint64_t seed) {
    constexpr std::size_t kBad = std::numeric_limits<std::size_t>::max();
    const auto ref_pis = pi_index(ref);
    const auto impl_pis = pi_index(impl);
    if (ref_pis.size() != impl_pis.size()) return kBad;
    std::vector<std::size_t> pi_map(ref.primary_inputs().size());  // ref -> impl
    for (const auto& [name, k] : ref_pis) {
        const auto it = impl_pis.find(name);
        if (it == impl_pis.end()) return kBad;
        pi_map[k] = it->second;
    }
    // Flops by instance name.
    std::unordered_map<std::string_view, InstId> impl_flops;
    for (InstId i = 0; i < impl.num_instances(); ++i) {
        if (janus::is_sequential(impl.type_of(i).function)) {
            impl_flops.emplace(impl.instance_name(i), i);
        }
    }
    std::vector<std::pair<InstId, InstId>> flops;  // (ref, impl)
    for (InstId i = 0; i < ref.num_instances(); ++i) {
        if (!janus::is_sequential(ref.type_of(i).function)) continue;
        const auto it = impl_flops.find(ref.instance_name(i));
        if (it == impl_flops.end()) return kBad;
        flops.emplace_back(i, it->second);
    }
    if (flops.size() != impl_flops.size()) return kBad;
    std::map<std::string, NetId> impl_pos;
    for (const auto& [name, net] : impl.primary_outputs()) impl_pos.emplace(name, net);
    if (impl_pos.size() != ref.primary_outputs().size()) return kBad;
    std::vector<std::pair<NetId, NetId>> outs;  // (ref, impl)
    for (const auto& [name, net] : ref.primary_outputs()) {
        const auto it = impl_pos.find(name);
        if (it == impl_pos.end()) return kBad;
        outs.emplace_back(net, it->second);
    }

    WordSim ref_sim(ref), impl_sim(impl);
    SplitMix rng(seed ^ 0x5EEDF10FULL);
    std::size_t mismatches = 0;
    for (int wd = 0; wd < 4; ++wd) {
        std::vector<std::uint64_t> ref_pi(ref.primary_inputs().size());
        std::vector<std::uint64_t> impl_pi(impl.primary_inputs().size());
        for (std::size_t k = 0; k < ref_pi.size(); ++k) {
            ref_pi[k] = rng.next();
            impl_pi[pi_map[k]] = ref_pi[k];
        }
        std::vector<std::uint64_t> ref_st(ref.num_instances(), 0);
        std::vector<std::uint64_t> impl_st(impl.num_instances(), 0);
        for (const auto& [ri, ii] : flops) ref_st[ri] = impl_st[ii] = rng.next();
        const auto rv = ref_sim.eval(ref_pi, ref_st);
        const auto iv = impl_sim.eval(impl_pi, impl_st);
        for (const auto& [ri, ii] : flops) {
            const NetId rd = ref.instance(ri).fanin[0];
            const NetId id = impl.instance(ii).fanin[0];
            mismatches += rv[rd] != iv[id] ? 1 : 0;
        }
        for (const auto& [rn, in] : outs) mismatches += rv[rn] != iv[in] ? 1 : 0;
    }
    return mismatches;
}

// ---------------------------------------------------------------- legality

std::vector<PlacedCell> placed_cells(const Netlist& nl, std::int64_t site) {
    std::vector<PlacedCell> cells(nl.num_instances());
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const janus::Instance& inst = nl.instance(i);
        const auto sites = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(std::ceil(nl.type_of(i).width_tracks)));
        cells[i] = PlacedCell{inst.position.x, inst.position.y, sites * site, inst.placed};
    }
    return cells;
}

std::size_t count_illegal(const std::vector<PlacedCell>& cells, std::size_t begin,
                          std::size_t end, std::int64_t site, std::int64_t row) {
    if (begin >= end) return 0;
    std::int64_t ox = std::numeric_limits<std::int64_t>::max(), oy = ox;
    for (std::size_t i = begin; i < end; ++i) {
        ox = std::min(ox, cells[i].x);
        oy = std::min(oy, cells[i].y);
    }
    std::size_t bad = 0;
    std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> rows;
    for (std::size_t i = begin; i < end; ++i) {
        const PlacedCell& c = cells[i];
        if (!c.placed || (c.x - ox) % site != 0 || (c.y - oy) % row != 0) {
            ++bad;
            continue;
        }
        rows[c.y].emplace_back(c.x, c.x + c.w);
    }
    for (auto& [y, spans] : rows) {
        std::sort(spans.begin(), spans.end());
        std::int64_t reach = std::numeric_limits<std::int64_t>::min();
        for (const auto& [x0, x1] : spans) {
            if (x0 < reach) ++bad;
            reach = std::max(reach, x1);
        }
    }
    return bad;
}

bool corrupt_one_gate(Netlist& nl) {
    static const std::pair<CellFunction, CellFunction> kComplement[] = {
        {CellFunction::Buf, CellFunction::Inv},     {CellFunction::And2, CellFunction::Nand2},
        {CellFunction::And3, CellFunction::Nand3},  {CellFunction::And4, CellFunction::Nand4},
        {CellFunction::Or2, CellFunction::Nor2},    {CellFunction::Or3, CellFunction::Nor3},
        {CellFunction::Or4, CellFunction::Nor4},    {CellFunction::Xor2, CellFunction::Xnor2},
    };
    for (const auto& [name, net] : nl.primary_outputs()) {
        const janus::Net& n = nl.net(net);
        if (n.driver_kind != janus::DriverKind::Instance) continue;
        const CellFunction fn = nl.type_of(n.driver_inst).function;
        for (const auto& [x, y] : kComplement) {
            if (fn != x && fn != y) continue;
            const auto cell = nl.library().find_function(fn == x ? y : x);
            if (!cell) continue;
            nl.instance(n.driver_inst).type = static_cast<std::uint32_t>(*cell);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------- ECO loop

namespace {
constexpr std::size_t kEcoTargets = 256;
}  // namespace

void run_eco_loop(Netlist& nl, const janus::TechnologyNode& node, Clock::time_point until,
                  bool cold_check, EcoLoopResult& res) {
    janus::StaOptions sta;
    sta.wire = janus::WireModel::for_node(node);
    janus::TimingGraph tg(nl, sta);
    tg.analyze(1);
    const janus::TimingReport first = tg.report();
    const std::string initial = janus::format_timing_report(nl, first);
    res.full_evals = 2 * nl.topological_order().size();

    // The checked edit is the critical-path instance nearest the endpoint
    // with a larger drive; the timed edits are spread evenly over the
    // instance ids, so their median does not hinge on one path's cone.
    const janus::CellLibrary& lib = nl.library();
    const auto upsize = [&](InstId i) -> std::optional<std::uint32_t> {
        const janus::CellType& cur = nl.type_of(i);
        if (janus::is_sequential(cur.function)) return std::nullopt;
        for (const std::size_t v : lib.variants(cur.function)) {
            if (lib.cell(v).drive > cur.drive) return static_cast<std::uint32_t>(v);
        }
        return std::nullopt;
    };
    std::optional<std::pair<InstId, std::uint32_t>> checked;
    for (auto it = first.critical_path.rbegin(); it != first.critical_path.rend(); ++it) {
        if (const auto up = upsize(*it)) {
            checked.emplace(*it, *up);
            break;
        }
    }
    std::vector<std::pair<InstId, std::uint32_t>> targets;  // (inst, up type)
    const std::size_t n = nl.num_instances();
    for (std::size_t k = 0; k < kEcoTargets; ++k) {
        for (auto i = static_cast<InstId>(k * n / kEcoTargets); i < n; ++i) {
            if (const auto up = upsize(i)) {
                targets.emplace_back(i, *up);
                break;
            }
        }
    }
    if (!checked || targets.empty()) {
        res.negative_caught = false;
        return;
    }

    const auto set_type = [&](InstId i, std::uint32_t type) {
        nl.instance(i).type = type;
        tg.resize(i);
        return tg.update();
    };
    // The checked ECO, against a cold full analysis of the same edit when
    // asked, and the negative test: left un-toggled, it must change the report.
    {
        const auto [inst, up] = *checked;
        const std::uint32_t orig = nl.instance(inst).type;
        set_type(inst, up);
        const std::string warm = janus::format_timing_report(nl, tg.report());
        if (cold_check) {
            janus::TimingGraph cold(nl, sta);
            cold.analyze(1);
            res.cold_match = warm == janus::format_timing_report(nl, cold.report());
        }
        res.negative_caught = res.negative_caught && warm != initial;
        set_type(inst, orig);
    }

    std::vector<double> evals;
    const auto t_loop = Clock::now();
    while (Clock::now() < until) {
        for (const auto& [inst, up] : targets) {
            const std::uint32_t orig = nl.instance(inst).type;
            for (const std::uint32_t type : {up, orig}) {
                auto t0 = Clock::now();
                const janus::TimingReport q = tg.report();
                const std::string qtext = janus::format_timing_report(nl, q);
                res.query_ms.push_back(ms_since(t0));
                t0 = Clock::now();
                const janus::TimingUpdateStats st = set_type(inst, type);
                const std::string etext = janus::format_timing_report(nl, tg.report());
                res.eco_ms.push_back(ms_since(t0));
                evals.push_back(static_cast<double>(st.instances_reevaluated()));
                res.ops += 2;
            }
        }
    }
    res.wall_ms += ms_since(t_loop);
    if (!evals.empty()) res.eco_evals = static_cast<std::size_t>(median(evals));
    res.restored = res.restored && janus::format_timing_report(nl, tg.report()) == initial;
}

}  // namespace perfbench
