// The fleet workloads. fleet-impl analyzes implementation-fidelity systems
// (platform refs on ~60% of components), where CPE binding and match
// materialization dominate; fleet-design analyzes larger design-phase
// systems with no platform refs, which bypass binding entirely, so the
// analysis passes and the lexical kernel do the work.

#include <set>

#include "analysis/posture.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "flow/flow.hpp"
#include "search/association.hpp"
#include "synth/zoo.hpp"
#include "text/tokenize.hpp"

namespace pb {

using namespace cybok;

namespace {

constexpr FleetShape kImplShape{16, 50, 0.6};
constexpr FleetShape kDesignShape{16, 200, 0.0};

/// Per-layer totals over one traced replay of a fleet batch.
struct PassLayers {
    double zoo = 0, associate = 0, tokenize = 0, lexical = 0, bind = 0, materialize = 0;
    double posture = 0, flow = 0, paths = 0, wall = 0;
    double platform_queries = 0, vuln_matches = 0, queries = 0, unique_descriptors = 0;
    double taint_iterations = 0, edges_traversed = 0, paths_found = 0;
    /// What the replay found per system, to hold against analyze_fleet's report.
    struct Seen {
        std::string name;
        std::size_t vulnerabilities, paths_found, tainted;
    };
    std::vector<Seen> seen;
};

/// Times the association layers of one model attribute by attribute:
/// tokenize, the lexical kernel (query_text minus its tokenize), CPE
/// binding (Corpus::vulnerabilities_for) and match materialization
/// (query_platform minus binding).
void decompose_association(const search::QueryEngine& engine, const model::SystemModel& m,
                           PassLayers& l, std::set<std::string>& descriptors) {
    const kb::Corpus& corpus = engine.corpus();
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        for (const model::Attribute& a : c.attributes) {
            if (a.kind == model::AttributeKind::Parameter) continue;
            const std::string text = a.name + " " + a.value;
            Clock::time_point t = Clock::now();
            (void)text::analyze(text);
            const double tok = ms_since(t);
            t = Clock::now();
            (void)engine.query_text(text, search::VectorClass::AttackPattern);
            (void)engine.query_text(text, search::VectorClass::Weakness);
            const double lex = ms_since(t);
            l.tokenize += tok;
            l.lexical += lex - 2.0 * tok; // query_text tokenizes once per class
            l.queries += 1;
            descriptors.insert(a.name + '\x1f' + a.value +
                               (a.platform ? '\x1f' + a.platform->uri() : std::string()));
            if (a.kind != model::AttributeKind::PlatformRef || !a.platform) continue;
            t = Clock::now();
            const std::size_t bound = corpus.vulnerabilities_for(*a.platform).size();
            const double bind = ms_since(t);
            t = Clock::now();
            const std::size_t matches = engine.query_platform(*a.platform).size();
            const double platform = ms_since(t);
            check(bound == matches, "trace: binding and query_platform disagree");
            l.bind += bind;
            l.materialize += platform - bind;
            l.platform_queries += 1;
            l.vuln_matches += static_cast<double>(matches);
        }
    }
}

/// Replays analyze_fleet's per-system pipeline through the layers' public
/// functions, timing each call.
PassLayers traced_pass(const search::QueryEngine& engine, const analysis::FleetOptions& o) {
    PassLayers l;
    std::set<std::string> descriptors;
    const std::vector<synth::ZooDomain>& domains = synth::all_zoo_domains();
    for (std::size_t i = 0; i < o.systems; ++i) {
        synth::ZooConfig cfg;
        cfg.domain = domains[i % domains.size()];
        cfg.seed = o.base_seed + i;
        cfg.components = o.components;
        cfg.platform_ref_prob = o.platform_ref_prob;
        cfg.parameter_prob = o.parameter_prob;

        const Clock::time_point t0 = Clock::now();
        const synth::ZooSystem sys = synth::generate_zoo_system(cfg);
        const Clock::time_point t1 = Clock::now();
        const search::AssociationMap assoc = search::associate(sys.model, engine);
        const Clock::time_point t2 = Clock::now();
        (void)analysis::compute_posture(sys.model, assoc);
        const Clock::time_point t3 = Clock::now();
        const flow::FlowResult fr = flow::analyze(sys.model, assoc, &sys.hazards, o.flow);
        const Clock::time_point t4 = Clock::now();
        std::size_t found = 0;
        for (const flow::ComponentFlow& cf : fr.components)
            if (cf.hazard_linked)
                found += analysis::attack_paths(sys.model, assoc, cf.component, o.paths).size();
        const Clock::time_point t5 = Clock::now();

        l.zoo += ms_between(t0, t1);
        l.associate += ms_between(t1, t2);
        l.posture += ms_between(t2, t3);
        l.flow += ms_between(t3, t4);
        l.paths += ms_between(t4, t5);
        l.wall += ms_between(t0, t5);
        l.taint_iterations += static_cast<double>(fr.counts.taint_iterations);
        l.edges_traversed += static_cast<double>(fr.counts.edges_traversed);
        l.paths_found += static_cast<double>(found);

        l.seen.push_back({sys.model.name(), assoc.total(search::VectorClass::Vulnerability),
                          found, fr.counts.tainted});

        decompose_association(engine, sys.model, l, descriptors);
    }
    l.unique_descriptors = static_cast<double>(descriptors.size());
    return l;
}

} // namespace

analysis::FleetOptions fleet_options(const FleetShape& shape, std::uint64_t base_seed,
                                     std::size_t threads) {
    analysis::FleetOptions o;
    o.systems = shape.systems;
    o.components = shape.components;
    o.platform_ref_prob = shape.platform_ref_prob;
    o.base_seed = base_seed;
    o.threads = threads;
    return o;
}

void trace_fleet_layers(const Backend& backend, const analysis::FleetOptions& options,
                        double seconds, Outcome& out) {
    const search::QueryEngine& engine = backend.engine->query();
    BruteForceBinding binding(*backend.corpus);
    analysis::FleetOptions single = options;
    single.threads = 1; // the replay is sequential, so compare like with like
    std::vector<double> untraced;
    std::vector<PassLayers> passes;
    const Clock::time_point start = Clock::now();
    for (std::size_t pass = 0; pass == 0 || ms_since(start) < seconds * 1000.0; ++pass) {
        // Alternate which side runs first, so neither is always the one
        // that warms the allocator and caches for the other.
        if (pass % 2 == 1) passes.push_back(traced_pass(engine, single));
        const Clock::time_point t = Clock::now();
        const analysis::FleetResult result = analysis::analyze_fleet(engine, single);
        untraced.push_back(ms_since(t));
        if (pass % 2 == 0) passes.push_back(traced_pass(engine, single));
        check_fleet(result, single, binding);
        for (const PassLayers::Seen& s : passes.back().seen) {
            const analysis::FleetSystemReport* r = result.find(s.name);
            check(r != nullptr && r->vulnerabilities == s.vulnerabilities &&
                      r->paths_found == s.paths_found && r->tainted == s.tainted,
                  "trace: replay of " + s.name + " differs from analyze_fleet");
        }
        out.attempted += 2 * single.systems;
    }

    auto med = [&](double PassLayers::*field) {
        std::vector<double> v;
        for (const PassLayers& p : passes) v.push_back(p.*field);
        return median(std::move(v));
    };
    const double untraced_ms = median(untraced);
    const double parts = med(&PassLayers::zoo) + med(&PassLayers::associate) +
                         med(&PassLayers::posture) + med(&PassLayers::flow) +
                         med(&PassLayers::paths);
    out.add("text.tokenize_ms", med(&PassLayers::tokenize), "ms");
    out.add("search.lexical_ms", med(&PassLayers::lexical), "ms");
    out.add("kb.bind_ms", med(&PassLayers::bind), "ms");
    out.add("search.materialize_ms", med(&PassLayers::materialize), "ms");
    out.add("search.platform_queries", med(&PassLayers::platform_queries), "count");
    out.add("search.vuln_matches", med(&PassLayers::vuln_matches), "count");
    out.add("search.associate_ms", med(&PassLayers::associate), "ms");
    out.add("search.queries", med(&PassLayers::queries), "count");
    out.add("search.unique_descriptors", med(&PassLayers::unique_descriptors), "count");
    out.add("analysis.posture_ms", med(&PassLayers::posture), "ms");
    out.add("flow.analyze_ms", med(&PassLayers::flow), "ms");
    out.add("analysis.paths_ms", med(&PassLayers::paths), "ms");
    out.add("flow.taint_iterations", med(&PassLayers::taint_iterations), "count");
    out.add("flow.edges_traversed", med(&PassLayers::edges_traversed), "count");
    out.add("analysis.paths_found", med(&PassLayers::paths_found), "count");
    out.add("synth.zoo_gen_ms", med(&PassLayers::zoo), "ms");
    out.add("analysis.fleet_untraced_ms", untraced_ms, "ms");
    out.add("analysis.fleet_other_ms", untraced_ms - parts, "ms");
    out.add("trace.coverage", parts / untraced_ms, "ratio");
    out.add("trace.overhead_ms", med(&PassLayers::wall) - untraced_ms, "ms");
    out.info["trace_passes"] = passes.size();
    out.info["trace_systems_per_pass"] = single.systems;
}

void run_fleet(const Args& args, Outcome& out) {
    const bool design = args.workload == "fleet-design";
    const FleetShape shape = design ? kDesignShape : kImplShape;
    const std::uint64_t base_seed = derive(args.seed, 1) % 1000000000;

    std::vector<double> setup_s;
    Backend backend;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
        backend = Backend{}; // release the previous set-up before timing the next
        const Clock::time_point t = Clock::now();
        backend = build_backend(derive(args.seed, 0));
        setup_s.push_back(ms_since(t) / 1000.0);
    }
    out.info["fleet_systems_per_call"] = shape.systems;
    out.info["components"] = shape.components;
    out.info["platform_ref_prob"] = shape.platform_ref_prob;

    if (args.trace) {
        trace_fleet_layers(backend, fleet_options(shape, base_seed, 1), 0.75 * args.seconds,
                           out);
        trace_serve_layers(args, backend, 1, 0.25 * args.seconds, out);
        return;
    }

    const search::QueryEngine& engine = backend.engine->query();
    BruteForceBinding binding(*backend.corpus);
    // One untimed call first, so per-thread scratch arenas and first-touch
    // page faults are not charged to the measured window.
    analysis::FleetOptions warm = fleet_options(shape, base_seed + 500000000, kFleetLanes);
    check_fleet(analysis::analyze_fleet(engine, warm), warm, binding);

    std::vector<double> latency_ms;
    std::vector<std::pair<analysis::FleetOptions, analysis::FleetResult>> runs;
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < args.seconds * 1000.0) {
        analysis::FleetOptions o =
            fleet_options(shape, base_seed + runs.size() * shape.systems, kFleetLanes);
        const Clock::time_point t = Clock::now();
        analysis::FleetResult result = analysis::analyze_fleet(engine, o);
        latency_ms.push_back(ms_since(t));
        runs.emplace_back(std::move(o), std::move(result));
    }
    const double elapsed_s = ms_since(start) / 1000.0;

    std::size_t systems = 0;
    for (const auto& [o, result] : runs) {
        check_fleet(result, o, binding);
        systems += result.systems;
        out.failed += result.failed;
    }
    out.attempted = systems;
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("throughput_per_s", static_cast<double>(systems) / elapsed_s, "1/s");
    out.add("latency_p50_ms", median(latency_ms), "ms");
    out.info["calls"] = runs.size();
}

} // namespace pb
