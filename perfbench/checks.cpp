#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "synth/zoo.hpp"

namespace pb {

using namespace cybok;

std::size_t BruteForceBinding::count(const kb::Platform& platform) {
    if (auto it = memo_.find(platform); it != memo_.end()) return it->second;
    std::size_t n = 0;
    for (const kb::Vulnerability& v : corpus_.vulnerabilities()) {
        for (const kb::Platform& p : v.platforms) {
            if (p.part == platform.part && p.vendor == platform.vendor &&
                p.product == platform.product &&
                (platform.version.empty() || p.version.empty() || p.version == platform.version)) {
                ++n;
                break;
            }
        }
    }
    memo_.emplace(platform, n);
    return n;
}

std::size_t BruteForceBinding::count_model(const model::SystemModel& model) {
    std::size_t n = 0;
    for (const model::Component& c : model.components()) {
        if (!c.id.valid()) continue;
        for (const model::Attribute& a : c.attributes)
            if (a.kind == model::AttributeKind::PlatformRef && a.platform.has_value())
                n += count(*a.platform);
    }
    return n;
}

namespace {

/// The fleet risk score recomputed from a report's own fields:
/// 40 top_exposure + 30 hazard fraction + 20 taint fraction + max_severity.
double expected_risk(double top_exposure, double tainted_hazards, double hazards_total,
                     double tainted, double components, double max_severity) {
    const double hazard_frac = hazards_total == 0.0 ? 0.0 : tainted_hazards / hazards_total;
    const double taint_frac = components == 0.0 ? 0.0 : tainted / components;
    return 40.0 * top_exposure + 30.0 * hazard_frac + 20.0 * taint_frac +
           std::max(0.0, max_severity);
}

void check_risk(const std::string& name, double risk, double expected) {
    check(std::abs(risk - expected) <= 1e-9 * std::max(1.0, std::abs(expected)),
          "fleet: " + name + " risk " + std::to_string(risk) + " != formula " +
              std::to_string(expected));
    check(risk >= 0.0 && risk <= 100.0, "fleet: " + name + " risk outside [0, 100]");
}

void check_rank_order(std::size_t i, std::size_t rank, double risk, double prev_risk,
                      const std::string& name) {
    check(rank == i + 1, "fleet: " + name + " has rank " + std::to_string(rank) +
                             " at position " + std::to_string(i + 1));
    check(i == 0 || risk <= prev_risk, "fleet: ranking not riskiest-first at " + name);
}

} // namespace

void check_fleet(const analysis::FleetResult& result, const analysis::FleetOptions& options,
                 BruteForceBinding& binding) {
    check(result.systems == options.systems && result.ranking.size() == options.systems,
          "fleet: expected " + std::to_string(options.systems) + " systems");
    check(result.failed == 0, "fleet: " + std::to_string(result.failed) + " systems failed");
    for (std::size_t i = 0; i < result.ranking.size(); ++i) {
        const analysis::FleetSystemReport& r = result.ranking[i];
        check(!r.failed, "fleet: " + r.name + " failed: " + r.error);
        check_rank_order(i, r.rank, r.risk, i == 0 ? 0.0 : result.ranking[i - 1].risk, r.name);
        check_risk(r.name, r.risk,
                   expected_risk(r.top_exposure, static_cast<double>(r.tainted_hazards),
                                 static_cast<double>(r.hazards_total),
                                 static_cast<double>(r.tainted),
                                 static_cast<double>(r.components), r.max_severity));
    }
    // Regenerate each system exactly as analyze_fleet documents it (domain
    // i % 4, seed base_seed + i) and bind its platforms by brute force.
    const std::vector<synth::ZooDomain>& domains = synth::all_zoo_domains();
    for (std::size_t i = 0; i < options.systems; ++i) {
        synth::ZooConfig cfg;
        cfg.domain = domains[i % domains.size()];
        cfg.seed = options.base_seed + i;
        cfg.components = options.components;
        cfg.platform_ref_prob = options.platform_ref_prob;
        cfg.parameter_prob = options.parameter_prob;
        const std::string name = synth::zoo_system_name(cfg);
        const analysis::FleetSystemReport* r = result.find(name);
        check(r != nullptr, "fleet: " + name + " missing from the ranking");
        const synth::ZooSystem sys = synth::generate_zoo_system(cfg);
        const std::size_t expected = binding.count_model(sys.model);
        check(r->vulnerabilities == expected,
              "fleet: " + name + " reports " + std::to_string(r->vulnerabilities) +
                  " vulnerabilities, brute-force scan finds " + std::to_string(expected));
        if (options.platform_ref_prob == 0.0)
            check(r->vulnerabilities == 0, "fleet: design-phase system " + name +
                                               " reports vulnerabilities");
    }
}

void check_fleet_json(const json::Value& body, std::size_t systems) {
    check(body.get_int("systems", -1) == static_cast<std::int64_t>(systems),
          "fleet.analyze: wrong system count");
    check(body.get_int("failed", -1) == 0, "fleet.analyze: systems failed");
    const json::Array& rows = body.at("ranking").as_array();
    check(rows.size() == systems, "fleet.analyze: ranking size");
    double prev = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const json::Value& r = rows[i];
        const std::string name = r.get_string("name");
        const double risk = r.get_number("risk", -1.0);
        check_rank_order(i, static_cast<std::size_t>(r.get_int("rank")), risk, prev, name);
        check_risk(name, risk,
                   expected_risk(r.get_number("top_exposure"), r.get_number("tainted_hazards"),
                                 r.get_number("hazards_total"), r.get_number("tainted"),
                                 r.get_number("components"), r.get_number("max_severity")));
        prev = risk;
    }
}

} // namespace pb
