// Output checks computed apart from the program: a brute-force CPE scan of
// the corpus, the documented risk formula, and the ranking invariants. A
// failed check throws pb::CheckFailed.

#pragma once

#include <map>

#include "analysis/fleet.hpp"
#include "common.hpp"
#include "kb/platform.hpp"

namespace pb {

/// Counts the corpus vulnerabilities a platform binds to by scanning every
/// record: part, vendor and product equal, version equal or ANY on either
/// side. Memoized per platform; the scan never uses the corpus indexes.
class BruteForceBinding {
public:
    explicit BruteForceBinding(const cybok::kb::Corpus& corpus) : corpus_(corpus) {}
    std::size_t count(const cybok::kb::Platform& platform);
    /// Sum of count() over every platform attribute of the model.
    std::size_t count_model(const cybok::model::SystemModel& model);

private:
    const cybok::kb::Corpus& corpus_;
    std::map<cybok::kb::Platform, std::size_t> memo_;
};

/// Every check on one analyze_fleet result: no failed systems, ranks
/// 1..N riskiest-first, every risk equal to the formula and in [0, 100],
/// and every system's vulnerability count equal to the brute-force scan
/// of its regenerated model.
void check_fleet(const cybok::analysis::FleetResult& result,
                 const cybok::analysis::FleetOptions& options, BruteForceBinding& binding);

/// The same ranking and risk checks on a served fleet.analyze result body.
void check_fleet_json(const cybok::json::Value& body, std::size_t systems);

} // namespace pb
