// Shared plumbing for the fleet-and-serve benchmark binary: the run's
// arguments, the fixed lane counts, the result being assembled, timing
// and percentile helpers, and the set-up every workload shares.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fleet.hpp"
#include "core/session.hpp"
#include "kb/corpus.hpp"
#include "util/json.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

// Lane and connection counts are constants, never "0 = hardware
// concurrency", so a run means the same thing on every host. The load
// side (serve-mix) uses 2 analysts + 1 fleet + 1 admin = 4 connections.
inline constexpr std::size_t kBuildLanes = 4;   ///< engine build fan-out
inline constexpr std::size_t kFleetLanes = 4;   ///< analyze_fleet lanes (fleet-*)
inline constexpr std::size_t kServerLanes = 3;  ///< serve::Server worker lanes
inline constexpr std::size_t kAnalysts = 2;     ///< analyst connections (serve-mix)
inline constexpr std::size_t kSetupRepeats = 5; ///< set-ups per run; setup_s is their median

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;      ///< scratch directory inside the checkout
    std::string commit;        ///< provenance, passed through by run.py
    std::string source_digest; ///< provenance, passed through by run.py
};

/// A correctness check that failed: the run stops and prints no result.
class CheckFailed : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
    if (!ok) throw CheckFailed(what);
}

/// What one run reports: the operation tally and the metrics, in the order
/// they were added. `info` carries workload facts for the provenance line.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    cybok::json::Value info;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, {value, unit}});
    }
};

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t) { return ms_between(t, Clock::now()); }

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// SplitMix64 step: derives independent input seeds from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

/// The corpus and the shared engine over it. The corpus is owned here
/// because the engine indexes it by reference.
struct Backend {
    std::unique_ptr<cybok::kb::Corpus> corpus;
    std::shared_ptr<const cybok::core::SharedEngine> engine;
};

/// Engine options every workload builds with (fixed build lanes).
cybok::core::SessionOptions engine_options();

/// Generate the demo-profile corpus for `corpus_seed` and build the
/// engine over it — the part of set-up every workload pays.
Backend build_backend(std::uint64_t corpus_seed);

/// What every analyze_fleet call of a workload looks like.
struct FleetShape {
    std::size_t systems;      ///< systems per analyze_fleet call
    std::size_t components;   ///< components per system
    double platform_ref_prob; ///< 0 = design phase (no platform refs)
};
cybok::analysis::FleetOptions fleet_options(const FleetShape& shape, std::uint64_t base_seed,
                                            std::size_t threads);

/// The fleet half of a traced run: alternates an untraced single-lane
/// analyze_fleet pass with a replay of the same systems that times each
/// layer's public function from outside, for `seconds`, and adds the
/// per-pass medians to `out`. Checks every pass.
void trace_fleet_layers(const Backend& backend, const cybok::analysis::FleetOptions& options,
                        double seconds, Outcome& out);

/// The serve half of a traced run: a served window of the analyst mix
/// with `analysts` connections, with every response's JSON encode and
/// decode timed, followed by direct in-process runs of the same queries
/// and deltas; adds the serve-layer metrics to `out`.
void trace_serve_layers(const Args& args, const Backend& backend, std::size_t analysts,
                        double seconds, Outcome& out);

/// Workload entry points (fleet.cpp, serve.cpp).
void run_fleet(const Args& args, Outcome& out);
void run_serve(const Args& args, Outcome& out);

} // namespace pb
