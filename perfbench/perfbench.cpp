// perfbench: the fleet-and-serve benchmark binary.
//
//   perfbench --workload fleet-impl|fleet-design|serve-mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--commit SHA] [--source-digest HEX]
//
// Runs one workload for S seconds against the library's public API, checks
// its outputs (a failed check exits 3 with no result), and prints two JSON
// lines: the provenance (build, host, lanes, seed, workload facts) and,
// last, the result {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer timings and counts taken by timing calls from outside.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "common.hpp"
#include "synth/corpus_gen.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

namespace pb {

using namespace cybok;

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

core::SessionOptions engine_options() {
    core::SessionOptions o;
    o.engine.build_threads = kBuildLanes;
    o.assoc.threads = 1;
    return o;
}

Backend build_backend(std::uint64_t corpus_seed) {
    synth::CorpusProfile profile = synth::CorpusProfile::scada_demo();
    profile.seed = corpus_seed;
    Backend b;
    b.corpus = std::make_unique<kb::Corpus>(synth::generate_corpus(profile));
    b.engine = core::make_shared_engine(*b.corpus, engine_options());
    return b;
}

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet-impl|fleet-design|serve-mix --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--commit SHA] "
                 "[--source-digest HEX]\n");
    return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") a.workload = val;
            else if (key == "--seed") a.seed = std::stoull(val);
            else if (key == "--seconds") a.seconds = std::stod(val);
            else if (key == "--trace") a.trace = std::stoi(val) != 0;
            else if (key == "--work-dir") a.work_dir = val;
            else if (key == "--commit") a.commit = val;
            else if (key == "--source-digest") a.source_digest = val;
            else return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && !a.work_dir.empty() && a.seconds > 0.0 &&
           (a.workload == "fleet-impl" || a.workload == "fleet-design" ||
            a.workload == "serve-mix");
}

json::Value provenance(const Args& a, const Outcome& out) {
    json::Value p;
    p["commit"] = a.commit;
    p["source_digest"] = a.source_digest;
    p["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
    p["compiler"] = std::string(PERFBENCH_COMPILER);
    p["flags"] = std::string(PERFBENCH_FLAGS);
    p["nproc"] = std::uint64_t{std::thread::hardware_concurrency()};
    json::Value lanes;
    lanes["build"] = kBuildLanes;
    lanes["fleet"] = kFleetLanes;
    lanes["server"] = kServerLanes;
    lanes["analysts"] = kAnalysts;
    p["lanes"] = std::move(lanes);
    p["workload"] = a.workload;
    p["seed"] = a.seed;
    p["seconds"] = a.seconds;
    p["trace"] = a.trace;
    p["info"] = out.info;
    json::Value wrap;
    wrap["provenance"] = std::move(p);
    return wrap;
}

json::Value result_line(const Outcome& out) {
    json::Value metrics = json::Value(json::Object{});
    for (const auto& [name, vu] : out.metrics) {
        json::Value m;
        m["value"] = vu.first;
        m["unit"] = vu.second;
        metrics[name] = std::move(m);
    }
    json::Value r;
    r["correct"] = true;
    r["attempted"] = out.attempted;
    r["failed"] = out.failed;
    r["metrics"] = std::move(metrics);
    return r;
}

} // namespace

} // namespace pb

int main(int argc, char** argv) {
    pb::Args args;
    if (!pb::parse_args(argc, argv, args)) return pb::usage();
    pb::Outcome out;
    try {
        if (args.workload == "serve-mix")
            pb::run_serve(args, out);
        else
            pb::run_fleet(args, out);
    } catch (const pb::CheckFailed& e) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
        return 3;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 4;
    }
    if (out.attempted == 0) {
        std::fprintf(stderr, "perfbench: no operation completed\n");
        return 4;
    }
    std::printf("%s\n", cybok::json::dump(pb::provenance(args, out)).c_str());
    std::printf("%s\n", cybok::json::dump(pb::result_line(out)).c_str());
    std::fflush(stdout);
    return 0;
}
