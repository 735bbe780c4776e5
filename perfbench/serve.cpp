// The serve-mix workload: an in-process serve::Server driven over loopback
// by one client process-worth of threads. Analysts run a closed loop of
// reads on their own sessions; a fleet connection sends small
// fleet.analyze requests on a fixed schedule; an admin connection sends a
// delta.apply (or, every kCompactEvery-th cycle, a compact) a fixed delay
// after each fleet request was due, so every write meets an in-flight
// request and waits on the drain-gated generation flip.

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "kb/delta.hpp"
#include "model/dsl.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "synth/zoo.hpp"
#include "util/bytes.hpp"

namespace pb {

using namespace cybok;

namespace {

constexpr double kFleetPeriodMs = 1000.0; ///< one fleet.analyze due per period
constexpr double kWriteDelayMs = 50.0;    ///< admin write this long after each fleet request
constexpr std::size_t kCompactEvery = 5;  ///< every 5th admin cycle compacts
constexpr std::size_t kQueryLimit = 5;
constexpr std::size_t kFleetRequestSystems = 4;
constexpr std::size_t kFleetRequestComponents = 40;
constexpr std::size_t kAnalystComponents = 50;
/// Sessions per analyst, one model per zoo domain; rounds rotate through
/// them so a run averages over several models instead of one seed's.
constexpr std::size_t kSessionsPerAnalyst = 8;
constexpr std::uint32_t kProbeIdBase = 900000; ///< CAPEC ids no generated corpus uses

/// Everything the mix sends, generated from the run seed before set-up.
struct MixInputs {
    model::SystemModel base_model;
    /// Per session, analyst a owning sessions [a * kSessionsPerAnalyst, ...).
    std::vector<std::string> session_dsl;              ///< the session's own model
    std::vector<std::string> candidate_dsl;            ///< its what-if candidate
    std::vector<std::vector<std::string>> query_texts; ///< its descriptor values
    std::vector<std::string> delta_paths;                ///< one frozen delta per admin cycle
    std::vector<std::string> probe_tokens;               ///< the term each delta's record adds
    std::uint64_t fleet_seed = 0; ///< fleet request k uses fleet_seed + k * systems
};

std::string probe_token(std::uint64_t seed, std::size_t k) {
    std::uint64_t x = derive(seed, 1000 + k);
    std::string t = "zq";
    for (int i = 0; i < 10; ++i, x /= 26) t.push_back(static_cast<char>('a' + x % 26));
    return t;
}

MixInputs make_inputs(const Args& args, std::size_t analysts, double seconds) {
    MixInputs in;
    synth::ZooConfig base;
    base.domain = synth::ZooDomain::Water;
    base.seed = derive(args.seed, 2) % 1000000000;
    base.components = kAnalystComponents;
    in.base_model = synth::generate_zoo_system(base).model;
    const std::vector<synth::ZooDomain>& domains = synth::all_zoo_domains();
    for (std::size_t s = 0; s < analysts * kSessionsPerAnalyst; ++s) {
        synth::ZooConfig cfg;
        cfg.domain = domains[s % domains.size()];
        cfg.seed = derive(args.seed, 10 + s) % 1000000000;
        cfg.components = kAnalystComponents;
        model::SystemModel m = synth::generate_zoo_system(cfg).model;
        in.session_dsl.push_back(model::to_dsl(m));
        // Query texts: the model's distinct descriptor values.
        std::set<std::string> seen;
        std::vector<std::string> texts;
        for (const model::Component& c : m.components())
            for (const model::Attribute& attr : c.attributes)
                if (attr.kind == model::AttributeKind::Descriptor && seen.insert(attr.value).second)
                    texts.push_back(attr.value);
        check(!texts.empty(), "inputs: analyst model has no descriptors");
        in.query_texts.push_back(std::move(texts));
        // What-if: drop the platform ref of the first component carrying one.
        for (const model::Component& c : m.components()) {
            const auto it = std::find_if(c.attributes.begin(), c.attributes.end(),
                                         [](const model::Attribute& attr) {
                                             return attr.kind == model::AttributeKind::PlatformRef;
                                         });
            if (c.id.valid() && it != c.attributes.end()) {
                const std::string attr_name = it->name;
                m.remove_attribute(c.id, attr_name);
                break;
            }
        }
        in.candidate_dsl.push_back(model::to_dsl(m));
    }
    in.fleet_seed = derive(args.seed, 3) % 1000000000;

    std::filesystem::create_directories(args.work_dir);
    const std::size_t cycles = static_cast<std::size_t>(seconds * 1000.0 / kFleetPeriodMs) + 2;
    for (std::size_t k = 0; k < cycles; ++k) {
        const std::string token = probe_token(args.seed, k);
        kb::CorpusDelta delta;
        kb::AttackPattern p;
        p.id = kb::AttackPatternId{kProbeIdBase + static_cast<std::uint32_t>(k)};
        p.name = "Probe " + token;
        p.summary = "Benchmark probe record " + token + " added by a corpus delta.";
        delta.patterns.push_back(std::move(p));
        const std::string path =
            args.work_dir + "/delta-" + args.workload + "-" + std::to_string(k) + ".bin";
        util::write_file(path, kb::freeze_corpus_delta(delta));
        in.delta_paths.push_back(path);
        in.probe_tokens.push_back(token);
    }
    return in;
}

/// A running server over `backend` with its connections open and every
/// analyst's sessions opened on its own model.
struct Rig {
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::BlockingClient>> analysts;
    std::unique_ptr<serve::BlockingClient> fleet;
    std::unique_ptr<serve::BlockingClient> admin;
    std::vector<std::string> sessions; ///< analyst a owns [a * kSessionsPerAnalyst, ...)

    Rig(const Backend& backend, const MixInputs& in, std::size_t analyst_count);
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;
    ~Rig() { shutdown(); }

    void shutdown() {
        for (auto& c : analysts) c.reset();
        fleet.reset();
        admin.reset();
        if (server) {
            server->stop();
            server->wait();
            server.reset();
        }
    }
};

Rig::Rig(const Backend& backend, const MixInputs& in, std::size_t analyst_count) {
    serve::ServerOptions opts;
    opts.lanes = kServerLanes;
    opts.registry.engine = engine_options().engine;
    opts.registry.session_threads = 1;
    server = std::make_unique<serve::Server>(backend.engine, in.base_model, opts);
    server->start();
    const std::uint16_t port = server->port();
    for (std::size_t a = 0; a < analyst_count; ++a) {
        auto client = std::make_unique<serve::BlockingClient>("127.0.0.1", port);
        for (std::size_t j = 0; j < kSessionsPerAnalyst; ++j) {
            serve::Request open;
            open.type = serve::MsgType::SessionOpen;
            open.model_dsl = in.session_dsl[a * kSessionsPerAnalyst + j];
            const serve::Response r = client->call(std::move(open));
            check(r.ok, "session.open failed: " + r.error_message);
            sessions.push_back(r.body.get_string("session"));
        }
        analysts.push_back(std::move(client));
    }
    fleet = std::make_unique<serve::BlockingClient>("127.0.0.1", port);
    admin = std::make_unique<serve::BlockingClient>("127.0.0.1", port);
}

/// JSON cost of one response type, measured client-side in traced runs.
struct JsonCost {
    double encode_ms = 0, decode_ms = 0, bytes = 0, n = 0;
};

/// What one connection's thread observed. Merged after the threads join.
struct Part {
    std::uint64_t attempted = 0, failed = 0;
    std::map<std::string, std::vector<double>> latency; ///< by request type
    std::map<std::string, JsonCost> json;               ///< traced runs only
    std::set<std::string> queried;
    std::size_t max_segments = 0;
    double window_s = 0; ///< wall time of the whole window (merged part only)
    std::exception_ptr error;
};

/// Send one request and read the next response on a serial connection:
/// it must be ok and carry the request's id. Latency runs from `from`
/// (the send time, or the schedule's due time) to receipt.
serve::Response roundtrip(serve::BlockingClient& c, serve::Request req, Part& part,
                          bool traced, Clock::time_point from, double* latency_ms = nullptr) {
    const serve::MsgType type = req.type;
    const std::string name(serve::message_type_name(type));
    c.send(std::move(req));
    const std::int64_t want = c.last_id();
    serve::Response r = c.receive();
    if (latency_ms != nullptr) *latency_ms = ms_since(from);
    ++part.attempted;
    if (!r.ok) {
        ++part.failed;
        throw CheckFailed(name + " failed: " + r.error_code + ": " + r.error_message);
    }
    check(r.id == want, name + ": response id " + std::to_string(r.id) + " for request " +
                            std::to_string(want));
    if (traced) {
        const json::Value envelope = serve::ok_response(r.id, type, r.body);
        Clock::time_point t = Clock::now();
        const std::string payload = json::dump(envelope);
        const double enc = ms_since(t);
        t = Clock::now();
        const serve::Response again = serve::decode_response(payload);
        const double dec = ms_since(t);
        check(again.ok && again.id == r.id, name + ": response does not round-trip");
        JsonCost& j = part.json[name];
        j.encode_ms += enc;
        j.decode_ms += dec;
        j.bytes += static_cast<double>(payload.size());
        j.n += 1;
    }
    return r;
}

/// Query hits must be grouped by class in pattern, weakness, vulnerability
/// order, at most `limit` per class, each class in descending score order.
void check_query_shape(const json::Value& body, std::size_t limit) {
    const json::Array& hits = body.at("hits").as_array();
    check(body.get_int("count") == static_cast<std::int64_t>(hits.size()), "query: count");
    std::map<std::string, std::size_t> per_class;
    std::string prev_class;
    double prev_score = 0.0;
    for (const json::Value& h : hits) {
        const std::string cls = h.get_string("class");
        const double score = h.get_number("score");
        check(++per_class[cls] <= limit, "query: more than limit hits for " + cls);
        check(cls != prev_class || score <= prev_score, "query: hits out of score order");
        prev_class = cls;
        prev_score = score;
    }
}

serve::Request query_request(const std::string& text, const std::string& cls) {
    serve::Request q;
    q.type = serve::MsgType::Query;
    q.text = text;
    q.cls = cls;
    q.limit = kQueryLimit;
    return q;
}

/// The in-process equivalent of fleet_request(in, 0), as handle_fleet runs it.
analysis::FleetOptions fleet_request_options(std::uint64_t fleet_seed) {
    return fleet_options({kFleetRequestSystems, kFleetRequestComponents, 0.6}, fleet_seed, 1);
}

serve::Request fleet_request(const MixInputs& in, std::size_t k) {
    serve::Request f;
    f.type = serve::MsgType::FleetAnalyze;
    f.systems = kFleetRequestSystems;
    f.components = kFleetRequestComponents;
    f.seed = in.fleet_seed + k * kFleetRequestSystems;
    return f;
}

void analyst_loop(Rig& rig, const MixInputs& in, std::size_t a, Clock::time_point deadline,
                  bool traced, const std::atomic<bool>& abort, Part& part) {
    serve::BlockingClient& c = *rig.analysts[a];
    // Whole rounds only: a round started before the deadline is finished.
    for (std::size_t k = 0; Clock::now() < deadline && !abort.load(); ++k) {
        const std::size_t s = a * kSessionsPerAnalyst + k % kSessionsPerAnalyst;
        const std::vector<std::string>& texts = in.query_texts[s];
        const std::string& text = texts[(k / kSessionsPerAnalyst) % texts.size()];
        const Clock::time_point round_start = Clock::now();
        double ms = 0;
        serve::Response r =
            roundtrip(c, query_request(text, ""), part, traced, Clock::now(), &ms);
        check_query_shape(r.body, kQueryLimit);
        part.queried.insert(text);
        part.latency["query"].push_back(ms);

        serve::Request assoc;
        assoc.type = serve::MsgType::Associate;
        assoc.session = rig.sessions[s];
        r = roundtrip(c, assoc, part, traced, Clock::now(), &ms);
        check(r.body.get_int("total") > 0, "associate: empty association");
        part.latency["associate"].push_back(ms);

        serve::Request posture;
        posture.type = serve::MsgType::Posture;
        posture.session = rig.sessions[s];
        r = roundtrip(c, posture, part, traced, Clock::now(), &ms);
        check(!r.body.at("components").as_array().empty(), "posture: no components");
        part.latency["posture"].push_back(ms);

        serve::Request whatif;
        whatif.type = serve::MsgType::WhatIf;
        whatif.session = rig.sessions[s];
        whatif.model_dsl = in.candidate_dsl[s];
        r = roundtrip(c, whatif, part, traced, Clock::now(), &ms);
        check(!r.body.get_bool("committed", true), "whatif: committed without commit");
        part.latency["whatif"].push_back(ms);

        serve::Request flow;
        flow.type = serve::MsgType::FlowAnalyze;
        flow.session = rig.sessions[s];
        r = roundtrip(c, flow, part, traced, Clock::now(), &ms);
        part.latency["flow.analyze"].push_back(ms);
        part.latency["round"].push_back(ms_since(round_start));
    }
}

void fleet_loop(Rig& rig, const MixInputs& in, Clock::time_point t0, Clock::time_point deadline,
                bool traced, const std::atomic<bool>& abort, Part& part) {
    for (std::size_t k = 0; !abort.load(); ++k) {
        const Clock::time_point due =
            t0 + std::chrono::microseconds(static_cast<long>(k * kFleetPeriodMs * 1000.0));
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        double ms = 0;
        const serve::Response r =
            roundtrip(*rig.fleet, fleet_request(in, k), part, traced, due, &ms);
        check_fleet_json(r.body, kFleetRequestSystems);
        part.latency["fleet.analyze"].push_back(ms);
    }
}

std::size_t current_segments(serve::BlockingClient& c, Part& part, bool traced) {
    serve::Request m;
    m.type = serve::MsgType::Metrics;
    const serve::Response r = roundtrip(c, m, part, traced, Clock::now());
    return static_cast<std::size_t>(r.body.at("registry").get_int("current_segments", -1));
}

void admin_loop(Rig& rig, const MixInputs& in, Clock::time_point t0, Clock::time_point deadline,
                bool traced, const std::atomic<bool>& abort, Part& part) {
    serve::BlockingClient& c = *rig.admin;
    serve::Request hello;
    hello.type = serve::MsgType::Hello;
    std::int64_t generation =
        roundtrip(c, hello, part, traced, Clock::now()).body.get_int("generation");
    std::size_t segments = current_segments(c, part, traced);
    for (std::size_t k = 0; !abort.load() && k < in.delta_paths.size(); ++k) {
        const Clock::time_point due =
            t0 + std::chrono::microseconds(
                     static_cast<long>((k * kFleetPeriodMs + kWriteDelayMs) * 1000.0));
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        double ms = 0;
        serve::Request w;
        const bool compact = k % kCompactEvery == kCompactEvery - 1;
        w.type = compact ? serve::MsgType::Compact : serve::MsgType::DeltaApply;
        if (!compact) w.delta = in.delta_paths[k];
        const serve::Response r = roundtrip(c, w, part, traced, due, &ms);
        check(r.body.get_int("previous") == generation &&
                  r.body.get_int("generation") == generation + 1,
              std::string(compact ? "compact" : "delta.apply") +
                  ": generation did not advance by exactly one");
        generation += 1;
        part.latency[compact ? "compact" : "delta.apply"].push_back(ms);

        const std::size_t now_segments = current_segments(c, part, traced);
        if (compact) {
            check(now_segments == 0, "compact: left " + std::to_string(now_segments + 1) +
                                         " segments, expected exactly one");
        } else {
            check(now_segments == segments + 1, "delta.apply: segment count did not grow by one");
            const serve::Response q = roundtrip(c, query_request(in.probe_tokens[k], "pattern"),
                                                part, traced, Clock::now());
            const std::string want = "CAPEC-" + std::to_string(kProbeIdBase + k);
            const json::Array& hits = q.body.at("hits").as_array();
            check(std::any_of(hits.begin(), hits.end(),
                              [&](const json::Value& h) { return h.get_string("id") == want; }),
                  "delta.apply: probe record " + want + " not visible to query");
        }
        segments = now_segments;
        part.max_segments = std::max(part.max_segments, segments + 1);
    }
}

/// One window of the mix. Returns the merged observations; rethrows the
/// first failure any connection's thread hit.
Part run_window(Rig& rig, const MixInputs& in, double seconds, bool traced) {
    const std::size_t analysts = rig.analysts.size();
    std::vector<Part> parts(analysts + 2);
    // Each session computes its association lazily on first use; do that
    // before the window so the window measures the steady analyst loop.
    for (std::size_t s = 0; s < rig.sessions.size(); ++s) {
        serve::Request assoc;
        assoc.type = serve::MsgType::Associate;
        assoc.session = rig.sessions[s];
        (void)roundtrip(*rig.analysts[s / kSessionsPerAnalyst], assoc, parts[0], false,
                        Clock::now());
    }
    std::atomic<bool> abort{false};
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::microseconds(static_cast<long>(seconds * 1e6));
    auto guarded = [&](Part& part, auto&& body) {
        return [&part, &abort, body] {
            try {
                body();
            } catch (...) {
                part.error = std::current_exception();
                abort.store(true);
            }
        };
    };
    std::vector<std::thread> threads;
    for (std::size_t a = 0; a < analysts; ++a)
        threads.emplace_back(guarded(parts[a], [&, a] {
            analyst_loop(rig, in, a, deadline, traced, abort, parts[a]);
        }));
    threads.emplace_back(guarded(parts[analysts], [&] {
        fleet_loop(rig, in, t0, deadline, traced, abort, parts[analysts]);
    }));
    threads.emplace_back(guarded(parts[analysts + 1], [&] {
        admin_loop(rig, in, t0, deadline, traced, abort, parts[analysts + 1]);
    }));
    for (std::thread& t : threads) t.join();
    const double elapsed_s = ms_since(t0) / 1000.0;

    Part all;
    for (Part& p : parts) {
        if (p.error) std::rethrow_exception(p.error);
        all.attempted += p.attempted;
        all.failed += p.failed;
        for (auto& [type, v] : p.latency)
            all.latency[type].insert(all.latency[type].end(), v.begin(), v.end());
        for (const auto& [type, j] : p.json) {
            JsonCost& t = all.json[type];
            t.encode_ms += j.encode_ms;
            t.decode_ms += j.decode_ms;
            t.bytes += j.bytes;
            t.n += j.n;
        }
        all.queried.insert(p.queried.begin(), p.queried.end());
        all.max_segments = std::max(all.max_segments, p.max_segments);
    }
    all.window_s = elapsed_s;
    return all;
}

const char* const kReadTypes[] = {"query", "associate", "posture", "whatif",
                                  "flow.analyze"};

std::vector<double> read_latencies(const Part& p) {
    std::vector<double> v;
    for (const char* t : kReadTypes) {
        const auto it = p.latency.find(t);
        if (it != p.latency.end()) v.insert(v.end(), it->second.begin(), it->second.end());
    }
    return v;
}

/// Quiescent checks after the window: every query text served during the
/// run against the direct engine at the live generation, and one served
/// fleet.analyze against an in-process analyze_fleet with the same
/// parameters (byte-equal rankings with every double rendered %.17g,
/// hence equal fingerprints).
void check_against_direct(Rig& rig, const MixInputs& in, const Part& window, Part& part) {
    const std::shared_ptr<const serve::Generation> gen = rig.server->registry().current();
    const search::QueryEngine& engine = gen->engine->query();
    serve::BlockingClient& c = *rig.admin;
    for (const std::string& text : window.queried) {
        const serve::Response r = roundtrip(c, query_request(text, ""), part, false, Clock::now());
        const json::Array& hits = r.body.at("hits").as_array();
        std::size_t h = 0;
        for (search::VectorClass cls :
             {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
              search::VectorClass::Vulnerability}) {
            const std::vector<search::Match> direct = engine.query_text(text, cls);
            for (std::size_t i = 0; i < std::min(kQueryLimit, direct.size()); ++i, ++h) {
                check(h < hits.size() && hits[h].get_string("id") == direct[i].id &&
                          hits[h].get_number("score") == direct[i].score,
                      "query \"" + text + "\": served hits differ from the direct engine");
            }
        }
        check(h == hits.size(), "query \"" + text + "\": served more hits than the engine");
    }
    const serve::Response served = roundtrip(c, fleet_request(in, 0), part, false, Clock::now());
    const json::Value direct =
        analysis::analyze_fleet(engine, fleet_request_options(in.fleet_seed)).to_json();
    check(json::dump(served.body.at("ranking")) == json::dump(direct.at("ranking")),
          "fleet.analyze: served ranking differs from in-process analyze_fleet");
}

double p50_of(const Part& p, const std::string& type) {
    const auto it = p.latency.find(type);
    return it == p.latency.end() ? 0.0 : median(it->second);
}

} // namespace

void trace_serve_layers(const Args& args, const Backend& backend, std::size_t analysts,
                        double seconds, Outcome& out) {
    const MixInputs in = make_inputs(args, analysts, seconds);
    Rig rig(backend, in, analysts);
    const Part window = run_window(rig, in, seconds, true);
    Part post;
    check_against_direct(rig, in, window, post);
    out.attempted += window.attempted + post.attempted;
    out.failed += window.failed + post.failed;

    // Direct in-process runs of the same work at the live generation.
    const std::shared_ptr<const core::SharedEngine> live =
        rig.server->registry().current()->engine;
    std::vector<double> direct_query;
    std::vector<std::string> texts(window.queried.begin(), window.queried.end());
    for (std::size_t i = 0; direct_query.size() < 200; ++i) {
        const std::string& text = texts[i % texts.size()];
        const Clock::time_point t = Clock::now();
        for (search::VectorClass cls :
             {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
              search::VectorClass::Vulnerability})
            (void)live->query().query_text(text, cls);
        direct_query.push_back(ms_since(t));
    }
    std::vector<double> direct_apply;
    for (std::size_t k = 0; k < in.delta_paths.size(); ++k) {
        if (k % kCompactEvery == kCompactEvery - 1) continue;
        const kb::CorpusDelta delta = kb::thaw_corpus_delta(util::read_file(in.delta_paths[k]));
        const Clock::time_point t = Clock::now();
        const std::shared_ptr<const core::SharedEngine> next = core::apply_corpus_delta(live, delta);
        direct_apply.push_back(ms_since(t));
    }
    rig.shutdown();

    double encode = 0, decode = 0, reads = 0;
    for (const char* t : kReadTypes) {
        const auto it = window.json.find(t);
        if (it == window.json.end()) continue;
        encode += it->second.encode_ms;
        decode += it->second.decode_ms;
        reads += it->second.n;
    }
    const JsonCost& q = window.json.at("query");
    const std::vector<double> read = read_latencies(window);
    const double query_p50 = p50_of(window, "query");
    const double direct_q = median(direct_query);
    const double apply = median(direct_apply);
    out.add("serve.read_p50_ms", median(read), "ms");
    out.add("serve.read_p99_ms", percentile(read, 0.99), "ms");
    out.add("serve.query_p50_ms", query_p50, "ms");
    out.add("serve.whatif_p50_ms", p50_of(window, "whatif"), "ms");
    out.add("serve.fleet_req_p50_ms", p50_of(window, "fleet.analyze"), "ms");
    out.add("serve.write_p50_ms", p50_of(window, "delta.apply"), "ms");
    out.add("search.query_direct_ms", direct_q, "ms");
    out.add("serve.query_overhead_ms", query_p50 - direct_q, "ms");
    out.add("util.json_encode_ms", encode / reads, "ms");
    out.add("util.json_decode_ms", decode / reads, "ms");
    for (const char* t : {"query", "associate", "posture", "whatif", "flow.analyze",
                          "fleet.analyze"}) {
        const auto it = window.json.find(t);
        out.add(std::string("serve.response_bytes.") + t,
                it == window.json.end() ? 0.0 : it->second.bytes / it->second.n, "bytes");
    }
    out.add("search.delta_apply_ms", apply, "ms");
    out.add("serve.write_wait_ms", p50_of(window, "delta.apply") - apply, "ms");
    out.add("search.segments", static_cast<double>(window.max_segments), "count");
    out.add("trace.query_coverage", (direct_q + (q.encode_ms + q.decode_ms) / q.n) / query_p50,
            "ratio");
    out.info["serve_reads"] = read.size();
    out.info["serve_analysts"] = analysts;
}

void run_serve(const Args& args, Outcome& out) {
    const std::uint64_t corpus_seed = derive(args.seed, 0);
    out.info["fleet_request_systems"] = kFleetRequestSystems;
    out.info["fleet_request_components"] = kFleetRequestComponents;
    out.info["fleet_period_ms"] = kFleetPeriodMs;
    out.info["write_delay_ms"] = kWriteDelayMs;
    out.info["compact_every"] = kCompactEvery;
    if (args.trace) {
        const Backend backend = build_backend(corpus_seed);
        const double fleet_share = 0.25 * args.seconds;
        trace_fleet_layers(backend, fleet_request_options(derive(args.seed, 3) % 1000000000),
                           fleet_share, out);
        trace_serve_layers(args, backend, kAnalysts, args.seconds - fleet_share, out);
        return;
    }

    const MixInputs in = make_inputs(args, kAnalysts, args.seconds);
    std::vector<double> setup_s;
    Backend backend;
    std::optional<Rig> rig;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
        rig.reset(); // release the previous set-up before timing the next
        backend = Backend{};
        const Clock::time_point t = Clock::now();
        backend = build_backend(corpus_seed);
        rig.emplace(backend, in, kAnalysts);
        setup_s.push_back(ms_since(t) / 1000.0);
    }

    const Part window = run_window(*rig, in, args.seconds, false);
    Part post;
    check_against_direct(*rig, in, window, post);
    rig.reset();

    const std::vector<double> read = read_latencies(window);
    out.attempted = window.attempted + post.attempted;
    out.failed = window.failed + post.failed;
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("throughput_per_s",
            static_cast<double>(read.size()) / window.window_s, "1/s");
    out.add("latency_p50_ms", median(window.latency.at("round")), "ms");
    out.info["reads"] = read.size();
    for (const auto& [type, v] : window.latency) out.info["p50_ms." + type] = median(v);
}

} // namespace pb
