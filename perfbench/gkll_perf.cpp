// gkll_perf — the repository benchmark driver.
//
//   gkll_perf --workload attack|flow|service --seed N --seconds S --trace 0|1
//             [--tiny] [--inject verdict|oracle|pin]
//
// Three workloads, each in its own process:
//   attack   satAttack on 24 locked rows (6 circuits x GK-4/GK-8/XOR-16/
//            hybrid 4 GK + 8 XOR); locking happens in set-up.
//   flow     runGkFlow over the Table II grid (7 circuits x 4 configs) plus
//            the same 4 configs on gen:50000x2500@1, flow seed <seed>.
//   service  closed loop of 2 client threads against an in-process
//            service::Service (2 pool threads): oracle queries, oracle
//            batches, gk locks and generated uploads.
//
// Every operation's output is checked; failures count towards "failed".
// The timed loop repeats the workload's operations round-robin until
// --seconds have passed and every operation ran at least once.  Per-
// operation medians make the figures independent of where the loop stops.
//
// --trace 1 wraps every call into a gkll module in a perf::Scope, runs the
// same timed loop, then makes standalone per-layer calls (probes) and
// prints the per-layer metrics instead of the end-to-end ones.
//
// --tiny swaps in the self-test inputs (c17, toyseq, s1238 and small
// generated designs); --inject plants one wrong expectation so the
// self-test can see it counted as a failure.
//
// Output: human-readable lines, one "#counters {...}" line of
// deterministic work counters, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/oracle.h"
#include "attack/sat_attack.h"
#include "benchgen/synthetic_bench.h"
#include "core/gk_encryptor.h"
#include "flow/ff_select.h"
#include "flow/gk_flow.h"
#include "flow/placement.h"
#include "lock/glitch_keygate.h"
#include "lock/locking.h"
#include "lock/xor_lock.h"
#include "netlist/compiled.h"
#include "netlist/netlist_ops.h"
#include "sat/cnf.h"
#include "service/service.h"
#include "timing/sta.h"
#include "trace.h"
#include "util/json.h"

namespace {

using namespace gkll;
using perf::Scope;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double nowS() { return static_cast<double>(perf::nowNs()) * 1e-9; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic stream of 64-bit draws keyed by (seed, stream index).
struct Draw {
  std::uint64_t state;
  Draw(std::uint64_t seed, std::uint64_t index)
      : state(splitmix(seed * 0x2545F4914F6CDD1DULL ^ splitmix(index))) {}
  std::uint64_t next() { return state = splitmix(state); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::uint64_t fnv(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Geometric mean: every operation's relative change counts the same,
/// however long the operation is.
double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t k = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(k, v.size() - 1)];
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string inject;  ///< "", "verdict", "oracle" or "pin"
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

/// Everything a run reports.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool nondeterministic = false;
  std::size_t timedSpans = 0;  ///< spans recorded inside the timed loop
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;
  std::map<std::string, std::int64_t> counters;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 8) std::fprintf(stderr, "gkll_perf: FAILED %s\n", what.c_str());
  }
  /// Same operation re-run in-process must do identical work.
  void sameWork(bool same, const std::string& what) {
    if (same) return;
    nondeterministic = true;
    std::fprintf(stderr, "gkll_perf: NONDETERMINISTIC work in %s\n", what.c_str());
  }
  void addE2e(const std::string& n, double v, const std::string& unit) {
    e2e.push_back({n, {v, unit}});
  }
  void addLayer(const std::string& n, double v, const std::string& unit) {
    layer.push_back({n, {v, unit}});
  }
};

/// Stable flop-selection entry point: the pooled overload when the library
/// still has one, the plain one otherwise.
template <class N>
std::vector<FfCandidate> selectFlops(const N& nl, const Sta& sta,
                                     const StaResult& t, const GkTiming& gk,
                                     const FfSelectOptions& o) {
  if constexpr (requires { analyzeFlops(nl, sta, t, gk, o, nullptr); })
    return analyzeFlops(nl, sta, t, gk, o, nullptr);
  else
    return analyzeFlops(nl, sta, t, gk, o);
}

Netlist generate(const std::string& name) {
  Scope s("benchgen");
  return generateByName(name);
}

std::uint64_t specSeed(const std::string& name) {
  for (const BenchSpec& s : iwls2005Specs())
    if (s.name == name) return s.seed;
  return 1;
}

/// Runs `setup` kSetups times; returns the last result and the median time.
template <class T>
T timedSetups(double& setupS, const std::function<T()>& setup) {
  std::vector<double> times;
  T last{};
  for (int i = 0; i < kSetups; ++i) {
    Scope root("bench.setup");
    last = T{};  // release the previous set-up before building the next
    const double t0 = nowS();
    last = setup();
    times.push_back(nowS() - t0);
  }
  setupS = median(times);
  return last;
}

/// Round-robin loop over `n` operations: stops once `seconds` have passed
/// and every operation ran at least once.  Returns the loop's wall time.
double roundRobin(std::size_t n, double seconds, Report& rep,
                  const std::function<void(std::size_t op, int rep)>& run) {
  const std::size_t spans0 = perf::Tracer::get().spanCount();
  double wall = 0;
  {
    Scope root("bench.timed");
    const double t0 = nowS();
    for (std::size_t k = 0;; ++k) {
      if (k >= n && nowS() - t0 >= seconds) break;
      run(k % n, static_cast<int>(k / n));
    }
    wall = nowS() - t0;
  }
  rep.timedSpans = perf::Tracer::get().spanCount() - spans0;
  return wall;
}

// ---------------------------------------------------------------------------
// Attack rows (shared by the attack workload and the attack probe)
// ---------------------------------------------------------------------------

enum class Scheme { kGk, kXor, kHybrid };
const char* schemeName(Scheme s) {
  return s == Scheme::kGk ? "gk" : s == Scheme::kXor ? "xor" : "hybrid";
}

struct Row {
  std::string label;
  Scheme scheme = Scheme::kGk;
  Netlist comb;
  std::vector<NetId> keys;
  std::shared_ptr<const Netlist> oracle;
};

struct RowRun {
  SatAttackResult res;
  double ms = 0;
};

/// Lock one circuit as GK-4, GK-8, XOR-16 and hybrid 4 GK + 8 XOR.
void lockRows(const std::string& name, std::vector<Row>& rows, Report& rep) {
  const Netlist original = generate(name);
  auto oracle = std::make_shared<Netlist>();
  {
    Scope s("netlist");
    *oracle = extractCombinational(original).netlist;
  }
  GkEncryptor enc(original);
  auto gkRow = [&](int gks, int xors, Scheme scheme, const std::string& label) {
    EncryptOptions opt;
    opt.numGks = gks;
    opt.hybridXorKeys = xors;
    GkFlowResult locked;
    {
      Scope s("core");
      locked = enc.encrypt(opt);
    }
    rep.check(static_cast<int>(locked.insertions.size()) == gks,
              label + ": " + std::to_string(locked.insertions.size()) +
                  " GKs inserted");
    GkEncryptor::AttackSurface surf;
    {
      Scope s("core");
      surf = enc.attackSurface(locked);
    }
    Row r{label, scheme, std::move(surf.comb), surf.gkKeys, oracle};
    r.keys.insert(r.keys.end(), surf.otherKeys.begin(), surf.otherKeys.end());
    rows.push_back(std::move(r));
  };
  gkRow(4, 0, Scheme::kGk, name + "/gk4");
  gkRow(8, 0, Scheme::kGk, name + "/gk8");
  {
    XorLockOptions xo;
    xo.numKeyBits = 16;
    xo.seed = specSeed(name);
    LockedDesign xl;
    {
      Scope s("lock");
      xl = xorLock(original, xo);
    }
    CombExtraction comb;
    {
      Scope s("netlist");
      comb = extractCombinational(xl.netlist);
    }
    Row r{name + "/xor16", Scheme::kXor, std::move(comb.netlist), {}, oracle};
    for (NetId k : xl.keyInputs) r.keys.push_back(comb.netMap[k]);
    rows.push_back(std::move(r));
  }
  gkRow(4, 8, Scheme::kHybrid, name + "/hybrid");
}

RowRun attackRow(const Row& row) {
  SatAttackOptions budget;
  budget.conflictBudget = 1'000'000;
  RowRun out;
  const double t0 = nowS();
  {
    Scope s("attack");
    out.res = satAttack(row.comb, row.keys, *row.oracle, budget);
  }
  out.ms = (nowS() - t0) * 1e3;
  return out;
}

/// Paper Sec. VI verdicts: GK rows die at DIP 1 undecrypted, XOR rows are
/// decrypted, hybrid rows abort on contradictory key constraints.
bool verdictOk(Scheme s, const SatAttackResult& r) {
  switch (s) {
    case Scheme::kGk:
      return r.unsatAtFirstIteration && !r.decrypted;
    case Scheme::kXor:
      return r.decrypted;
    case Scheme::kHybrid:
      return r.keyConstraintsUnsat;
  }
  return false;
}

bool sameAttackWork(const SatAttackResult& a, const SatAttackResult& b) {
  return a.dips == b.dips && a.solverStats.conflicts == b.solverStats.conflicts &&
         a.solverStats.propagations == b.solverStats.propagations &&
         a.solverStats.decisions == b.solverStats.decisions;
}

// ---------------------------------------------------------------------------
// Service request stream (shared by the service workload and its probe)
// ---------------------------------------------------------------------------

struct ServiceDesigns {
  std::vector<std::string> oracleNames;  ///< resident, queried designs
  std::string lockName;                  ///< gk-locked with 64 seeds
  std::string uploadPrefix;              ///< "gen:<cells>x<ffs>@"
  int uploadVariants = 256;
  int lockSeeds = 64;
  int patternsPerDesign = 256;
  int batchSize = 64;
};

ServiceDesigns serviceDesigns(bool tiny) {
  ServiceDesigns d;
  if (tiny) {
    d.oracleNames = {"s1238", "c17", "toyseq"};
    d.lockName = "s1238";
    d.uploadPrefix = "gen:2000x100@";
    d.uploadVariants = 8;
    d.lockSeeds = 4;
    d.patternsPerDesign = 32;
    d.batchSize = 8;
  } else {
    d.oracleNames = {"s5378", "s9234", "s13207", "s38417"};
    d.lockName = "s1238";
    d.uploadPrefix = "gen:3000x150@";
  }
  return d;
}

enum class ReqKind { kQuery, kBatch, kLock, kUpload };

struct Request {
  ReqKind kind = ReqKind::kQuery;
  int design = 0;
  std::vector<int> patterns;
  int variant = 0;  ///< lock seed or upload generator seed
};

/// Request i of the stream: ~90 % oracle_query, ~6 % oracle_batch,
/// ~2.5 % lock, ~1.5 % upload.
Request makeRequest(std::uint64_t seed, std::uint64_t i, const ServiceDesigns& d) {
  Draw r(seed, i);
  Request q;
  const double u = r.unit();
  const auto designs = static_cast<std::uint64_t>(d.oracleNames.size());
  const auto pats = static_cast<std::uint64_t>(d.patternsPerDesign);
  if (u < 0.90) {
    q.kind = ReqKind::kQuery;
    q.design = static_cast<int>(r.below(designs));
    q.patterns = {static_cast<int>(r.below(pats))};
  } else if (u < 0.96) {
    q.kind = ReqKind::kBatch;
    q.design = static_cast<int>(r.below(designs));
    for (int k = 0; k < d.batchSize; ++k)
      q.patterns.push_back(static_cast<int>(r.below(pats)));
  } else if (u < 0.985) {
    q.kind = ReqKind::kLock;
    q.variant = 1 + static_cast<int>(r.below(static_cast<std::uint64_t>(d.lockSeeds)));
  } else {
    q.kind = ReqKind::kUpload;
    q.variant = 1 + static_cast<int>(r.below(static_cast<std::uint64_t>(d.uploadVariants)));
  }
  return q;
}

/// The raw text of an "outputs" value: the string of a query response or
/// the array body of a batch response.
std::string_view outputsOf(const std::string& resp) {
  std::size_t p = resp.find("\"outputs\":");
  if (p == std::string::npos) return {};
  p += 10;
  if (p >= resp.size()) return {};
  const char close = resp[p] == '[' ? ']' : '"';
  const std::size_t e = resp.find(close, p + 1);
  if (e == std::string::npos) return {};
  return std::string_view(resp).substr(p + 1, e - p - 1);
}

/// A set-up Service: resident designs uploaded and their oracles warm.
struct ServiceState {
  ServiceDesigns designs;
  std::unique_ptr<service::Service> svc;
  std::vector<std::string> handles;  ///< per oracle design
  std::string lockHandle;
  std::vector<std::vector<std::string>> patterns;  ///< per design, per index
};

std::string handleRequest(service::Service& svc, const std::string& req) {
  Scope s("service");
  return svc.handle(req);
}

ServiceState setUpService(std::uint64_t seed, bool tiny) {
  ServiceState st;
  st.designs = serviceDesigns(tiny);
  service::ServiceOptions so;
  so.threads = 2;
  so.maxInflight = 2;
  so.storeBudgetBytes = std::size_t{1} << 30;
  st.svc = std::make_unique<service::Service>(so);
  auto upload = [&](const std::string& name) {
    util::JsonValue v;
    util::parseJson(handleRequest(*st.svc, "{\"id\":0,\"verb\":\"upload\","
                                           "\"generate\":\"" + name + "\"}"),
                    v);
    std::string h = v.stringOr("handle", "");
    if (h.empty()) throw std::runtime_error("set-up upload failed: " + name);
    return h;
  };
  for (std::size_t d = 0; d < st.designs.oracleNames.size(); ++d) {
    const std::string h = upload(st.designs.oracleNames[d]);
    st.handles.push_back(h);
    // The oracle's inputs: the PIs, then one pseudo PI per flop.
    const std::shared_ptr<service::StoreEntry> e = st.svc->store().find(h);
    const std::size_t n = e->netlist.inputs().size() + e->netlist.flops().size();
    Draw r(seed ^ 0x5EED, d);
    std::vector<std::string> pats;
    for (int p = 0; p < st.designs.patternsPerDesign; ++p) {
      std::string s(n, '0');
      for (char& c : s) c = (r.next() >> 63) ? '1' : '0';
      pats.push_back(std::move(s));
    }
    // Warm the design: the first query pays extraction + compile.
    handleRequest(*st.svc, "{\"id\":0,\"verb\":\"oracle_query\",\"handle\":\"" + h +
                               "\",\"inputs\":\"" + pats[0] + "\"}");
    st.patterns.push_back(std::move(pats));
  }
  st.lockHandle = upload(st.designs.lockName);
  return st;
}

std::string requestText(const ServiceState& st, const Request& q, std::uint64_t id) {
  std::string s = "{\"id\":" + std::to_string(id);
  switch (q.kind) {
    case ReqKind::kQuery:
      s += ",\"verb\":\"oracle_query\",\"handle\":\"" + st.handles[q.design] +
           "\",\"inputs\":\"" + st.patterns[q.design][q.patterns[0]] + "\"}";
      break;
    case ReqKind::kBatch:
      s += ",\"verb\":\"oracle_batch\",\"handle\":\"" + st.handles[q.design] +
           "\",\"queries\":[";
      for (std::size_t k = 0; k < q.patterns.size(); ++k) {
        if (k) s += ',';
        s += '"' + st.patterns[q.design][q.patterns[k]] + '"';
      }
      s += "]}";
      break;
    case ReqKind::kLock:
      s += ",\"verb\":\"lock\",\"handle\":\"" + st.lockHandle +
           "\",\"scheme\":\"gk\",\"seed\":" + std::to_string(q.variant) + "}";
      break;
    case ReqKind::kUpload:
      s += ",\"verb\":\"upload\",\"generate\":\"" + st.designs.uploadPrefix +
           std::to_string(q.variant) + "\"}";
      break;
  }
  return s;
}

std::vector<Logic> toLogic(const std::string& pattern) {
  std::vector<Logic> in;
  in.reserve(pattern.size());
  for (char c : pattern) in.push_back(c == '1' ? Logic::T : Logic::F);
  return in;
}

/// Direct CombOracle answers for every pattern of every resident design,
/// as the service would print them.
std::vector<std::vector<std::string>> directAnswers(const ServiceState& st) {
  std::vector<std::vector<std::string>> out;
  for (std::size_t d = 0; d < st.designs.oracleNames.size(); ++d) {
    const Netlist nl = generateByName(st.designs.oracleNames[d]);
    const Netlist comb = extractCombinational(nl).netlist;
    const CombOracle oracle(comb);
    std::vector<std::string> answers;
    for (const std::string& p : st.patterns[d]) {
      std::string s;
      for (Logic l : oracle.query(toLogic(p))) s += logicChar(l);
      answers.push_back(std::move(s));
    }
    out.push_back(std::move(answers));
  }
  return out;
}

std::string expectedOutputs(const Request& q,
                            const std::vector<std::vector<std::string>>& ans) {
  if (q.kind == ReqKind::kQuery) return ans[q.design][q.patterns[0]];
  std::string s;
  for (std::size_t k = 0; k < q.patterns.size(); ++k) {
    if (k) s += ',';
    s += '"' + ans[q.design][q.patterns[k]] + '"';
  }
  return s;
}

bool responseOk(const std::string& resp) {
  return resp.find("\"ok\":true") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs only, after the timed work)
// ---------------------------------------------------------------------------

/// Standalone calls into benchgen / netlist / timing / flow / sim / lock /
/// core on each of the workload's own designs.
void probeDesigns(const std::vector<std::string>& names, Report& rep) {
  const CellLibrary& lib = CellLibrary::tsmc013c();
  double genMs = 0, extractMs = 0, staMs = 0, selMs = 0, gkMs = 0, verifyMs = 0,
         xorMs = 0, surfMs = 0;
  std::int64_t insertions = 0, repairs = 0, cycles = 0;
  auto ms = [](double t0) { return (nowS() - t0) * 1e3; };
  for (const std::string& name : names) {
    double t0 = nowS();
    const Netlist original = generate(name);
    genMs += ms(t0);
    // c17 / toyseq (self-test inputs) are too small to lock.
    if (original.flops().empty() || original.numGates() < 100) continue;

    t0 = nowS();
    {
      Scope s("netlist");
      const CombExtraction ce = extractCombinational(original);
    }
    extractMs += ms(t0);

    Netlist nl = original;
    PlacementResult pr;
    {
      Scope s("flow");
      pr = placeAndRoute(nl, PlacementOptions{});
    }
    StaConfig cfg;
    cfg.inputArrival = lib.clkToQ();
    Sta sta(nl, cfg, lib);
    for (std::size_t i = 0; i < nl.flops().size(); ++i)
      sta.setClockArrival(nl.flops()[i], pr.clockArrival[i]);
    sta.setClockPeriod(sta.minClockPeriod(100));
    t0 = nowS();
    StaResult timing;
    {
      Scope s("timing");
      timing = sta.run();
    }
    staMs += ms(t0);

    GkParams proto;
    proto.gkDelayA = ns(1) - lib.maxDelay(CellKind::kXnor2);
    proto.gkDelayB = ns(1) - lib.maxDelay(CellKind::kXor2);
    const GkTiming gk = gkTiming(proto, lib);
    t0 = nowS();
    {
      Scope s("flow");
      const std::vector<FfCandidate> cands =
          selectFlops(nl, sta, timing, gk, FfSelectOptions{});
      const std::vector<GateId> group = karmakarGroup(nl, cands);
    }
    selMs += ms(t0);

    GkFlowOptions fo;
    fo.numGks = 4;
    t0 = nowS();
    GkFlowResult flow;
    {
      Scope s("flow");
      flow = runGkFlow(original, fo);
    }
    gkMs += ms(t0);
    insertions += static_cast<std::int64_t>(flow.insertions.size());
    repairs += flow.repairRounds;

    VerifyOptions vo;
    vo.clockPeriod = flow.clockPeriod;
    vo.inputArrival = lib.clkToQ();
    t0 = nowS();
    VerifyReport v;
    {
      Scope s("sim");
      v = verifySequential(original, flow.design.netlist, original.flops().size(),
                           flow.clockArrival, flow.design.keyInputs,
                           flow.design.correctKey, vo);
    }
    verifyMs += ms(t0);
    cycles += v.cyclesCompared;
    rep.check(flow.insertions.empty() || v.ok(), "probe verify " + name);

    XorLockOptions xo;
    xo.numKeyBits = 16;
    t0 = nowS();
    {
      Scope s("lock");
      const LockedDesign xl = xorLock(original, xo);
    }
    xorMs += ms(t0);

    if (!flow.insertions.empty()) {
      const GkEncryptor enc(original);
      t0 = nowS();
      {
        Scope s("core");
        const GkEncryptor::AttackSurface surf = enc.attackSurface(flow);
      }
      surfMs += ms(t0);
    }
  }
  rep.addLayer("benchgen.generate_ms", genMs, "ms");
  rep.addLayer("netlist.extract_ms", extractMs, "ms");
  rep.addLayer("timing.sta_ms", staMs, "ms");
  rep.addLayer("flow.ff_select_ms", selMs, "ms");
  rep.addLayer("flow.gk_ms", gkMs, "ms");
  rep.addLayer("flow.insertions", static_cast<double>(insertions), "count");
  rep.addLayer("flow.repair_rounds", static_cast<double>(repairs), "count");
  rep.addLayer("sim.verify_ms", verifyMs, "ms");
  rep.addLayer("sim.verify_cycles", static_cast<double>(cycles), "count");
  rep.addLayer("lock.xor_ms", xorMs, "ms");
  rep.addLayer("core.attack_surface_ms", surfMs, "ms");
}

/// Miter, equivalence and solver-work figures over attack rows and their
/// (already computed) results.
void probeAttack(const std::vector<Row>& rows, const std::vector<RowRun>& runs,
                 Report& rep) {
  double miterMs = 0, equivMs = 0, attackMs = 0;
  std::int64_t miterClauses = 0, miterVars = 0, dips = 0, props = 0;
  double dipClauses = 0;
  std::map<std::string, std::array<std::int64_t, 4>> perScheme;
  for (const char* s : {"gk", "xor", "hybrid"}) perScheme[s] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const SatAttackResult& r = runs[i].res;
    CompiledNetlist cn = [&] {
      Scope s("netlist");
      return CompiledNetlist::compile(row.comb);
    }();
    double t0 = nowS();
    {
      Scope s("sat");
      const MiterTemplate m = buildMiterTemplate(cn, row.keys);
      miterClauses += static_cast<std::int64_t>(m.clauses.size());
      miterVars += m.numVars;
    }
    miterMs += (nowS() - t0) * 1e3;

    std::array<std::int64_t, 4>& ps = perScheme[schemeName(row.scheme)];
    ps[0] += static_cast<std::int64_t>(r.solverStats.conflicts);
    ps[1] += static_cast<std::int64_t>(r.solverStats.propagations);
    ps[2] += static_cast<std::int64_t>(r.solverStats.decisions);
    ps[3] += static_cast<std::int64_t>(r.solverStats.solveCalls);
    props += static_cast<std::int64_t>(r.solverStats.propagations);
    attackMs += runs[i].ms;
    dips += r.dips;
    dipClauses += r.cnfClausesPerDip * r.dips;

    if (row.scheme == Scheme::kXor && r.decrypted) {
      t0 = nowS();
      Netlist unlocked;
      {
        Scope s("lock");
        unlocked = applyKey(row.comb, row.keys, r.recoveredKey);
      }
      bool eq = false;
      {
        Scope s("sat");
        eq = sat::checkEquivalence(unlocked, *row.oracle).equivalent;
      }
      equivMs += (nowS() - t0) * 1e3;
      rep.check(eq, "probe equivalence " + row.label);
    }
  }
  rep.addLayer("sat.miter_ms", miterMs, "ms");
  rep.addLayer("sat.miter_clauses", static_cast<double>(miterClauses), "count");
  rep.addLayer("sat.miter_vars", static_cast<double>(miterVars), "count");
  for (const auto& [scheme, v] : perScheme) {
    const std::string b = "sat." + scheme + ".";
    rep.addLayer(b + "conflicts", static_cast<double>(v[0]), "count");
    rep.addLayer(b + "propagations", static_cast<double>(v[1]), "count");
    rep.addLayer(b + "decisions", static_cast<double>(v[2]), "count");
    rep.addLayer(b + "solve_calls", static_cast<double>(v[3]), "count");
  }
  rep.addLayer("sat.props_per_s", attackMs > 0 ? props / (attackMs * 1e-3) : 0.0, "1/s");
  rep.addLayer("sat.equiv_ms", equivMs, "ms");
  rep.addLayer("attack.dips", static_cast<double>(dips), "count");
  rep.addLayer("attack.cnf_clauses_per_dip", dips > 0 ? dipClauses / dips : 0.0,
               "count");
}

constexpr int kServiceProbeRequests = 2000;

/// A fresh Service replays the first kServiceProbeRequests requests of the
/// stream one at a time:
/// store and cache counters on a fixed stream, plus the service's own
/// overhead over a direct CombOracle query on the first resident design.
void probeService(std::uint64_t seed, bool tiny, Report& rep, bool asLayer) {
  ServiceState st = setUpService(seed, tiny);
  std::vector<double> handleUs, parseUs;
  int locks = 0;
  for (int i = 0; i < kServiceProbeRequests; ++i) {
    const Request q = makeRequest(seed, static_cast<std::uint64_t>(i), st.designs);
    const std::string req = requestText(st, q, static_cast<std::uint64_t>(i));
    if (q.kind == ReqKind::kLock) ++locks;
    if (q.kind == ReqKind::kBatch) {
      const double t0 = nowS();
      util::JsonValue v;
      util::parseJson(req, v);
      parseUs.push_back((nowS() - t0) * 1e6);
    }
    const double t0 = nowS();
    const std::string resp = handleRequest(*st.svc, req);
    const double us = (nowS() - t0) * 1e6;
    if (q.kind == ReqKind::kQuery && q.design == 0) handleUs.push_back(us);
    rep.check(responseOk(resp), "probe request " + std::to_string(i));
  }
  util::JsonValue stats;
  util::parseJson(handleRequest(*st.svc, "{\"id\":1,\"verb\":\"stats\"}"), stats);
  const util::JsonValue* store = stats.find("store");
  const auto num = [](const util::JsonValue* v, const char* k) {
    return v ? static_cast<std::int64_t>(v->numberOr(k, -1)) : -1;
  };
  const std::int64_t hits = num(store, "hits"), misses = num(store, "misses");
  const std::int64_t lockHits = num(&stats, "lock_cache_hits");
  rep.counters["service.store_hits"] = hits;
  rep.counters["service.store_misses"] = misses;
  rep.counters["service.lock_cache_hits"] = lockHits;
  rep.counters["service.errors"] = num(&stats, "errors");
  if (!asLayer) return;

  // Direct evaluation of the same patterns on the same design.
  const Netlist comb =
      extractCombinational(generateByName(st.designs.oracleNames[0])).netlist;
  const CombOracle oracle(comb);
  std::vector<double> evalUs;
  for (const std::string& p : st.patterns[0]) {
    const std::vector<Logic> in = toLogic(p);
    const double t0 = nowS();
    {
      Scope s("netlist");
      const std::vector<Logic> out = oracle.query(in);
    }
    evalUs.push_back((nowS() - t0) * 1e6);
  }
  const double eval = median(evalUs);
  rep.addLayer("netlist.eval_us", eval, "us");
  rep.addLayer("service.overhead_us", median(handleUs) - eval, "us");
  rep.addLayer("service.parse_us", median(parseUs), "us");
  rep.addLayer("service.store_hits", static_cast<double>(hits), "count");
  rep.addLayer("service.store_misses", static_cast<double>(misses), "count");
  rep.addLayer("service.lock_cache_hit_ratio",
               locks > 0 ? static_cast<double>(lockHits) / locks : 0.0, "ratio");
  rep.addLayer("service.errors", static_cast<double>(num(&stats, "errors")), "count");
  rep.addLayer("service.rejected_busy",
               static_cast<double>(num(&stats, "rejected_busy")), "count");
}

/// All per-layer probes of a traced run.  `rows`/`runs` are the
/// workload's own attack rows and results; without them (flow, service) the
/// four s1238 rows are locked and attacked here.
void probeLayers(const Args& a, const std::vector<std::string>& designs,
                 const std::vector<Row>* rows, const std::vector<RowRun>* runs,
                 Report& rep) {
  Scope root("bench.probe");
  std::vector<Row> ownRows;
  std::vector<RowRun> ownRuns;
  if (!rows) {
    lockRows("s1238", ownRows, rep);
    for (const Row& r : ownRows) ownRuns.push_back(attackRow(r));
    rows = &ownRows;
    runs = &ownRuns;
  }
  probeAttack(*rows, *runs, rep);
  probeDesigns(designs, rep);
  probeService(a.seed, a.tiny, rep, /*asLayer=*/true);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

std::vector<std::string> attackCircuits(bool tiny) {
  if (tiny) return {"s1238"};
  return {"s1238", "s5378", "s9234", "s13207", "s15850", "s38417"};
}

/// The four Table II configurations.
struct FlowConfig {
  int gks;
  int xors;
};
constexpr std::array<FlowConfig, 4> kFlowConfigs{{{4, 0}, {8, 0}, {16, 0}, {8, 16}}};

struct FlowOp {
  std::size_t design;
  std::size_t config;
  bool large;
};

void runAttack(const Args& a, Report& rep, double& timedWall) {
  double setupS = 0;
  using Rows = std::shared_ptr<std::vector<Row>>;
  const Rows rows = timedSetups<Rows>(setupS, [&] {
    auto r = std::make_shared<std::vector<Row>>();
    for (const std::string& c : attackCircuits(a.tiny)) lockRows(c, *r, rep);
    return r;
  });

  std::vector<std::vector<double>> ms(rows->size());
  std::vector<RowRun> first(rows->size());
  timedWall = roundRobin(rows->size(), a.seconds, rep, [&](std::size_t i, int repIdx) {
    const Row& row = (*rows)[i];
    RowRun run = attackRow(row);
    ms[i].push_back(run.ms);
    const bool wantOk = !(a.inject == "verdict" && i == 0);
    rep.check(verdictOk(row.scheme, run.res) == wantOk, "verdict " + row.label);
    if (repIdx == 0)
      first[i] = std::move(run);
    else
      rep.sameWork(sameAttackWork(first[i].res, run.res), row.label);
  });

  double total = 0, gk = 0, xr = 0;
  std::vector<double> rowMedians;
  std::int64_t samples = 0;
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const double m = median(ms[i]);
    rowMedians.push_back(m);
    samples += static_cast<std::int64_t>(ms[i].size());
    total += m * 1e-3;
    if ((*rows)[i].scheme == Scheme::kGk) gk += m * 1e-3;
    if ((*rows)[i].scheme == Scheme::kXor) xr += m * 1e-3;
    const SatAttackResult& r = first[i].res;
    const std::string b = std::string("attack.") + schemeName((*rows)[i].scheme) + ".";
    rep.counters[b + "conflicts"] += static_cast<std::int64_t>(r.solverStats.conflicts);
    rep.counters[b + "propagations"] +=
        static_cast<std::int64_t>(r.solverStats.propagations);
    rep.counters[b + "decisions"] += static_cast<std::int64_t>(r.solverStats.decisions);
    rep.counters[b + "dips"] += r.dips;
  }
  std::printf("attack: %zu rows, %" PRId64 " attacks in %.2f s\n", rows->size(),
              samples, timedWall);
  std::printf("  attack_s      %.4f s\n  gk_attack_s   %.4f s\n"
              "  xor_attack_s  %.4f s\n",
              total, gk, xr);
  rep.addE2e("setup_s", setupS, "s");
  rep.addE2e("work_s", total, "s");
  rep.addE2e("op_ms", geomean(rowMedians), "ms");

  if (a.trace) probeLayers(a, attackCircuits(a.tiny), rows.get(), &first, rep);
}

void runFlow(const Args& a, Report& rep, double& timedWall) {
  std::vector<std::string> names;
  if (a.tiny) {
    names = {"s1238"};
  } else {
    for (const BenchSpec& s : iwls2005Specs()) names.push_back(s.name);
  }
  // The large design is fixed and the seed drives its GK host selection:
  // from one generator seed to the next the design's structure alone moves
  // its flow time by about 25 %, more than the run-to-run noise.
  names.push_back(a.tiny ? "gen:2000x100@1" : "gen:50000x2500@1");

  double setupS = 0;
  using Designs = std::shared_ptr<std::vector<Netlist>>;
  const Designs designs = timedSetups<Designs>(setupS, [&] {
    auto d = std::make_shared<std::vector<Netlist>>();
    for (const std::string& n : names) d->push_back(generate(n));
    return d;
  });

  std::vector<FlowOp> ops;
  for (std::size_t d = 0; d < names.size(); ++d)
    for (std::size_t c = 0; c < kFlowConfigs.size(); ++c)
      ops.push_back({d, c, d + 1 == names.size()});

  struct FlowWork {
    std::size_t insertions = 0;
    int repairs = 0;
    int cycles = 0;
  };
  std::vector<std::vector<double>> ms(ops.size());
  std::vector<FlowWork> first(ops.size());
  timedWall = roundRobin(ops.size(), a.seconds, rep, [&](std::size_t i, int repIdx) {
    const FlowOp& op = ops[i];
    GkFlowOptions fo;
    fo.numGks = kFlowConfigs[op.config].gks;
    fo.hybridXorKeys = kFlowConfigs[op.config].xors;
    fo.seed = op.large ? a.seed + op.config : 11 + op.config;
    const double t0 = nowS();
    GkFlowResult r;
    {
      Scope s("flow");
      r = runGkFlow((*designs)[op.design], fo);
    }
    ms[i].push_back((nowS() - t0) * 1e3);
    // Every Table II cell and every large-design config inserts all the
    // GKs it asks for (no dashes at these sizes).
    const int pinned = fo.numGks + (a.inject == "pin" && i == 0 ? 1 : 0);
    const std::string label = names[op.design] + "/gk" + std::to_string(fo.numGks) +
                              "x" + std::to_string(fo.hybridXorKeys);
    rep.check(static_cast<int>(r.insertions.size()) == pinned && r.verify.ok(),
              label + ": " + std::to_string(r.insertions.size()) +
                  " insertions, verify " + (r.verify.ok() ? "ok" : "failed"));
    const FlowWork w{r.insertions.size(), r.repairRounds, r.verify.cyclesCompared};
    if (repIdx == 0)
      first[i] = w;
    else
      rep.sameWork(w.insertions == first[i].insertions &&
                       w.repairs == first[i].repairs && w.cycles == first[i].cycles,
                   label);
  });

  double table2 = 0, largeS = 0;
  std::vector<double> opMedians;
  std::int64_t samples = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double m = median(ms[i]);
    opMedians.push_back(m);
    samples += static_cast<std::int64_t>(ms[i].size());
    (ops[i].large ? largeS : table2) += m * 1e-3;
    const std::string b = ops[i].large ? "flow.large." : "flow.table2.";
    rep.counters[b + "insertions"] += static_cast<std::int64_t>(first[i].insertions);
    rep.counters[b + "repair_rounds"] += first[i].repairs;
    rep.counters[b + "verify_cycles"] += first[i].cycles;
  }
  std::printf("flow: %zu flows, %" PRId64 " runs in %.2f s\n", ops.size(), samples,
              timedWall);
  std::printf("  flow_table2_s %.4f s\n  flow_large_s  %.4f s\n", table2, largeS);
  rep.addE2e("setup_s", setupS, "s");
  rep.addE2e("work_s", table2 + largeS, "s");
  rep.addE2e("op_ms", geomean(opMedians), "ms");

  if (a.trace) probeLayers(a, names, nullptr, nullptr, rep);
}

void runService(const Args& a, Report& rep, double& timedWall) {
  double setupS = 0;
  using State = std::shared_ptr<ServiceState>;
  const State st = timedSetups<State>(setupS, [&] {
    return std::make_shared<ServiceState>(setUpService(a.seed, a.tiny));
  });

  struct Record {
    std::uint64_t index;
    std::uint64_t hash;
  };
  struct ClientLog {
    std::vector<double> queryUs, batchUs, writeUs;
    std::vector<Record> checks;  ///< oracle responses to verify afterwards
    std::int64_t done = 0;
    std::int64_t bad = 0;
  };
  std::array<ClientLog, 2> logs;
  std::atomic<std::uint64_t> next{0};
  double t0 = 0;
  const std::size_t spans0 = perf::Tracer::get().spanCount();
  {
    Scope root("bench.timed");
    t0 = nowS();
    const double stopAt = t0 + a.seconds;
    auto serve = [&](ClientLog& log) {
      while (nowS() < stopAt) {
        const std::uint64_t i = next.fetch_add(1);
        const Request q = makeRequest(a.seed, i, st->designs);
        const std::string req = requestText(*st, q, i);
        const double s0 = nowS();
        const std::string resp = handleRequest(*st->svc, req);
        const double us = (nowS() - s0) * 1e6;
        ++log.done;
        const bool ok = responseOk(resp);
        if (!ok) {
          ++log.bad;
          if (log.bad <= 4)
            std::fprintf(stderr, "gkll_perf: bad response %s\n",
                         resp.substr(0, 200).c_str());
        }
        switch (q.kind) {
          case ReqKind::kQuery:
            log.queryUs.push_back(us);
            break;
          case ReqKind::kBatch:
            log.batchUs.push_back(us);
            break;
          default:
            log.writeUs.push_back(us);
        }
        if (ok && (q.kind == ReqKind::kQuery || q.kind == ReqKind::kBatch))
          log.checks.push_back({i, fnv(outputsOf(resp))});
        if (ok && q.kind == ReqKind::kLock &&
            resp.find("\"verify_ok\":true") == std::string::npos) {
          ++log.bad;
        }
      }
    };
    // A client thread must not let an exception escape; it counts as a
    // failed request instead.
    auto client = [&](ClientLog& log) noexcept {
      try {
        serve(log);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gkll_perf: client: %s\n", e.what());
        ++log.bad;
      }
    };
    {
      std::jthread second(client, std::ref(logs[1]));
      client(logs[0]);
    }
    timedWall = nowS() - t0;
  }
  rep.timedSpans = perf::Tracer::get().spanCount() - spans0;

  // Verify every oracle output against a direct CombOracle answer.
  std::vector<std::vector<std::string>> answers = directAnswers(*st);
  if (a.inject == "oracle" && !logs[0].checks.empty()) {
    const Request q = makeRequest(a.seed, logs[0].checks[0].index, st->designs);
    char& c = answers[q.design][q.patterns[0]][0];
    c = c == '1' ? '0' : '1';
  }
  std::vector<double> queryUs, batchUs, writeUs;
  std::int64_t done = 0, bad = 0;
  for (const ClientLog& log : logs) {
    queryUs.insert(queryUs.end(), log.queryUs.begin(), log.queryUs.end());
    batchUs.insert(batchUs.end(), log.batchUs.begin(), log.batchUs.end());
    writeUs.insert(writeUs.end(), log.writeUs.begin(), log.writeUs.end());
    done += log.done;
    bad += log.bad;
    for (const Record& r : log.checks) {
      const Request q = makeRequest(a.seed, r.index, st->designs);
      if (fnv(expectedOutputs(q, answers)) != r.hash) ++bad;
    }
  }
  rep.attempted += done;
  rep.failed += std::min(bad, done);
  if (bad > 0) std::fprintf(stderr, "gkll_perf: FAILED %" PRId64 " service requests\n", bad);

  std::vector<double> all = queryUs;
  all.insert(all.end(), batchUs.begin(), batchUs.end());
  all.insert(all.end(), writeUs.begin(), writeUs.end());
  const double rps = static_cast<double>(done) / timedWall;
  std::printf("service: %" PRId64 " requests in %.2f s (2 clients, closed loop)\n", done,
              timedWall);
  std::printf("  req_per_s     %.1f 1/s\n", rps);
  std::printf("  query_us_p50  %.2f us (n=%zu)\n", median(queryUs), queryUs.size());
  std::printf("  query_us_p99  %.2f us (n=%zu)\n", percentile(queryUs, 99), queryUs.size());
  std::printf("  batch_us_p50  %.2f us (n=%zu)\n", median(batchUs), batchUs.size());
  std::printf("  write_us_p50  %.2f us (n=%zu)\n", median(writeUs), writeUs.size());
  rep.addE2e("setup_s", setupS, "s");
  rep.addE2e("work_s", 1e4 / rps, "s");
  rep.addE2e("op_ms", median(all) * 1e-3, "ms");

  if (a.trace) {
    std::vector<std::string> names = st->designs.oracleNames;
    names.push_back(st->designs.lockName);
    names.push_back(st->designs.uploadPrefix + "1");
    probeLayers(a, names, nullptr, nullptr, rep);
  } else {
    probeService(a.seed, a.tiny, rep, /*asLayer=*/false);  // work counters
  }
}

const char* const kLayers[] = {"benchgen", "netlist", "timing", "flow",   "lock",
                               "core",     "sim",     "sat",    "attack", "service"};

/// Per-layer self time and call counts from the spans, plus the tracing
/// overhead: spans recorded in the timed loop times the measured cost of
/// one span, as a share of the loop's wall time.
void addTraceMetrics(Report& rep, std::size_t timedSpans, double timedWall) {
  perf::Tracer& t = perf::Tracer::get();
  const auto totals = t.totals();
  for (const char* layer : kLayers) {
    const auto it = totals.find(layer);
    const perf::Tracer::LayerTotals lt =
        it != totals.end() ? it->second : perf::Tracer::LayerTotals{};
    rep.addLayer(std::string("self.") + layer + "_ms", lt.selfNs * 1e-6, "ms");
    rep.addLayer(std::string("calls.") + layer, static_cast<double>(lt.calls), "count");
  }
  constexpr int kCalib = 100000;
  const double c0 = nowS();
  for (int i = 0; i < kCalib; ++i) Scope s("bench.calibrate");
  const double perSpanS = (nowS() - c0) / kCalib;
  rep.addLayer("trace.spans", static_cast<double>(timedSpans), "count");
  rep.addLayer("trace.span_ns", perSpanS * 1e9, "ns");
  rep.addLayer("trace.overhead_pct",
               100.0 * static_cast<double>(timedSpans) * perSpanS / timedWall, "%");
}

void printJsonMetrics(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>& ms) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].first.c_str(), ms[i].second.first, ms[i].second.second.c_str());
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: gkll_perf --workload attack|flow|service --seed N --seconds S "
               "--trace 0|1 [--tiny] [--inject verdict|oracle|pin]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (k == "--tiny") {
      a.tiny = true;
    } else if (!v) {
      return usage();
    } else if (k == "--workload") {
      a.workload = v, ++i;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr), ++i;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0, ++i;
    } else if (k == "--inject") {
      a.inject = v, ++i;
    } else {
      return usage();
    }
  }
  perf::Tracer::get().on = a.trace;

  Report rep;
  double timedWall = 0;
  try {
    if (a.workload == "attack")
      runAttack(a, rep, timedWall);
    else if (a.workload == "flow")
      runFlow(a, rep, timedWall);
    else if (a.workload == "service")
      runService(a, rep, timedWall);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gkll_perf: %s\n", e.what());
    return 1;
  }
  const double rss = peakRssMb();
  rep.addE2e("peak_rss_mb", rss, "MB");

  std::printf("  setup_s       %.4f s\n  peak_rss_mb   %.1f MB\n",
              rep.e2e[0].second.first, rss);
  std::printf("  failed_ratio  %.6f (%" PRId64 " of %" PRId64 ")\n",
              rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 0.0,
              rep.failed, rep.attempted);

  std::printf("#counters {");
  bool firstCounter = true;
  for (const auto& [k, v] : rep.counters) {
    std::printf("%s\"%s\": %" PRId64, firstCounter ? "" : ", ", k.c_str(), v);
    firstCounter = false;
  }
  std::printf("}\n");

  if (a.trace) addTraceMetrics(rep, rep.timedSpans, timedWall);
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64 ", ",
              rep.failed == 0 && !rep.nondeterministic ? "true" : "false",
              rep.attempted, rep.failed);
  printJsonMetrics(a.trace ? rep.layer : rep.e2e);
  std::printf("}\n");
  return 0;
}
