// dmv_perfbench: the repository's end-to-end benchmark.
//
// Drives the DMV cluster (the paper's §2 system: one master, 8 slaves, the
// calibrated cost model) on one closed-loop workload and reports each
// interaction on two clocks: virtual time (the simulated cluster, what the
// paper measures) and host time (what the simulator costs to run).
//
//   dmv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   dmv_perfbench --selfcheck
//
// A run is several independent replicas of the workload, each with its own
// seed derived from --seed, each built, warmed up, measured and drained on
// its own. --trace 0 pools their interactions into the end-to-end metrics.
// --trace 1 runs the first replica twice, untraced then traced (dmv_obs
// spans plus the SIGPROF sampler of sampler.hpp), checks that the traced
// run reproduces the untraced one bit for bit, and prints the per-layer
// metrics. The last line of standard output is one JSON object; the exit
// code is 0 only when every output check passed. --selfcheck verifies that
// the benchmark's own cluster assembly (rig.hpp) reproduces
// harness::DmvExperiment at seed 0.
//
// README.md beside this file gives the workloads, the metrics and which
// end-to-end metric each per-layer metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <ctime>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "rig.hpp"
#include "sampler.hpp"

using namespace perfbench;

namespace {

// ---------- workloads ----------

struct WorkloadDef {
  const char* name;
  workload::Kind kind;
  size_t clients;
  bool persistence;
  // Measured virtual seconds, over all replicas, per requested host
  // second. It fixes the simulated work of a run, so every virtual result
  // is a function of the seed alone.
  double vs_per_host_s;
};

// Every workload is closed loop with exponential 700 ms think time;
// README.md gives the reason for each client count.
const WorkloadDef kWorkloads[] = {
    {"tpcw_shopping", workload::Kind::Tpcw, 1200, true, 9.0},
    {"orders_saturated", workload::Kind::Orders, 600, false, 15.0},
    {"scan_reporting", workload::Kind::Scan, 400, false, 6.0},
};

constexpr int kReplicas = 6;
constexpr int kWarmupS = 5;
// The first replica of a process grows the heap and costs about 20% more
// host time than the others; host metrics leave out this many replicas.
constexpr int kHostWarmupReplicas = 1;

// The scheduler retries a read that hit a version-inconsistency abort at
// most this many times before failing it to the client. The repository
// default (5) fails a few interactions per run on tpcw_shopping and
// scan_reporting; this budget fails none, and the aborts still show as
// mem.version_abort_rate and in read latency.
constexpr int kVersionAbortRetries = 40;

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

SystemConfig system_config(const WorkloadDef& w) {
  SystemConfig s;
  harness::DmvExperiment::Config& x = s.exp;
  x.workload.kind = w.kind;
  x.workload.scale.items = 1000;
  x.workload.mix = tpcw::Mix::Shopping;
  x.workload.clients = w.clients;
  x.workload.think_mean = 700 * sim::kMsec;
  x.workload.bucket = sim::kSec;
  x.slaves = 8;
  // The calibrated cost model every figure bench uses: a slave peaks at a
  // few hundred interactions/s, single-row writes are cheap.
  x.costs.mem_cpu_read_query = 2 * sim::kMsec;
  x.costs.mem_cpu_write_query = 400;
  x.persistence = w.persistence;
  s.version_abort_retries = kVersionAbortRetries;
  return s;
}

struct Window {
  sim::Time warm = 0;
  sim::Time end = 0;
};

// Each replica's window: the run's measured virtual seconds split evenly.
Window window_for(const WorkloadDef& w, int seconds) {
  const double total = double(seconds) * w.vs_per_host_s;
  const int64_t each = std::max<int64_t>(1, int64_t(total / kReplicas + 0.5));
  return {kWarmupS * sim::kSec, (kWarmupS + each) * sim::kSec};
}

// Replica seeds of different run seeds never coincide (kReplicas < 16).
Seeds replica_seeds(uint64_t seed, int replica) {
  return Seeds::from(seed * 16 + uint64_t(replica));
}

// ---------- measurement ----------

// CPU time of the calling thread. The simulator runs on this one thread, so
// time the kernel gives to other processes is not counted.
double thread_cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

class CpuTimer {
 public:
  double seconds() const { return thread_cpu_s() - t0_; }

 private:
  double t0_ = thread_cpu_s();
};

// A fixed unit of host work that depends on nothing in src/: random
// lower_bound, erase and insert on a 2^17-entry std::map, the
// pointer-chasing, allocating kind of work the simulator does. On a shared
// host the machine's speed drifts by tens of percent over minutes with the
// load of other tenants, and a CPU-time clock does not see it. The gauge
// is timed between the simulator's virtual seconds, and host times are
// rescaled to a machine on which one unit takes kNominalS, so host metrics
// follow the simulator's own cost rather than the machine's load.
class SpeedGauge {
 public:
  // One unit's CPU time on an idle 4-vCPU Intel Xeon KVM guest.
  static constexpr double kNominalS = 0.015;

  SpeedGauge() {
    for (int i = 0; i < (1 << 17); ++i) map_[next()] = uint64_t(i);
  }

  void tick() {
    CpuTimer t;
    for (int i = 0; i < kOpsPerUnit; ++i) {
      auto it = map_.lower_bound(next());
      if (it == map_.end()) it = map_.begin();
      const uint64_t v = it->second;
      map_.erase(it);
      while (!map_.emplace(next(), v + 1).second) {
      }
    }
    seconds_ += t.seconds();
    ++units_;
  }

  uint64_t units() const { return units_; }
  double unit_s() const { return units_ ? seconds_ / double(units_) : 0; }
  // Nominal over measured unit time; 1 before the first tick.
  double scale() const { return units_ ? kNominalS / unit_s() : 1.0; }

 private:
  static constexpr int kOpsPerUnit = 10000;

  uint64_t next() {  // xorshift64, 24-bit keys
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_ & 0xffffff;
  }

  std::map<uint64_t, uint64_t> map_;
  uint64_t x_ = 88172645463325252ull;
  double seconds_ = 0;
  uint64_t units_ = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Cumulative counters read from the public stats accessors.
struct Counters {
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t commits = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_deaths = 0;
  uint64_t retries = 0;
  uint64_t mods_enqueued = 0;
  uint64_t mods_applied = 0;
  uint64_t version_aborts = 0;
  uint64_t read_commits = 0;
  uint64_t persist_records = 0;
  uint64_t wal_bytes = 0;
};

Counters read_counters(Rig& rig) {
  Counters c;
  core::DmvCluster& cl = rig.cluster();
  c.events = rig.sim().events_processed();
  c.msgs = rig.net().messages_sent();
  c.bytes = rig.net().bytes_sent();
  mem::MemEngine& master = cl.master().engine();
  c.commits = master.stats().update_commits;
  c.lock_waits = master.locks().wait_count();
  c.lock_deaths = master.locks().death_count();
  c.retries = cl.scheduler().stats().version_abort_retries;
  std::vector<mem::MemEngine*> engines = {&master};
  for (size_t i = 0; i < cl.slave_count(); ++i)
    engines.push_back(&cl.node(cl.slave_id(i)).engine());
  for (mem::MemEngine* e : engines) {
    c.mods_enqueued += e->stats().mods_enqueued;
    c.mods_applied += e->stats().mods_applied;
    c.version_aborts += e->stats().version_aborts;
    c.read_commits += e->stats().read_commits;
  }
  if (core::PersistenceBinding* p = cl.persistence()) {
    c.persist_records = p->total_seq();
    for (size_t b = 0; b < p->backend_count(); ++b)
      c.wal_bytes += p->backend(b).wal().bytes_appended();
  }
  return c;
}

// Log records the slowest live persistence backend has not applied yet.
uint64_t persistence_lag(Rig& rig) {
  core::PersistenceBinding* p = rig.cluster().persistence();
  if (!p) return 0;
  uint64_t slowest = p->total_seq();
  for (size_t b = 0; b < p->backend_count(); ++b)
    if (p->backend_live(b)) slowest = std::min(slowest, p->backend_applied(b));
  return p->total_seq() - slowest;
}

// One replica's outcome. Virtual fields are a function of the replica's
// seed alone; host fields are measurements.
struct RunResult {
  uint64_t events = 0;  // whole run, drain included
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t window_ok = 0;
  std::vector<sim::Time> read;    // window latencies, completion order
  std::vector<sim::Time> update;
  Counters at_warm;
  Counters at_end;
  uint64_t max_lag = 0;
  double window_vs = 0;
  double window_host_s = 0;
  std::vector<std::string> failures;  // output checks that did not hold

  bool same_virtual(const RunResult& o) const {
    return events == o.events && attempted == o.attempted && ok == o.ok &&
           failed == o.failed && window_ok == o.window_ok &&
           read == o.read && update == o.update;
  }
};

// Runs the rig's clients through warm-up and the measured window, drains,
// and checks the outputs. `sampler`, when given, runs over the window only;
// `gauge`, when given, takes one unit after every virtual second of it.
// window_host_s is the simulator's CPU time in the window, gauge excluded.
RunResult run(Rig& rig, const Window& win, Sampler* sampler,
              SpeedGauge* gauge) {
  RunResult r;
  Recorder rec(win.warm, win.end);
  rig.start(rec);
  rig.run_until(win.warm);
  r.at_warm = read_counters(rig);
  r.max_lag = persistence_lag(rig);
  if (sampler) sampler->start(1000);
  // One virtual second at a time, to sample the persistence lag; run()
  // boundaries add no events.
  for (sim::Time t = win.warm + sim::kSec; t <= win.end; t += sim::kSec) {
    CpuTimer cpu;
    rig.run_until(t);
    r.max_lag = std::max(r.max_lag, persistence_lag(rig));
    r.window_host_s += cpu.seconds();
    if (gauge) gauge->tick();
  }
  if (sampler) sampler->stop();
  r.at_end = read_counters(rig);
  r.window_vs = sim::to_seconds(win.end - win.warm);
  rig.stop();

  r.events = rig.sim().events_processed();
  r.attempted = rig.attempted();
  r.ok = rec.ok();
  r.failed = rec.failed();
  r.window_ok = rec.window_ok();
  r.read = rec.read_latencies();
  r.update = rec.update_latencies();

  // ---- output checks ----
  if (r.attempted != r.ok + r.failed)
    r.failures.push_back("attempted " + std::to_string(r.attempted) +
                         " != ok " + std::to_string(r.ok) + " + failed " +
                         std::to_string(r.failed));
  core::DmvCluster& cl = rig.cluster();
  const mem::VersionVec& master_v = cl.master().engine().version();
  for (size_t i = 0; i < cl.slave_count(); ++i) {
    const net::NodeId id = cl.slave_id(i);
    if (rig.net().alive(id) &&
        cl.node(id).engine().received_version() != master_v)
      r.failures.push_back("slave " + std::to_string(i) +
                           " received version differs from the master's");
  }
  if (core::PersistenceBinding* p = cl.persistence())
    if (p->logged_version() != master_v)
      r.failures.push_back(
          "persistence log frontier differs from the master's version");
  return r;
}

// Virtual latency of one interaction class, pooled over replicas.
struct Latency {
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t samples = 0;
  size_t beyond_p99 = 0;  // samples above the reported p99
};

Latency latency(std::vector<sim::Time> v) {
  Latency l;
  l.samples = v.size();
  if (v.empty()) return l;
  std::sort(v.begin(), v.end());
  const size_t k50 = size_t(double(v.size() - 1) * 0.50);
  const size_t k99 = size_t(double(v.size() - 1) * 0.99);
  l.mean_ms = double(std::accumulate(v.begin(), v.end(), int64_t{0})) /
              double(v.size()) / 1000.0;
  l.p50_ms = double(v[k50]) / 1000.0;
  l.p99_ms = double(v[k99]) / 1000.0;
  l.beyond_p99 = v.size() - 1 - k99;
  return l;
}

// ---------- output ----------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Human-readable lines, then the one-line JSON result.
void report(const std::vector<Metric>& metrics,
            const std::vector<std::string>& failures, uint64_t attempted,
            uint64_t failed) {
  for (const auto& f : failures) std::cout << "# CHECK FAILED: " << f << "\n";
  for (const auto& m : metrics)
    std::cout << "# " << m.name << " = " << m.value << " " << m.unit << "\n";
  std::cout << "{\"correct\": " << (failures.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

void print_latency(const char* cls, const Latency& l) {
  std::cout << "# " << cls << ": " << l.samples << " samples, mean "
            << l.mean_ms << " ms, p50 " << l.p50_ms << " ms, p99 " << l.p99_ms
            << " ms (" << l.beyond_p99 << " samples beyond)\n";
}

double peak_rss_mb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Virtual time per span name and per category, over spans that end inside
// the window.
struct SpanTotals {
  std::map<std::string, std::pair<uint64_t, sim::Time>> by_name;
  std::array<sim::Time, obs::kNumCats> by_cat{};

  double mean_ms(const char* name) const {
    auto it = by_name.find(name);
    if (it == by_name.end()) return 0;
    return double(it->second.second) / double(it->second.first) / 1000.0;
  }
};

SpanTotals span_totals(const obs::Tracer& t, const Window& win) {
  SpanTotals s;
  for (const obs::SpanRec& sp : t.completed()) {
    if (sp.end < win.warm || sp.end >= win.end) continue;
    auto& e = s.by_name[sp.name];
    ++e.first;
    e.second += sp.duration();
    s.by_cat[size_t(sp.cat)] += sp.duration();
  }
  return s;
}

// ---------- modes ----------

int run_untraced(const WorkloadDef& w, uint64_t seed, const Window& win) {
  const SystemConfig cfg = system_config(w);
  SpeedGauge gauge;
  // Set-up is short next to its noise: report the median over replicas.
  std::vector<double> setups;
  std::vector<RunResult> runs;
  for (int i = 0; i < kReplicas; ++i) {
    CpuTimer t;
    Rig rig(cfg, replica_seeds(seed, i), false);
    setups.push_back(t.seconds());
    runs.push_back(run(rig, win, nullptr, &gauge));
  }

  std::vector<std::string> failures;
  std::vector<sim::Time> reads, updates;
  uint64_t attempted = 0, failed = 0, window_ok = 0;
  double window_vs = 0, host_s = 0, host_vs = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    reads.insert(reads.end(), r.read.begin(), r.read.end());
    updates.insert(updates.end(), r.update.begin(), r.update.end());
    attempted += r.attempted;
    failed += r.failed;
    window_ok += r.window_ok;
    window_vs += r.window_vs;
    if (i < kHostWarmupReplicas) continue;
    host_s += r.window_host_s;
    host_vs += r.window_vs;
  }
  const Latency rl = latency(std::move(reads));
  const Latency ul = latency(std::move(updates));
  for (const Latency* l : {&rl, &ul})
    if (l->beyond_p99 < 10)
      failures.push_back("too few samples for a p99 (" +
                         std::to_string(l->samples) + ")");
  print_latency("read", rl);
  print_latency("update", ul);
  std::cout << "# " << runs.size() << " replicas x "
            << sim::to_seconds(win.end - win.warm)
            << " measured virtual s; CPU s per virtual s, not rescaled:";
  for (const RunResult& r : runs)
    std::cout << " " << r.window_host_s / r.window_vs;
  std::cout << "\n# speed gauge: " << gauge.units() << " units, "
            << gauge.unit_s() * 1e3 << " ms each (nominal "
            << SpeedGauge::kNominalS * 1e3 << "), scale " << gauge.scale()
            << "\n";
  report({{"wips", double(window_ok) / window_vs, "1/s"},
          {"read_mean_ms", rl.mean_ms, "ms"},
          {"read_p99_ms", rl.p99_ms, "ms"},
          {"update_mean_ms", ul.mean_ms, "ms"},
          {"update_p99_ms", ul.p99_ms, "ms"},
          {"host_sec_per_virtual_sec", host_s / host_vs * gauge.scale(),
           "s/s"},
          {"setup_s", median(setups) * gauge.scale(), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}},
         failures, attempted, failed);
  return failures.empty() ? 0 : 1;
}

int run_traced(const WorkloadDef& w, uint64_t seed, const Window& win) {
  const SystemConfig cfg = system_config(w);
  const Seeds seeds = replica_seeds(seed, 0);
  // The gauge rescales the untraced run only: its units would be samples
  // of no layer in the traced one.
  SpeedGauge gauge;
  RunResult base;
  {
    Rig rig(cfg, seeds, false);
    base = run(rig, win, nullptr, &gauge);
  }
  Sampler sampler;
  Rig rig(cfg, seeds, true);
  RunResult tr = run(rig, win, &sampler, nullptr);
  std::vector<std::string> failures = base.failures;
  for (const auto& f : tr.failures) failures.push_back("traced run: " + f);
  if (!tr.same_virtual(base))
    failures.push_back("traced run diverged from the untraced run");
  if (rig.tracer().open_count() != 0)
    failures.push_back(std::to_string(rig.tracer().open_count()) +
                       " spans still open after the drain");
  if (rig.tracer().dropped() != 0)
    failures.push_back(std::to_string(rig.tracer().dropped()) +
                       " spans dropped past the tracer's capacity");
  if (sampler.symbol_count() == 0)
    failures.push_back("no function symbols found for the sampler");

  // Counts come from the untraced run, times from the traced one.
  const Counters& a = base.at_warm;
  const Counters& b = base.at_end;
  const double vs = base.window_vs;
  const double commits = double(b.commits - a.commits);
  const double events = double(b.events - a.events);
  const double aborts = double(b.version_aborts - a.version_aborts);
  const SpanTotals spans = span_totals(rig.tracer(), win);
  const Sampler::Counts counts = sampler.counts();
  const double samples = double(sampler.samples());

  std::vector<Metric> m = {
      {"sim.events_per_vs", events / vs, "1/vs"},
      {"sim.host_ns_per_event",
       ratio(base.window_host_s * gauge.scale() * 1e9, events), "ns"},
      {"net.msgs_per_commit", ratio(double(b.msgs - a.msgs), commits),
       "count"},
      {"net.bytes_per_commit", ratio(double(b.bytes - a.bytes), commits), "B"},
      {"sched.version_abort_retries_per_vs", double(b.retries - a.retries) / vs,
       "1/vs"},
      {"sched.read_ms", spans.mean_ms("sched.read"), "ms"},
      {"lock.waits_per_commit",
       ratio(double(b.lock_waits - a.lock_waits), commits), "count"},
      {"lock.deaths", double(b.lock_deaths - a.lock_deaths), "count"},
      {"lock.wait_ms", spans.mean_ms("lock.wait"), "ms"},
      {"repl.diff_ms", spans.mean_ms("master.diff"), "ms"},
      {"apply.ms", spans.mean_ms("slave.apply"), "ms"},
      {"mem.apply_ratio",
       ratio(double(b.mods_applied - a.mods_applied),
             double(b.mods_enqueued - a.mods_enqueued)),
       "ratio"},
      {"mem.version_abort_rate",
       ratio(aborts, aborts + double(b.read_commits - a.read_commits)),
       "ratio"},
      {"persist.records_per_commit",
       ratio(double(b.persist_records - a.persist_records), commits), "count"},
      {"persist.max_lag_records", double(base.max_lag), "count"},
      {"disk.wal_bytes_per_commit",
       ratio(double(b.wal_bytes - a.wal_bytes), commits), "B"},
      {"error_rate", ratio(double(base.failed), double(base.attempted)),
       "ratio"},
      {"lat.read_samples", double(base.read.size()), "count"},
      {"lat.update_samples", double(base.update.size()), "count"},
      {"trace.overhead", ratio(tr.window_host_s, base.window_host_s), "ratio"},
      {"host.samples", samples, "count"},
  };
  for (size_t l = 0; l < kNumLayers; ++l)
    m.push_back({std::string("host.") + layer_name(Layer(l)) + ".share",
                 ratio(double(counts[l]), samples), "share"});

  for (size_t l = 0; l < kNumLayers; ++l)
    std::cout << "# host " << layer_name(Layer(l)) << ": " << counts[l]
              << " samples\n";
  for (size_t c = 0; c < obs::kNumCats; ++c)
    if (spans.by_cat[c] > 0)
      std::cout << "# virtual " << obs::cat_name(obs::Cat(c)) << ": "
                << double(spans.by_cat[c]) / 1000.0 << " ms in spans\n";
  report(m, failures, base.attempted, base.failed);
  return failures.empty() ? 0 : 1;
}

// Seed 0: the Rig and harness::DmvExperiment must simulate the same run.
// DmvExperiment has no retry-budget knob, so both keep the default.
int selfcheck() {
  bool ok = true;
  for (const auto& w : kWorkloads) {
    SystemConfig cfg = system_config(w);
    cfg.version_abort_retries = SystemConfig{}.version_abort_retries;
    const Window win{2 * sim::kSec, 5 * sim::kSec};
    uint64_t exp_events = 0;
    double exp_wips = 0;
    {
      harness::DmvExperiment exp(cfg.exp);
      exp.start();
      exp.run_until(win.end);
      exp_wips = exp.series().wips(win.warm, win.end);
      exp.stop();
      exp_events = exp.sim().events_processed();
    }
    Rig rig(cfg, Seeds::from(0), false);
    const RunResult r = run(rig, win, nullptr, nullptr);
    const double wips = double(r.window_ok) / r.window_vs;
    const bool same = r.events == exp_events && wips == exp_wips;
    std::cout << "# selfcheck " << w.name << ": events " << r.events << " vs "
              << exp_events << ", wips " << wips << " vs " << exp_wips
              << (same ? " ok" : " MISMATCH") << "\n";
    ok = ok && same;
  }
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: dmv_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       dmv_perfbench --selfcheck\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0;
  int seconds = 10;
  int trace = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--selfcheck") return selfcheck();
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") name = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stoi(v);
      else if (a == "--trace") trace = std::stoi(v);
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  const WorkloadDef* w = find_workload(name);
  if (!w || seconds < 1 || (trace != 0 && trace != 1)) return usage();
  const Window win = window_for(*w, seconds);
  return trace ? run_traced(*w, seed, win) : run_untraced(*w, seed, win);
}
