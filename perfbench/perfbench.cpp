// msbist-perfbench — the end-to-end benchmark program.
//
//   msbist-perfbench --workload lot|campaign|screen|triage --seed N
//                    --seconds S --trace 0|1 --daemon PATH --work-dir DIR
//
// Untraced run (--trace 0): boots a fresh `msbistd --workers 2` with an
// empty --state-dir under DIR/state. That is a tmpfs private to this
// process where the kernel allows it, so the journal's fsyncs do not
// measure the shared disk. It checks that /healthz reports
// nothing recovered or skipped, warms the daemon up with the workload's
// own requests, and drives it for S seconds from a closed loop of two
// client threads. Each client has one keep-alive service::HttpClient and
// runs submit -> poll GET /jobs/{id} every 1 ms -> GET /jobs/{id}/result.
// Set-up (exec to warm-up done) is repeated kSetupRounds times on fresh
// daemons and its median reported; the last daemon serves the timed
// phase. Every result is checked against an in-process
// service::dispatch of the same request, timing fields stripped.
//
// Traced run (--trace 1): the same HTTP loop with client-side spans for
// half the time, then an in-process replay of the same requests through
// each layer's public functions (replay.h) for the other half. Prints
// the per-layer metrics, a layer table on stderr, and writes every span
// to DIR/trace-<workload>-<seed>.jsonl.
//
// The last stdout line is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status 0 when the run completed (even with failed operations,
// which the result reports); 2 on bad arguments or a run that could not
// be carried out.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/job.h"
#include "core/json.h"
#include "core/json_value.h"
#include "replay.h"
#include "service/dispatch.h"
#include "service/http.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = msbist::core;
namespace service = msbist::service;

constexpr int kSetupRounds = 5;
constexpr std::size_t kClients = 2;
constexpr std::size_t kJournalProbeJobs = 4;
constexpr double kJobTimeoutS = 120.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Workloads --------------------------------------------------------

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// The distinct requests; client c's k-th job sends pool[(k + c) % n].
  std::vector<core::JobRequest> pool;
  std::vector<std::string> bodies;  ///< pool, as sent over HTTP
  std::size_t warmup_per_client = 1;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  std::uint64_t rng = seed ^ 0x6D73626973746264ull;  // "msbistbd"
  auto base = [&] {
    core::JobRequest r;
    r.label = "perfbench-" + name;
    r.client_tag = "perfbench";
    r.threads = 1;
    r.batch_seed = splitmix64(rng) >> 1;
    return r;
  };
  if (name == "lot") {
    // The paper's 10-die production lot: full spec + all four tiers.
    for (int i = 0; i < 8; ++i) {
      core::JobRequest r = base();
      r.kind = core::JobKind::kBatch;
      r.device_count = 10;
      r.full_spec = true;
      r.tiers = {"analog", "ramp", "digital", "compressed"};
      w.pool.push_back(r);
    }
    w.warmup_per_client = 3;
  } else if (name == "campaign") {
    // Figure 4's circuit 2, all 12 faults, collapsed.
    core::JobRequest r = base();
    r.kind = core::JobKind::kFaultCampaign;
    r.circuit = "sc_integrator_comparator";
    r.collapse = true;
    r.max_faults = 0;
    w.pool.push_back(r);
    w.warmup_per_client = 1;
  } else if (name == "screen") {
    // 256-die lockstep settling screen (BatchTransient / BatchSparseLu).
    for (int i = 0; i < 4; ++i) {
      core::JobRequest r = base();
      r.kind = core::JobKind::kLockstepBatch;
      r.device_count = 256;
      w.pool.push_back(r);
    }
    w.warmup_per_client = 4;
  } else if (name == "triage") {
    // ~1 ms testability jobs: HTTP, JSON, queueing, journal, polling.
    for (const char* circuit : {"op1_follower", "sc_integrator_comparator"}) {
      core::JobRequest r = base();
      r.kind = core::JobKind::kTestability;
      r.circuit = circuit;
      w.pool.push_back(r);
    }
    w.warmup_per_client = 150;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  for (const core::JobRequest& r : w.pool) {
    core::JsonWriter jw;
    r.to_json(jw);
    w.bodies.push_back(jw.str());
  }
  return w;
}

// --- Report checking --------------------------------------------------

bool is_timing_key(const std::string& key) {
  static const std::set<std::string> kTiming = {
      "wall_seconds", "cpu_seconds", "elapsed_seconds", "devices_per_second"};
  return kTiming.count(key) != 0;
}

core::JsonValue strip_timing(const core::JsonValue& v) {
  if (v.is_object()) {
    core::JsonValue out = core::JsonValue::object();
    for (const auto& [key, child] : v.members()) {
      if (!is_timing_key(key)) out.set(key, strip_timing(child));
    }
    return out;
  }
  if (v.is_array()) {
    core::JsonValue out = core::JsonValue::array();
    for (const core::JsonValue& item : v.items()) out.push_back(strip_timing(item));
    return out;
  }
  return v;
}

std::string canonical_report(const std::string& report_json) {
  return strip_timing(core::parse_json(report_json)).dump();
}

/// Expected outcome of every pool request, from in-process dispatch.
struct Expected {
  std::vector<service::DispatchResult> reference;
  std::vector<std::string> canon;  ///< reference report, timing stripped
  std::vector<double> units;       ///< work units one job completes
  /// Empty, or why the reference itself fails the paper's numbers; every
  /// job of that request then counts as failed.
  std::vector<std::string> problem;
};

Expected compute_expected(const Workload& w) {
  Expected e;
  for (const core::JobRequest& req : w.pool) {
    service::DispatchResult res = service::dispatch(req);
    e.canon.push_back(canonical_report(res.report_json));
    double units = 1.0;
    std::string problem;
    if (res.batch) units = static_cast<double>(res.batch->devices.size());
    if (res.campaign) {
      const auto& c = *res.campaign;
      units = static_cast<double>(c.simulated_count);
      // EXPERIMENTS.md E6, circuit 2: 12/12 detected at 97.5-100 %.
      if (req.circuit == "sc_integrator_comparator" && req.max_faults == 0) {
        bool in_range = c.results.size() == 12 && c.detected_count == 12;
        for (const auto& r : c.results) {
          in_range = in_range && r.score >= 97.5 && r.score <= 100.0;
        }
        if (!in_range) problem = "circuit 2 is not 12/12 detected at 97.5-100 %";
      }
    }
    e.units.push_back(units);
    e.problem.push_back(problem);
    e.reference.push_back(std::move(res));
  }
  return e;
}

// --- The daemon under test --------------------------------------------

/// Mount a tmpfs at `dir` in a mount namespace of this process's own: the
/// daemons it starts inherit it, and it vanishes when they have all
/// exited. False (dir stays on disk) where the kernel refuses.
bool mount_private_tmpfs(const fs::path& dir) {
  fs::create_directories(dir);
  return ::unshare(CLONE_NEWNS) == 0 &&
         ::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) == 0 &&
         ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=256m,mode=0700") == 0;
}

class Daemon {
 public:
  Daemon(const std::string& exe, const fs::path& state_dir,
         const fs::path& log_path) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const std::string dir = state_dir.string();
    const char* argv[] = {exe.c_str(), "--workers", "2",         "--port",
                          "0",         "--state-dir", dir.c_str(), nullptr};
    pid_ = ::fork();
    if (pid_ == 0) {
      // Dies with msbist-perfbench, so a crashed run leaves no daemon behind.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    out_fd_ = fds[0];
    try {
      if (pid_ < 0) throw std::runtime_error("cannot start " + exe);
      port_ = read_port();
    } catch (...) {
      stop();  // the destructor does not run for a throwing constructor
      throw;
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM, then wait for the drain; SIGKILL after a minute.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const auto t0 = Clock::now();
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (since(t0) > 60.0) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  /// Parse "msbistd listening on ADDR:PORT" from the daemon's stdout.
  std::uint16_t read_port() {
    std::string line;
    const auto t0 = Clock::now();
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      const int left_ms = static_cast<int>(1000.0 * (30.0 - since(t0)));
      if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0) {
        throw std::runtime_error("msbistd did not report its port");
      }
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("msbistd exited during boot");
      line.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = line.rfind(':');
    const int port = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      throw std::runtime_error("unexpected msbistd banner: " + line);
    }
    return static_cast<std::uint16_t>(port);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// utime + stime of every thread of `pid`, in seconds.
double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // After "pid (comm) ", field 3 (state) comes first; utime and stime
  // are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// VmHWM of `pid` in MB.
double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for msbistd");
}

// --- The closed loop --------------------------------------------------

struct JobRecord {
  std::size_t pool_index = 0;
  bool transport_ok = false;
  std::string error;
  double latency_s = 0.0;  ///< client: submit sent -> result received
  double submit_s = 0.0;
  double queue_wait_s = 0.0;  ///< daemon: started - queued
  double run_s = 0.0;         ///< daemon: finished - started
  std::size_t polls = 0;
  std::string result_body;
};

const core::JsonValue& field(const core::JsonValue& v, std::string_view key) {
  const core::JsonValue* m = v.find(key);
  if (m == nullptr) {
    throw std::runtime_error("msbistd reply has no \"" + std::string(key) + "\"");
  }
  return *m;
}

double member_double(const core::JsonValue& v, std::string_view key) {
  const core::JsonValue* m = v.find(key);
  return m != nullptr && m->is_number() ? m->as_double() : 0.0;
}

/// Submit, poll GET /jobs/{id} every 1 ms, fetch the result. The first
/// wait is `first_wait_s` (a fraction of the interval), so poll times are
/// not phase-locked to submits: otherwise a job whose run time sits near
/// a whole number of intervals flips between n and n+1 polls with small
/// changes in machine speed, and short jobs' latency with it.
JobRecord run_job(service::HttpClient& client, const std::string& body,
                  std::size_t pool_index, double first_wait_s, Tracer* tracer,
                  std::uint64_t job) {
  JobRecord rec;
  rec.pool_index = pool_index;
  const auto t0 = Clock::now();
  try {
    Scope job_span(tracer, "job", job);
    service::HttpResponse resp;
    {
      Scope s(tracer, "service.submit", job);
      resp = client.request("POST", "/jobs", body);
    }
    rec.submit_s = since(t0);
    if (resp.status != 202) {
      rec.error = "submit answered " + std::to_string(resp.status);
      return rec;
    }
    const std::uint64_t id = field(core::parse_json(resp.body), "id").as_u64();
    const std::string status_url = "/jobs/" + std::to_string(id);
    for (;;) {
      {
        Scope s(tracer, "service.poll", job);
        resp = client.request("GET", status_url);
      }
      ++rec.polls;
      if (resp.status != 200) {
        rec.error = "poll answered " + std::to_string(resp.status);
        return rec;
      }
      const core::JsonValue status = core::parse_json(resp.body);
      const std::string state = field(status, "state").as_string();
      if (state != "queued" && state != "running") {
        const core::JsonValue* times = status.find("times");
        if (times != nullptr) {
          const double queued = member_double(*times, "queued_seconds");
          const double started = member_double(*times, "started_seconds");
          const double finished = member_double(*times, "finished_seconds");
          rec.queue_wait_s = started - queued;
          rec.run_s = finished - started;
        }
        break;
      }
      if (since(t0) > kJobTimeoutS) {
        rec.error = "job " + std::to_string(id) + " never finished";
        return rec;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(
          rec.polls == 1 ? first_wait_s : 1e-3));
    }
    {
      Scope s(tracer, "service.result", job);
      resp = client.request("GET", status_url + "/result");
    }
    rec.latency_s = since(t0);
    if (resp.status != 200) {
      rec.error = "result answered " + std::to_string(resp.status);
      return rec;
    }
    rec.result_body = std::move(resp.body);
    rec.transport_ok = true;
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

struct ClientRun {
  std::vector<JobRecord> jobs;
  double busy_s = 0.0;  ///< loop start -> last result received
};

/// Closed loop: every client runs jobs back to back until `seconds` have
/// passed (the job in flight then completes) or it has run `max_jobs`.
/// Uses the first `count` clients; tracers, when given, has one each.
std::vector<ClientRun> closed_loop(
    std::vector<std::unique_ptr<service::HttpClient>>& clients,
    std::size_t count, const Workload& w, double seconds, std::size_t max_jobs,
    std::vector<Tracer>* tracers, std::uint64_t job_base) {
  std::vector<ClientRun> runs(count);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      ClientRun& run = runs[c];
      Tracer* tracer = tracers != nullptr ? &(*tracers)[c] : nullptr;
      std::uint64_t rng = w.seed ^ (job_base + (c << 24));
      for (std::size_t k = 0; k < max_jobs && since(start) < seconds; ++k) {
        const std::size_t i = (k + c) % w.pool.size();
        const double first_wait_s =
            1e-3 * static_cast<double>(splitmix64(rng) >> 11) * 0x1p-53;
        run.jobs.push_back(run_job(*clients[c], w.bodies[i], i, first_wait_s,
                                   tracer, job_base + (c << 24) + k));
        run.busy_s = since(start);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return runs;
}

/// Verdict of one HTTP job against the in-process reference; "" = ok.
std::string check_job(const JobRecord& rec, const Expected& e) {
  if (!rec.transport_ok) return rec.error;
  if (!e.problem[rec.pool_index].empty()) return e.problem[rec.pool_index];
  try {
    const core::JsonValue doc = core::parse_json(rec.result_body);
    const core::JsonValue* state = doc.find("state");
    if (state == nullptr || !state->is_string() ||
        state->as_string() != "succeeded") {
      return "job did not succeed: " + rec.result_body.substr(0, 300);
    }
    const core::JsonValue* report = doc.find("report");
    if (report == nullptr || strip_timing(*report).dump() != e.canon[rec.pool_index]) {
      return "report differs from in-process dispatch";
    }
  } catch (const std::exception& ex) {
    return std::string("unreadable result: ") + ex.what();
  }
  return "";
}

// --- One daemon lifetime ----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string daemon;
  fs::path work_dir;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> first_errors;

  void add(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_errors.size() < 5) first_errors.push_back(what);
    }
  }
};

/// One booted msbistd: a fresh state dir, the daemon, a control client
/// and the load clients. The constructor boots it, checks /healthz and
/// runs the warm-up; setup_s() is how long that took.
class Instance {
 public:
  Instance(const Options& opt, const Workload& w, int round)
      : state_dir_(opt.work_dir / "state" / ("daemon-" + std::to_string(round))) {
    fs::remove_all(state_dir_);
    fs::create_directories(state_dir_);
    const auto t0 = Clock::now();
    daemon_ = std::make_unique<Daemon>(opt.daemon, state_dir_,
                                       opt.work_dir / "msbistd.log");
    control_ = std::make_unique<service::HttpClient>(daemon_->port(), kJobTimeoutS);
    check_fresh_journal();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(
          std::make_unique<service::HttpClient>(daemon_->port(), kJobTimeoutS));
    }
    warmup_ = closed_loop(clients_, kClients, w, 1e9, w.warmup_per_client, nullptr, 0);
    setup_s_ = since(t0);
  }

  ~Instance() {
    clients_.clear();
    control_.reset();
    if (daemon_) daemon_->stop();
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Daemon& daemon() { return *daemon_; }
  std::vector<std::unique_ptr<service::HttpClient>>& clients() { return clients_; }
  const std::vector<ClientRun>& warmup() const { return warmup_; }
  double setup_s() const { return setup_s_; }

  core::JsonValue get_json(const std::string& target) {
    const service::HttpResponse resp = control_->request("GET", target);
    if (resp.status != 200) {
      throw std::runtime_error(target + " answered " + std::to_string(resp.status));
    }
    return core::parse_json(resp.body);
  }

 private:
  /// A fresh state dir must boot with nothing recovered or skipped: a
  /// stale journal leaking into the run would change what it measures.
  void check_fresh_journal() {
    const core::JsonValue health = get_json("/healthz");
    const core::JsonValue* status = health.find("status");
    const core::JsonValue* recovery = health.find("recovery");
    if (status == nullptr || !status->is_string() || status->as_string() != "ok" ||
        recovery == nullptr) {
      throw std::runtime_error("/healthz is not ok with a journal: " + health.dump());
    }
    for (const char* key : {"recovered_jobs", "resumed_jobs", "skipped_records"}) {
      const core::JsonValue* v = recovery->find(key);
      if (v == nullptr || !v->is_integer() || v->as_u64() != 0) {
        throw std::runtime_error("fresh state dir is not empty: " + health.dump());
      }
    }
  }

  fs::path state_dir_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<service::HttpClient> control_;
  std::vector<std::unique_ptr<service::HttpClient>> clients_;
  std::vector<ClientRun> warmup_;
  double setup_s_ = 0.0;
};

void tally_jobs(const std::vector<ClientRun>& runs, const Expected& e, Tally& t) {
  for (const ClientRun& run : runs) {
    for (const JobRecord& rec : run.jobs) {
      const std::string err = check_job(rec, e);
      t.add(err.empty(), err);
    }
  }
}

// --- Output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& t, bool correct, const std::vector<Metric>& metrics) {
  for (const std::string& err : t.first_errors) {
    std::fprintf(stderr, "perfbench: failed: %s\n", err.c_str());
  }
  core::JsonWriter w;
  w.begin_object()
      .member("correct", correct && t.failed == 0)
      .member("attempted", static_cast<std::uint64_t>(t.attempted))
      .member("failed", static_cast<std::uint64_t>(t.failed));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object().member("value", m.value).member("unit", m.unit).end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

// --- Untraced run -----------------------------------------------------

int run_untraced(const Options& opt, const Workload& w, const Expected& e,
                 Tally& tally) {
  std::vector<double> setups;
  std::unique_ptr<Instance> instance;
  for (int round = 0; round < kSetupRounds; ++round) {
    instance.reset();  // the previous daemon is gone before the next boots
    instance = std::make_unique<Instance>(opt, w, round);
    setups.push_back(instance->setup_s());
    tally_jobs(instance->warmup(), e, tally);
  }

  const pid_t pid = instance->daemon().pid();
  const double cpu0 = proc_cpu_seconds(pid);
  const std::vector<ClientRun> runs =
      closed_loop(instance->clients(), kClients, w, opt.seconds, SIZE_MAX, nullptr, 0);
  const double cpu_s = proc_cpu_seconds(pid) - cpu0;
  const double peak_rss_mb = proc_peak_rss_mb(pid);
  instance.reset();

  std::vector<double> latencies;
  double units = 0.0;
  double units_per_s = 0.0;
  for (const ClientRun& run : runs) {
    double client_units = 0.0;
    for (const JobRecord& rec : run.jobs) {
      const std::string err = check_job(rec, e);
      tally.add(err.empty(), err);
      if (!err.empty()) continue;
      latencies.push_back(rec.latency_s);
      client_units += e.units[rec.pool_index];
    }
    units += client_units;
    if (run.busy_s > 0.0) units_per_s += client_units / run.busy_s;
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu timed jobs (the job_s samples), "
               "setup rounds:",
               w.name.c_str(), static_cast<unsigned long long>(opt.seed),
               latencies.size());
  for (double s : setups) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, " s\n");

  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"units_per_s", units_per_s, "1/s"},
      {"job_s_p50", percentile(latencies, 0.50), "s"},
      {"job_s_p90", percentile(latencies, 0.90), "s"},
      {"cpu_ms_per_unit", units > 0.0 ? 1000.0 * cpu_s / units : 0.0, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  print_result(tally, !latencies.empty(), metrics);
  return 0;
}

// --- Traced run -------------------------------------------------------

/// (metric, span) pairs: the metric is the span's self time per job.
const std::vector<std::pair<const char*, const char*>> kLayerSpans = {
    {"service.dispatch_s", "service.dispatch"},
    {"core.request_parse_s", "core.request_parse"},
    {"core.report_json_s", "core.report_json"},
    {"core.device_build_s", "core.device_build"},
    {"production.population_s", "production.population"},
    {"production.die_s", "production.die"},
    {"production.evaluate_s", "production.evaluate"},
    {"bist.tier_s.analog", "bist.tier.analog"},
    {"bist.tier_s.ramp", "bist.tier.ramp"},
    {"bist.tier_s.digital", "bist.tier.digital"},
    {"bist.tier_s.compressed", "bist.tier.compressed"},
    {"adc.characterize_s", "adc.characterize"},
    {"circuit.netlist_build_s", "circuit.netlist_build"},
    {"circuit.march_s", "circuit.march"},
    {"tsrt.golden_s", "tsrt.golden"},
    {"tsrt.fault_test_s", "tsrt.fault_test"},
    {"tsrt.detect_s", "tsrt.detect"},
    {"faults.collapse_s", "faults.collapse"},
    {"analysis.testability_s", "analysis.testability"},
};

struct MetricsScrape {
  double request_seconds_sum = 0.0;
  double http_requests = 0.0;
  double keepalive_requests = 0.0;
  double journal_bytes = 0.0;
};

MetricsScrape scrape(Instance& s) {
  const core::JsonValue m = s.get_json("/metrics");
  MetricsScrape out;
  const core::JsonValue& counters = field(m, "counters");
  out.request_seconds_sum =
      member_double(field(field(m, "histograms"), "request_seconds"), "sum");
  out.http_requests = member_double(counters, "http_requests_total");
  out.keepalive_requests = member_double(counters, "keepalive_requests");
  out.journal_bytes = member_double(field(m, "gauges"), "journal_bytes");
  return out;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

int run_traced(const Options& opt, const Workload& w, const Expected& e,
               Tally& tally) {
  const auto epoch = Clock::now();
  std::vector<Tracer> http_tracers(kClients, Tracer(epoch));
  const double http_seconds = opt.seconds / 2.0;

  // Service layer: the HTTP loop with client-side spans.
  std::vector<ClientRun> runs;
  double journal_bytes_per_job = 0.0;
  double handler_s = 0.0;
  double reuse_ratio = 0.0;
  {
    Instance instance(opt, w, 0);
    tally_jobs(instance.warmup(), e, tally);
    // Journal bytes from a few jobs in a row: the gauge is the live
    // segment, which compaction shrinks once 4 MiB have been appended.
    const MetricsScrape m0 = scrape(instance);
    std::vector<Tracer> probe_tracer(1, Tracer(epoch));
    const std::vector<ClientRun> probe = closed_loop(
        instance.clients(), 1, w, 1e9, kJournalProbeJobs, &probe_tracer, 1ull << 40);
    const MetricsScrape m1 = scrape(instance);
    journal_bytes_per_job =
        (m1.journal_bytes - m0.journal_bytes) / static_cast<double>(kJournalProbeJobs);

    runs = closed_loop(instance.clients(), kClients, w, http_seconds, SIZE_MAX,
                       &http_tracers, 0);
    const MetricsScrape m2 = scrape(instance);
    std::size_t jobs = 0;
    for (const ClientRun& r : runs) jobs += r.jobs.size();
    handler_s = jobs > 0 ? (m2.request_seconds_sum - m1.request_seconds_sum) /
                               static_cast<double>(jobs)
                         : 0.0;
    const double requests = m2.http_requests - m1.http_requests;
    reuse_ratio = requests > 0.0
                      ? (m2.keepalive_requests - m1.keepalive_requests) / requests
                      : 0.0;
    runs.insert(runs.end(), probe.begin(), probe.end());
    http_tracers.push_back(probe_tracer[0]);
  }
  tally_jobs(runs, e, tally);

  std::vector<double> submit, polls, queue_wait, run_s, overhead, latency;
  for (const ClientRun& r : runs) {
    for (const JobRecord& rec : r.jobs) {
      if (!rec.transport_ok) continue;
      submit.push_back(rec.submit_s);
      polls.push_back(static_cast<double>(rec.polls));
      queue_wait.push_back(rec.queue_wait_s);
      run_s.push_back(rec.run_s);
      overhead.push_back(rec.latency_s - rec.run_s);
      latency.push_back(rec.latency_s);
    }
  }

  // Engine layers: in-process replay, each job beside an untraced
  // dispatch of the same request (alternating which goes first).
  Tracer replay_tracer(epoch);
  double traced_dispatch_s = 0.0;
  double untraced_dispatch_s = 0.0;
  std::vector<ReplayCounts> counts;
  const auto replay_start = Clock::now();
  for (std::size_t k = 0; k == 0 || since(replay_start) < opt.seconds - http_seconds;
       ++k) {
    const std::size_t i = k % w.pool.size();
    const std::uint64_t job = (2ull << 40) + k;
    auto untraced = [&] {
      const auto t0 = Clock::now();
      service::dispatch(w.pool[i]);  // the result is freed inside the timing
      untraced_dispatch_s += since(t0);
    };
    if (k % 2 == 1) untraced();
    const std::size_t first = replay_tracer.spans().size();
    const ReplayResult rep = replay(w.bodies[i], replay_tracer, job, e.reference[i]);
    for (std::size_t s = first; s < replay_tracer.spans().size(); ++s) {
      const Span& span = replay_tracer.spans()[s];
      if (span.parent == 0 && std::string(span.name) == "service.dispatch") {
        traced_dispatch_s += span.seconds();
      }
    }
    if (k % 2 == 0) untraced();
    const bool ok = rep.report_json.empty()
                        ? rep.verdict_mismatches == 0
                        : canonical_report(rep.report_json) == e.canon[i];
    tally.add(ok, "traced replay of " + w.name + " request " + std::to_string(i) +
                      " differs from dispatch");
    counts.push_back(rep.counts);
  }
  const double replay_jobs = static_cast<double>(counts.size());

  std::map<std::string, double> self;  // per-job mean self time
  for (const auto& [job, by_name] : replay_tracer.self_seconds()) {
    for (const auto& [name, seconds] : by_name) self[name] += seconds / replay_jobs;
  }
  auto mean_count = [&](auto field) {
    double sum = 0.0;
    for (const ReplayCounts& c : counts) sum += static_cast<double>(c.*field);
    return sum / replay_jobs;
  };

  std::vector<Metric> metrics = {
      {"service.submit_s", mean(submit), "s"},
      {"service.poll_requests_per_job", mean(polls), "count"},
      {"service.queue_wait_s", mean(queue_wait), "s"},
      {"service.run_s", mean(run_s), "s"},
      {"service.overhead_s", mean(overhead), "s"},
      {"service.handler_s", handler_s, "s"},
      {"service.journal_bytes_per_job", journal_bytes_per_job, "B"},
      {"service.reuse_ratio", reuse_ratio, "1"},
  };
  for (const auto& [metric, span] : kLayerSpans) {
    metrics.push_back({metric, self.count(span) ? self[span] : 0.0, "s"});
  }
  metrics.push_back({"core.report_bytes", mean_count(&ReplayCounts::report_bytes), "B"});
  metrics.push_back({"circuit.steps", mean_count(&ReplayCounts::steps), "count"});
  metrics.push_back({"circuit.unknowns", mean_count(&ReplayCounts::unknowns), "count"});
  metrics.push_back(
      {"circuit.pattern_nnz", mean_count(&ReplayCounts::pattern_nnz), "count"});
  metrics.push_back(
      {"circuit.pivot_fallbacks", mean_count(&ReplayCounts::pivot_fallbacks), "count"});
  metrics.push_back(
      {"faults.simulated_ratio", mean_count(&ReplayCounts::simulated_ratio), "1"});
  metrics.push_back({"trace.untraced_dispatch_s", untraced_dispatch_s / replay_jobs, "s"});
  metrics.push_back(
      {"trace.overhead_share",
       untraced_dispatch_s > 0.0 ? traced_dispatch_s / untraced_dispatch_s - 1.0 : 0.0,
       "1"});

  // Where a job's time goes, as a markdown table: the daemon-external
  // overhead, each layer's self time from the replay, and what the
  // daemon's run of the job took beyond the replay (two jobs run at once
  // over HTTP, one at a time in the replay). The rows add up to the mean
  // client latency, except that request parsing happens at submit.
  const double job_s = mean(latency);
  const double replay_dispatch_s = traced_dispatch_s / replay_jobs;
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu HTTP jobs (mean latency %.6f s), "
               "%zu replayed jobs\n",
               w.name.c_str(), static_cast<unsigned long long>(opt.seed),
               latency.size(), job_s, counts.size());
  auto row = [job_s](const std::string& name, double seconds) {
    std::fprintf(stderr, "| %s | %.6f | %.1f%% |\n", name.c_str(), seconds,
                 job_s > 0.0 ? 100.0 * seconds / job_s : 0.0);
  };
  std::fprintf(stderr, "| layer metric | s/job | share of job latency |\n|---|---|---|\n");
  row("`service.overhead_s`", mean(overhead));
  row("of which `service.submit_s`", mean(submit));
  row("of which `service.queue_wait_s`", mean(queue_wait));
  for (const auto& [metric, span] : kLayerSpans) {
    if (self.count(span) != 0) row("`" + std::string(metric) + "`", self[span]);
  }
  row("`service.run_s` beyond the replay", mean(run_s) - replay_dispatch_s);

  const fs::path trace_path =
      opt.work_dir / ("trace-" + w.name + "-" + std::to_string(opt.seed) + ".jsonl");
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
    for (std::size_t c = 0; c < http_tracers.size(); ++c) {
      http_tracers[c].write_jsonl(f, static_cast<int>(c));
    }
    replay_tracer.write_jsonl(f, static_cast<int>(http_tracers.size()));
    std::fclose(f);
  }

  print_result(tally, !latency.empty(), metrics);
  return 0;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

int run_main(int argc, char** argv) {
  Options opt;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      ok = parse_u64(value, opt.seed);
      have_seed = ok;
    } else if (arg == "--seconds") {
      ok = parse_u64(value, seconds) && seconds > 0;
    } else if (arg == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (arg == "--daemon") {
      opt.daemon = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "msbist-perfbench: bad argument %s %s\n", arg.c_str(), value);
      return 2;
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || !have_seed || seconds == 0 ||
      opt.daemon.empty() || opt.work_dir.empty()) {
    std::fputs(
        "usage: msbist-perfbench --workload lot|campaign|screen|triage --seed N\n"
        "                        --seconds S --trace 0|1 --daemon PATH "
        "--work-dir DIR\n",
        stderr);
    return 2;
  }
  opt.seconds = static_cast<double>(seconds);
  opt.trace = trace == 1;
  fs::create_directories(opt.work_dir);
  if (!mount_private_tmpfs(opt.work_dir / "state")) {
    std::fprintf(stderr,
                 "perfbench: warning: no private tmpfs; the journal is on disk\n");
  }

  const Workload w = make_workload(opt.workload, opt.seed);
  const auto t0 = Clock::now();
  const Expected e = compute_expected(w);
  std::fprintf(stderr, "perfbench: %zu reference dispatches in %.3f s\n",
               w.pool.size(), since(t0));
  Tally tally;
  return opt.trace ? run_traced(opt, w, e, tally) : run_untraced(opt, w, e, tally);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A dropped keep-alive connection must surface as an error, not a signal.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msbist-perfbench: %s\n", e.what());
    return 2;
  }
}
