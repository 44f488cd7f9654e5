#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "bayesnet/imputation.h"
#include "bayesnet/network.h"
#include "bayesnet/structure_learning.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/runner.h"
#include "crowd/platform.h"
#include "ctable/builder.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/metrics.h"
#include "serve/manager.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"
#include "trace.h"

namespace qbench {
namespace {

using bayescrowd::BayesCrowdOptions;
using bayescrowd::BayesCrowdResult;
using bayescrowd::Result;
using bayescrowd::Status;
using bayescrowd::Table;
using bayescrowd::ThreadPool;

constexpr std::size_t kResidentSessions = 4;  // serve-mix.
constexpr const char* kClient = "client";
constexpr const char* kAnalyst = "analyst";
constexpr const char* kMarket = "market";

struct TableSpec {
  std::string key;
  bool adult = false;  // Adult-like "Synthetic" instead of NBA-like.
  std::size_t n = 0;
  double missing = 0.0;
  std::uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TableSpec> tables;
  std::vector<std::string> tenants;
  double alpha = 0.0;
  std::size_t budget = 0;
  std::size_t latency = 0;
  std::size_t m = 0;
  /// Nominal completion rate on a 4-core host; sizes a run as
  /// rate × seconds queries, so the work a run does is fixed by its
  /// arguments and never by how fast the host happens to be.
  double nominal_queries_per_s = 1.0;
  std::size_t min_queries = 1;  // Enough for >= 100 rounds.
  bool serve = false;
};

struct Query {
  std::size_t tenant = 0;
  std::size_t table = 0;
};

std::vector<TableSpec> MakeTables(const std::string& prefix, bool adult,
                                  std::size_t count, std::size_t n,
                                  double missing, std::uint64_t first_seed) {
  std::vector<TableSpec> tables;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = first_seed + i;
    tables.push_back({prefix + "-s" + std::to_string(seed), adult, n,
                      missing, seed});
  }
  return tables;
}

Result<WorkloadSpec> SpecFor(const std::string& name, bool short_form) {
  WorkloadSpec w;
  w.name = name;
  const std::size_t n = short_form ? 1500 : 10000;
  if (name == "nba10k") {
    w.tables = MakeTables("nba", false, short_form ? 2 : 5, n, 0.10, 1001);
    w.tenants = {kClient};
    w.alpha = 0.003;
    w.budget = 50;
    w.latency = 5;
    w.m = 15;
    w.nominal_queries_per_s = 5.0;
    w.min_queries = short_form ? 2 : 20;
  } else if (name == "synth10k") {
    w.tables = MakeTables("adult", true, short_form ? 2 : 3, n, 0.20, 2001);
    w.tenants = {kClient};
    w.alpha = 0.01;
    w.budget = short_form ? 30 : 100;
    w.latency = 10;
    w.m = 50;
    w.nominal_queries_per_s = 0.4;
    w.min_queries = short_form ? 2 : 12;
  } else if (name == "serve-mix") {
    w.tables = MakeTables("nba", false, short_form ? 2 : 5, n, 0.10, 1001);
    w.tenants = {kAnalyst, kMarket};
    w.alpha = 0.003;
    w.budget = 50;
    w.latency = 5;
    w.m = 15;
    w.nominal_queries_per_s = 4.0;
    w.min_queries = short_form ? 8 : 24;
    w.serve = true;
  } else {
    return Status::InvalidArgument("qbench: unknown workload '" + name +
                                   "'");
  }
  return w;
}

std::string QueryKey(const WorkloadSpec& w, const Query& q) {
  return w.name + "/" + w.tenants[q.tenant] + "/" + w.tables[q.table].key;
}

/// One query per table; tenants take the tables in turn. The pool size
/// is odd on purpose: with equal counts per distinct query, an even
/// pool puts a median between two clusters, where it jumps with noise.
std::vector<Query> DistinctQueries(const WorkloadSpec& w) {
  std::vector<Query> queries;
  for (std::size_t table = 0; table < w.tables.size(); ++table) {
    queries.push_back({table % w.tenants.size(), table});
  }
  return queries;
}

/// serve-mix restarts its server every three passes over the tables:
/// a fresh SessionManager with an empty shared cache. Each memo blob a
/// session donates on Finish carries the whole warm-start chain before
/// it (the cache grows by about 330 KB per query on these tables), so
/// on one long-lived server the per-query cost and the heap rise with
/// run length. With a restart per epoch, every epoch of a run does the
/// same work.
std::size_t EpochQueries(const WorkloadSpec& w) {
  return 3 * w.tables.size();
}

/// The unit a run's length is rounded to: whole passes over the tables,
/// and on serve-mix whole epochs.
std::size_t LoopUnit(const WorkloadSpec& w) {
  return w.serve ? EpochQueries(w) : w.tables.size();
}

std::size_t LoopQueries(const WorkloadSpec& w, double seconds) {
  const std::size_t unit = LoopUnit(w);
  const auto wanted = static_cast<std::size_t>(
      std::llround(std::max(0.0, seconds) * w.nominal_queries_per_s));
  const std::size_t queries = std::max(wanted, w.min_queries);
  return (queries + unit - 1) / unit * unit;
}

/// The distinct queries cycled to `count`, starting at a seeded offset.
/// Every seed submits the same multiset with the same co-residency
/// pattern on serve-mix, so seeds differ in input order, not in kind.
std::vector<Query> QuerySequence(const WorkloadSpec& w, std::size_t count,
                                 std::uint64_t seed) {
  const std::vector<Query> distinct = DistinctQueries(w);
  const std::size_t offset = bayescrowd::Rng(seed).NextBelow(distinct.size());
  std::vector<Query> sequence;
  for (std::size_t i = 0; i < count; ++i) {
    sequence.push_back(distinct[(offset + i) % distinct.size()]);
  }
  return sequence;
}

std::string TablePath(const std::string& dir, const TableSpec& t,
                      bool truth) {
  return dir + "/" + t.key + "-n" + std::to_string(t.n) +
         (truth ? ".truth.csv" : ".csv");
}

/// Writes each table's complete and incomplete CSV (untimed).
Status GenerateTables(const WorkloadSpec& w, const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return Status::IOError("qbench: cannot create " + dir);
  for (const TableSpec& t : w.tables) {
    const Table complete = t.adult ? bayescrowd::MakeAdultLike(t.n, t.seed)
                                   : bayescrowd::MakeNbaLike(t.n, t.seed);
    bayescrowd::Rng rng(t.seed * 7919 + 3);
    const Table incomplete =
        bayescrowd::InjectMissingUniform(complete, t.missing, rng);
    BAYESCROWD_RETURN_NOT_OK(
        bayescrowd::SaveTableCsv(complete, TablePath(dir, t, true)));
    BAYESCROWD_RETURN_NOT_OK(
        bayescrowd::SaveTableCsv(incomplete, TablePath(dir, t, false)));
  }
  return Status::OK();
}

struct PreparedTable {
  Table incomplete;
  Table truth;
  bayescrowd::BayesianNetwork network;
  std::vector<std::size_t> skyline;  // Of the complete data, sorted.
};

struct SetupTimes {
  double total = 0.0;
  double load = 0.0;
  double structure = 0.0;
  double fit = 0.0;
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One set-up: load every table, learn its structure, fit its network.
Result<std::vector<PreparedTable>> Setup(const WorkloadSpec& w,
                                         const std::string& dir,
                                         SpanRecorder* recorder,
                                         SetupTimes* times) {
  std::vector<PreparedTable> tables;
  for (const TableSpec& spec : w.tables) {
    PreparedTable t;
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(recorder, "data.load", -1, 0);
      BAYESCROWD_ASSIGN_OR_RETURN(
          t.incomplete, bayescrowd::LoadTableCsv(TablePath(dir, spec, false)));
      BAYESCROWD_ASSIGN_OR_RETURN(
          t.truth, bayescrowd::LoadTableCsv(TablePath(dir, spec, true)));
    }
    times->load += Since(start);
    start = Clock::now();
    bayescrowd::Dag dag;
    {
      ScopedSpan span(recorder, "bayesnet.structure", -1, 0);
      BAYESCROWD_ASSIGN_OR_RETURN(
          dag, bayescrowd::HillClimbStructure(t.incomplete));
    }
    times->structure += Since(start);
    start = Clock::now();
    {
      ScopedSpan span(recorder, "bayesnet.fit", -1, 0);
      BAYESCROWD_ASSIGN_OR_RETURN(
          t.network,
          bayescrowd::BayesianNetwork::Create(t.incomplete.schema(), dag));
      BAYESCROWD_RETURN_NOT_OK(t.network.FitParameters(t.incomplete));
    }
    times->fit += Since(start);
    tables.push_back(std::move(t));
  }
  times->total = times->load + times->structure + times->fit;
  return tables;
}

BayesCrowdOptions QueryOptions(const WorkloadSpec& w, ThreadPool* pool) {
  BayesCrowdOptions options;
  options.ctable.alpha = w.alpha;
  options.budget = w.budget;
  options.latency = w.latency;
  options.strategy.m = w.m;
  options.pool = pool;
  return options;
}

/// What the benchmark keeps of one finished query.
struct QueryRecord {
  std::int64_t id = 0;
  Query query;
  Status status = Status::OK();
  double query_s = 0.0;
  double end = 0.0;      // Completion, seconds since the loop began.
  double cpu_end = 0.0;  // Process CPU seconds at completion.
  std::optional<double> first_round_s;
  std::vector<double> round_s;

  std::vector<std::size_t> ids;
  double f1 = 0.0;
  double cost = 0.0;
  std::size_t rounds = 0;
  std::size_t tasks = 0;
  std::size_t unanswered = 0;
  std::size_t votes = 0;
  std::size_t undecided = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t adpll_calls = 0;
  std::uint64_t star_evals = 0;
  std::uint64_t builds = 0;
  std::uint64_t reuses = 0;
  std::uint64_t fallbacks = 0;
  double select_s = 0.0;
  double update_s = 0.0;
  double modeling_s = 0.0;
  double crowdsourcing_s = 0.0;
  double answer_s = 0.0;
  double platform_s = 0.0;
};

void Summarize(const BayesCrowdResult& result, const PreparedTable& table,
               QueryRecord* record) {
  record->ids = result.result_objects;
  std::sort(record->ids.begin(), record->ids.end());
  record->f1 = bayescrowd::EvaluateResultSet(record->ids, table.skyline).f1;
  record->cost = result.cost_spent;
  record->rounds = result.rounds;
  record->tasks = result.tasks_posted;
  record->unanswered = result.tasks_unanswered;
  const auto market_votes = result.metrics.counters.find("crowd.market.votes");
  // The simulated crowd majority-votes three workers per answered task.
  record->votes = market_votes != result.metrics.counters.end()
                      ? market_votes->second
                      : 3 * (result.tasks_posted - result.tasks_unanswered);
  record->undecided = result.initial_undecided;
  record->cache_hits = result.cache_hits;
  record->cache_misses = result.cache_misses;
  record->adpll_calls = result.adpll.calls;
  record->star_evals = result.adpll.star_evals;
  record->builds = result.compile.builds;
  record->reuses = result.compile.reuses;
  record->fallbacks = result.compile.fallbacks;
  record->select_s = result.select_seconds;
  record->update_s = result.update_seconds;
  record->modeling_s = result.modeling_seconds;
  record->crowdsourcing_s = result.crowdsourcing_seconds;
  record->answer_s = result.answer_seconds;
  record->platform_s = result.platform_wall_seconds;
}

std::int64_t RssKb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * (sysconf(_SC_PAGESIZE) / 1024);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

double PoolBusySeconds(const ThreadPool& pool) {
  double busy = 0.0;
  for (const ThreadPool::LaneStats& lane : pool.lane_stats()) {
    busy += lane.busy_seconds;
  }
  return busy;
}

std::unique_ptr<bayescrowd::serve::SessionManager> MakeManager(
    ThreadPool& pool, bayescrowd::obs::MetricsRegistry& metrics) {
  bayescrowd::serve::SessionManager::Options options;
  options.pool = &pool;
  options.max_resident_sessions = kResidentSessions;
  options.max_sessions_per_tenant = kResidentSessions;
  options.metrics = &metrics;
  return std::make_unique<bayescrowd::serve::SessionManager>(options);
}

/// One measured (or warm-up) loop's raw outcome.
struct LoopResult {
  std::vector<QueryRecord> records;
  double cpu_start = 0.0;
  double wall_s = 0.0;
  double busy_s = 0.0;
  std::int64_t rss_growth_kb = 0;
};

/// Shared-cache traffic of every server a Bench has retired.
struct CacheTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t servers = 0;
  double retired_bytes = 0.0;  // Held by each server as it retired.
};

/// The state a workload's loops share.
class Bench {
 public:
  Bench(WorkloadSpec w, std::vector<PreparedTable> tables, ThreadPool& pool,
        bayescrowd::obs::MetricsRegistry& serve_metrics)
      : w_(std::move(w)),
        tables_(std::move(tables)),
        pool_(pool),
        serve_metrics_(serve_metrics) {}

  const WorkloadSpec& spec() const { return w_; }
  const std::vector<PreparedTable>& tables() const { return tables_; }
  const CacheTotals& cache_totals() const { return cache_totals_; }

  /// Runs `queries` as a closed loop; `recorder` null = untraced. A
  /// query's failure is recorded in its QueryRecord. serve-mix runs
  /// them in epochs of EpochQueries(), each on a freshly started
  /// server (see there).
  LoopResult Loop(const std::vector<Query>& queries, SpanRecorder* recorder) {
    LoopResult loop;
    loop.cpu_start = CpuSeconds();
    const double busy_before = PoolBusySeconds(pool_);
    const std::int64_t rss_before = RssKb();
    loop_start_ = Clock::now();
    if (w_.serve) {
      const std::size_t epoch = EpochQueries(w_);
      for (std::size_t first = 0; first < queries.size(); first += epoch) {
        const auto begin = queries.begin() + static_cast<std::ptrdiff_t>(first);
        const std::vector<Query> chunk(
            begin, begin + static_cast<std::ptrdiff_t>(
                               std::min(epoch, queries.size() - first)));
        manager_ = MakeManager(pool_, serve_metrics_);
        ServeLoop(chunk, recorder, &loop.records);
        const auto stats = manager_->cache_stats();
        cache_totals_.hits += stats.hits;
        cache_totals_.misses += stats.misses;
        cache_totals_.servers += 1;
        cache_totals_.retired_bytes += static_cast<double>(stats.bytes);
        manager_.reset();
      }
    } else {
      for (const Query& q : queries) {
        loop.records.push_back(CoreQuery(q, next_id_++, recorder));
      }
    }
    loop.wall_s = Since(loop_start_);
    loop.busy_s = PoolBusySeconds(pool_) - busy_before;
    loop.rss_growth_kb = RssKb() - rss_before;
    return loop;
  }

 private:
  double LoopSeconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - loop_start_).count();
  }

  QueryRecord CoreQuery(const Query& q, std::int64_t id,
                        SpanRecorder* recorder) {
    const PreparedTable& table = tables_[q.table];
    QueryRecord record;
    record.id = id;
    record.query = q;
    std::optional<ScopedSpan> query_span;
    query_span.emplace(recorder, "query", id, 0);
    const Clock::time_point start = Clock::now();

    std::shared_ptr<bayescrowd::PosteriorProvider> posteriors =
        std::make_shared<bayescrowd::BnPosteriorProvider>(table.network,
                                                          table.incomplete);
    bayescrowd::SimulatedPlatformOptions crowd;
    crowd.seed = w_.tables[q.table].seed;
    std::unique_ptr<bayescrowd::CrowdPlatform> platform =
        std::make_unique<bayescrowd::SimulatedCrowdPlatform>(table.truth,
                                                             crowd);
    if (recorder != nullptr) {
      posteriors = std::make_shared<TracedPosteriors>(posteriors, *recorder);
      platform = std::make_unique<TracedPlatform>(std::move(platform),
                                                  *recorder);
    }
    bayescrowd::QueryRunner runner(QueryOptions(w_, &pool_));
    auto step = [&](const char* name, auto&& call) {
      ScopedSpan span(recorder, name, id, query_span->id());
      return call();
    };
    record.status = step("core.init", [&] {
      return runner.Init(table.incomplete, *posteriors, *platform);
    });
    // Budget and latency bound the loop; the cap only guards a bug.
    const std::size_t max_steps = 4 * w_.latency + 8;
    while (record.status.ok() && !runner.Done()) {
      if (record.round_s.size() == max_steps) {
        record.status = Status::Internal("qbench: query never finished");
        break;
      }
      const Clock::time_point round_start = Clock::now();
      record.status = step("core.step", [&] { return runner.Step(); });
      record.round_s.push_back(Since(round_start));
      if (!record.first_round_s) record.first_round_s = Since(start);
    }
    if (record.status.ok()) {
      record.status = step("core.finish", [&] { return runner.Finish(); });
    }
    record.query_s = Since(start);
    query_span.reset();
    record.end = LoopSeconds(Clock::now());
    record.cpu_end = CpuSeconds();
    if (record.status.ok()) Summarize(runner.result(), table, &record);
    return record;
  }

  bayescrowd::serve::SessionSpec MakeSpec(const Query& q, std::int64_t id,
                                          SpanRecorder* recorder) const {
    const PreparedTable& table = tables_[q.table];
    const TableSpec& t = w_.tables[q.table];
    bayescrowd::serve::SessionSpec spec;
    spec.id = "q";
    spec.id += std::to_string(id);
    spec.tenant = w_.tenants[q.tenant];
    spec.incomplete = table.incomplete;
    spec.ground_truth = table.truth;
    spec.options = QueryOptions(w_, nullptr);
    spec.cache_key = t.key;
    spec.posteriors = std::make_shared<bayescrowd::BnPosteriorProvider>(
        table.network, table.incomplete);
    if (recorder != nullptr) {
      spec.posteriors =
          std::make_shared<TracedPosteriors>(spec.posteriors, *recorder);
    }
    if (spec.tenant == kMarket) {
      spec.use_marketplace = true;
      spec.marketplace.spam_rate = 0.20;
      spec.marketplace.max_votes = 5;
      spec.marketplace.seed = t.seed;
      spec.options.adaptive.enabled = true;
      spec.options.adaptive.base_votes = 3;
      spec.options.adaptive.max_votes = 5;
    } else {
      spec.platform.seed = t.seed;
      spec.warm_start = true;
    }
    return spec;
  }

  /// Closed loop over the resident set: Advance(id, 1) round-robin, and
  /// as each query finishes, Finish + Evict it and admit the next one.
  void ServeLoop(const std::vector<Query>& queries, SpanRecorder* recorder,
                 std::vector<QueryRecord>* records) {
    struct Active {
      QueryRecord record;
      std::string session;
      std::uint64_t span = 0;
      Clock::time_point start;
      std::size_t advances = 0;
    };
    bayescrowd::serve::SessionManager& manager = *manager_;
    std::vector<std::optional<Active>> slots(kResidentSessions);
    std::size_t next = 0;

    auto admit = [&](std::optional<Active>& slot) {
      const Query& q = queries[next++];
      const std::int64_t id = next_id_++;
      bayescrowd::serve::SessionSpec spec = MakeSpec(q, id, recorder);
      Active active;
      active.record.id = id;
      active.record.query = q;
      active.session = spec.id;
      active.span = recorder != nullptr ? recorder->NewId() : 0;
      active.start = Clock::now();
      {
        ScopedSpan span(recorder, "serve.create", id, active.span);
        active.record.status = manager.Create(std::move(spec));
      }
      slot = std::move(active);
    };

    auto retire = [&](std::optional<Active>& slot,
                      Result<BayesCrowdResult> finished) {
      Active& active = *slot;
      QueryRecord& record = active.record;
      const Clock::time_point end = Clock::now();
      record.query_s = std::chrono::duration<double>(end - active.start)
                           .count();
      record.end = LoopSeconds(end);
      record.cpu_end = CpuSeconds();
      if (recorder != nullptr) {
        recorder->Record("query", active.span, 0, record.id, active.start,
                         end);
      }
      if (record.status.ok()) record.status = finished.status();
      if (record.status.ok()) {
        Summarize(finished.value(), tables_[record.query.table], &record);
      }
      {
        ScopedSpan span(recorder, "serve.evict", record.id, active.span);
        const Status evicted = manager.Evict(active.session);
        if (record.status.ok()) record.status = evicted;
      }
      records->push_back(std::move(record));
      slot.reset();
    };

    for (auto& slot : slots) {
      if (next < queries.size()) admit(slot);
    }
    const std::size_t max_advances = 4 * w_.latency + 8;
    bool any = true;
    while (any) {
      any = false;
      for (auto& slot : slots) {
        if (!slot) continue;
        any = true;
        Active& active = *slot;
        bool done = !active.record.status.ok();
        if (!done) {
          const Clock::time_point round_start = Clock::now();
          Result<bayescrowd::serve::AdvanceOutcome> outcome =
              Status::Internal("unset");
          {
            ScopedSpan span(recorder, "serve.advance", active.record.id,
                            active.span);
            outcome = manager.Advance(active.session, 1);
          }
          const double round = Since(round_start);
          ++active.advances;
          if (!outcome.ok()) {
            active.record.status = outcome.status();
            done = true;
          } else {
            if (outcome.value().rounds_run > 0) {
              active.record.round_s.push_back(round);
              if (!active.record.first_round_s) {
                active.record.first_round_s = Since(active.start);
              }
            }
            done = outcome.value().done;
            if (!done && active.advances == max_advances) {
              active.record.status =
                  Status::Internal("qbench: session never finished");
              done = true;
            }
          }
        }
        if (!done) continue;
        Result<BayesCrowdResult> finished = Status::Internal("not finished");
        if (active.record.status.ok()) {
          ScopedSpan span(recorder, "serve.finish", active.record.id,
                          active.span);
          finished = manager.Finish(active.session);
        }
        retire(slot, std::move(finished));
        if (next < queries.size()) admit(slot);
      }
    }
  }

  WorkloadSpec w_;
  std::vector<PreparedTable> tables_;
  ThreadPool& pool_;
  bayescrowd::obs::MetricsRegistry& serve_metrics_;
  std::unique_ptr<bayescrowd::serve::SessionManager> manager_;
  CacheTotals cache_totals_;
  Clock::time_point loop_start_;
  std::int64_t next_id_ = 0;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sums in sorted order, so a mean does not depend on the order the
/// run seed gave the queries.
double OrderFreeSum(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// Checks every record against the reference; fills attempted/failed,
/// answers and notes.
void Check(const WorkloadSpec& w, const LoopResult& loop,
           const ReferenceSet* reference, RunReport* report) {
  for (const QueryRecord& r : loop.records) {
    ++report->attempted;
    const std::string key = QueryKey(w, r.query);
    std::string problem;
    if (!r.status.ok()) {
      problem = r.status.ToString();
    } else if (reference != nullptr) {
      const auto it = reference->find(key);
      problem = it == reference->end()
                    ? "no committed reference"
                    : DescribeMismatch(it->second, r.ids, r.f1);
    }
    if (!problem.empty()) {
      ++report->failed;
      report->notes.push_back("query " + std::to_string(r.id) + " " + key +
                              ": " + problem);
    }
    report->answers.push_back({key, r.ids, r.f1});
  }
}

/// Throughput and CPU per query over blocks of `block` consecutive
/// completions, each taken as the median across blocks: a burst of host
/// contention then moves one block, not the figure.
struct BlockMedians {
  double queries_per_s = 0.0;
  double cpu_s_per_query = 0.0;
};

BlockMedians BlockRates(const LoopResult& loop, std::size_t block) {
  std::vector<const QueryRecord*> done;
  for (const QueryRecord& r : loop.records) done.push_back(&r);
  std::sort(done.begin(), done.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              return a->end < b->end;
            });
  std::vector<double> rates, cpus;
  double wall = 0.0;
  double cpu = loop.cpu_start;
  for (std::size_t i = block; i <= done.size(); i += block) {
    const QueryRecord& last = *done[i - 1];
    rates.push_back(Ratio(static_cast<double>(block), last.end - wall));
    cpus.push_back((last.cpu_end - cpu) / static_cast<double>(block));
    wall = last.end;
    cpu = last.cpu_end;
  }
  return {Median(rates), Median(cpus)};
}

/// Fills `report`'s end-to-end metrics; Check() must have run.
void EndToEndMetrics(const LoopResult& loop, double setup_s,
                     std::size_t block, RunReport* report) {
  std::vector<double> query_s, first_round_s, round_s, f1, cost;
  for (const QueryRecord& r : loop.records) {
    query_s.push_back(r.query_s);
    if (r.first_round_s) first_round_s.push_back(*r.first_round_s);
    round_s.insert(round_s.end(), r.round_s.begin(), r.round_s.end());
    f1.push_back(r.f1);
    cost.push_back(r.cost);
  }
  const auto n = static_cast<double>(loop.records.size());
  auto& m = report->metrics;
  m["setup_s"] = {setup_s, "s"};
  const BlockMedians blocks = BlockRates(loop, block);
  m["queries_per_s"] = {blocks.queries_per_s, "1/s"};
  m["query_s.p50"] = {Median(query_s), "s"};
  m["first_round_s.p50"] = {Median(first_round_s), "s"};
  m["round_s.p50"] = {Median(round_s), "s"};
  // p95, not p90: on the NBA-like tables two (table, round) kinds,
  // 8% of all rounds, are twice as slow as the rest, so p90 sits on the
  // steep edge between the two groups and jumps with host noise.
  if (round_s.size() >= 100) {
    m["round_s.p95"] = {Percentile(round_s, 0.95), "s"};
  }
  m["cpu_s_per_query"] = {blocks.cpu_s_per_query, "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["f1.mean"] = {Ratio(OrderFreeSum(f1), n), "ratio"};
  m["crowd_cost.mean"] = {Ratio(OrderFreeSum(cost), n), "budget_units"};
  m["success_rate"] = {
      Ratio(static_cast<double>(report->attempted - report->failed),
            static_cast<double>(report->attempted)),
      "ratio"};
}

struct SpanStats {
  double total = 0.0;
  std::size_t count = 0;
  double Mean() const { return Ratio(total, static_cast<double>(count)); }
};

std::map<std::string, SpanStats> StatsByName(const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> stats;
  for (const Span& span : spans) {
    SpanStats& s = stats[span.name];
    s.total += span.end - span.start;
    ++s.count;
  }
  return stats;
}

bool StartsWith(const char* text, const char* prefix) {
  return std::string_view(text).starts_with(prefix);
}

/// Lowest share of a query's wall time covered by layer-call spans:
/// its own core.* children, or on serve-mix every serve.* span inside
/// its lifetime (which includes waiting behind co-resident sessions).
double MinCoverage(const std::vector<Span>& spans, bool serve) {
  std::map<std::uint64_t, std::vector<Span>> children;
  std::vector<Span> serve_spans;
  for (const Span& span : spans) {
    if (serve && StartsWith(span.name, "serve.")) serve_spans.push_back(span);
    if (!serve && StartsWith(span.name, "core.")) {
      children[span.parent].push_back(span);
    }
  }
  double lowest = 1.0;
  for (const Span& span : spans) {
    if (std::string_view(span.name) != "query") continue;
    const std::vector<Span>& covering =
        serve ? serve_spans : children[span.id];
    lowest = std::min(lowest, Coverage(covering, span.start, span.end));
  }
  return lowest;
}

void PerLayerMetrics(const Bench& bench, const LoopResult& before,
                     const LoopResult& traced, const LoopResult& after,
                     SpanRecorder& recorder,
                     const std::vector<SetupTimes>& setups,
                     const bayescrowd::obs::MetricsRegistry& serve_metrics,
                     const CacheTotals& cache, RunReport* out) {
  const WorkloadSpec& w = bench.spec();
  // BuildCTable once per table, outside the query loop.
  for (const PreparedTable& table : bench.tables()) {
    ScopedSpan span(&recorder, "ctable.build", -1, 0);
    bayescrowd::CTableOptions options;
    options.alpha = w.alpha;
    (void)bayescrowd::BuildCTable(table.incomplete, options);
  }
  const std::vector<Span> spans = recorder.Collect();
  std::map<std::string, SpanStats> stats = StatsByName(spans);
  const std::map<std::string, double> self = SelfTimes(spans);
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };

  double queries = 0.0;
  double rounds = 0.0;
  double undecided = 0.0;
  std::uint64_t hits = 0, misses = 0, adpll = 0, stars = 0;
  std::uint64_t builds = 0, reuses = 0, fallbacks = 0;
  std::uint64_t tasks = 0, votes = 0, unanswered = 0;
  double select = 0.0, update = 0.0, modeling = 0.0, crowdsourcing = 0.0;
  double answer = 0.0, platform = 0.0;
  for (const QueryRecord& r : traced.records) {
    queries += 1.0;
    rounds += static_cast<double>(r.rounds);
    undecided += static_cast<double>(r.undecided);
    hits += r.cache_hits;
    misses += r.cache_misses;
    adpll += r.adpll_calls;
    stars += r.star_evals;
    builds += r.builds;
    reuses += r.reuses;
    fallbacks += r.fallbacks;
    tasks += r.tasks;
    votes += r.votes;
    unanswered += r.unanswered;
    select += r.select_s;
    update += r.update_s;
    modeling += r.modeling_s;
    crowdsourcing += r.crowdsourcing_s;
    answer += r.answer_s;
    platform += r.platform_s;
  }
  const LayerCounters& counters = recorder.counters();
  const double posterior_s =
      1e-9 * static_cast<double>(counters.posterior_ns.load());
  const auto count = [](std::uint64_t v) {
    return Metric{static_cast<double>(v), "count"};
  };

  std::vector<double> load, structure, fit;
  for (const SetupTimes& s : setups) {
    load.push_back(s.load);
    structure.push_back(s.structure);
    fit.push_back(s.fit);
  }
  auto& m = out->metrics;
  m["data.load_s"] = {Median(load), "s"};
  m["bayesnet.structure_s"] = {Median(structure), "s"};
  m["bayesnet.fit_s"] = {Median(fit), "s"};
  m["bayesnet.posterior_s"] = {Ratio(posterior_s, queries), "s"};
  m["bayesnet.posterior_calls"] = count(counters.posterior_calls.load());
  m["ctable.build_s"] = {stats["ctable.build"].Mean(), "s"};
  m["ctable.undecided"] = {Ratio(undecided, queries), "count"};
  if (w.serve) {
    // SessionManager makes the QueryRunner calls, so the core times
    // come from the runner's own timers in BayesCrowdResult.
    m["core.init_s"] = {Ratio(modeling, queries), "s"};
    m["core.modeling_rest_s"] = {Ratio(modeling - posterior_s, queries),
                                 "s"};
    m["core.step_s"] = {Ratio(crowdsourcing, rounds), "s"};
    m["core.finish_s"] = {Ratio(answer, queries), "s"};
    m["crowd.post_s"] = {Ratio(platform, rounds), "s"};
  } else {
    m["core.init_s"] = {stats["core.init"].Mean(), "s"};
    m["core.modeling_rest_s"] = {
        Ratio(self_of("core.init"), static_cast<double>(stats["core.init"].count)),
        "s"};
    m["core.step_s"] = {stats["core.step"].Mean(), "s"};
    m["core.finish_s"] = {stats["core.finish"].Mean(), "s"};
    m["crowd.post_s"] = {
        Ratio(1e-9 * static_cast<double>(counters.post_ns.load()),
              static_cast<double>(counters.posts.load())),
        "s"};
  }
  m["core.select_s"] = {Ratio(select, rounds), "s"};
  m["core.update_s"] = {Ratio(update, rounds), "s"};
  m["probability.cache_hits"] = count(hits);
  m["probability.cache_misses"] = count(misses);
  m["probability.hit_ratio"] = {
      Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
      "ratio"};
  m["probability.adpll_calls"] = count(adpll);
  m["probability.star_evals"] = count(stars);
  m["compile.builds"] = count(builds);
  m["compile.reuses"] = count(reuses);
  m["compile.reuse_ratio"] = {
      Ratio(static_cast<double>(reuses), static_cast<double>(builds + reuses)),
      "ratio"};
  m["compile.fallbacks"] = count(fallbacks);
  m["pool.busy_s"] = {traced.busy_s, "s"};
  m["pool.utilisation"] = {
      Ratio(traced.busy_s, static_cast<double>(kPoolLanes) * traced.wall_s),
      "ratio"};
  m["crowd.tasks"] = count(tasks);
  m["crowd.votes"] = count(votes);
  m["crowd.unanswered"] = count(unanswered);
  // Zero on the core workloads: no serve layer runs there.
  m["serve.create_s"] = {stats["serve.create"].Mean(), "s"};
  m["serve.advance_s"] = {stats["serve.advance"].Mean(), "s"};
  m["serve.finish_s"] = {stats["serve.finish"].Mean(), "s"};
  m["serve.evict_s"] = {stats["serve.evict"].Mean(), "s"};
  m["serve.cache_hits"] = count(cache.hits);
  m["serve.cache_misses"] = count(cache.misses);
  m["serve.cache_kb"] = {
      Ratio(cache.retired_bytes, 1024.0 * static_cast<double>(cache.servers)),
      "KB"};
  // Measured over the last, untraced loop, so retained spans do not
  // count.
  m["serve.rss_growth_kb_per_query"] = {
      Ratio(static_cast<double>(after.rss_growth_kb),
            static_cast<double>(after.records.size())),
      "KB"};
  m["obs.label_overflow"] = count(serve_metrics.label_overflow_keys());
  const auto qps = [](const LoopResult& loop) {
    return Ratio(static_cast<double>(loop.records.size()), loop.wall_s);
  };
  m["trace.overhead"] = {
      Ratio(0.5 * (qps(before) + qps(after)), qps(traced)) - 1.0, "ratio"};
  m["trace.coverage"] = {MinCoverage(spans, w.serve), "ratio"};
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"nba10k", "synth10k", "serve-mix"};
}

Result<std::size_t> WorkloadQueries(const std::string& workload,
                                    double seconds) {
  BAYESCROWD_ASSIGN_OR_RETURN(const WorkloadSpec w, SpecFor(workload, false));
  return LoopQueries(w, seconds);
}

Result<RunReport> RunWorkload(const RunConfig& config) {
  BAYESCROWD_ASSIGN_OR_RETURN(WorkloadSpec w,
                              SpecFor(config.workload, config.short_form));
  BAYESCROWD_RETURN_NOT_OK(GenerateTables(w, config.data_dir));

  ThreadPool pool(kPoolLanes);
  bayescrowd::obs::MetricsRegistry serve_metrics;
  SpanRecorder recorder;
  SpanRecorder* setup_recorder = config.trace ? &recorder : nullptr;

  // Set up several times and keep the last; setup_s is the median.
  const std::size_t setup_reps = config.short_form ? 1 : 15;
  std::vector<SetupTimes> setups;
  std::vector<PreparedTable> tables;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    SetupTimes times;
    BAYESCROWD_ASSIGN_OR_RETURN(
        tables, Setup(w, config.data_dir, setup_recorder, &times));
    if (w.serve) {
      // Each epoch starts its own server (Bench::Loop); this times one.
      const Clock::time_point start = Clock::now();
      const auto manager = MakeManager(pool, serve_metrics);
      times.total += Since(start);
    }
    setups.push_back(times);
  }
  for (PreparedTable& table : tables) {
    BAYESCROWD_ASSIGN_OR_RETURN(table.skyline,
                                bayescrowd::SkylineBnl(table.truth));
    std::sort(table.skyline.begin(), table.skyline.end());
  }
  Bench bench(w, std::move(tables), pool, serve_metrics);

  // One warm-up query, outside every measurement.
  const LoopResult warmup = bench.Loop({Query{0, 0}}, nullptr);
  if (!warmup.records.front().status.ok()) {
    return warmup.records.front().status;
  }

  RunReport report;
  const std::size_t total = LoopQueries(w, config.seconds);
  if (!config.trace) {
    const std::vector<Query> queries = QuerySequence(w, total, config.seed);
    const LoopResult loop = bench.Loop(queries, nullptr);
    Check(w, loop, config.reference, &report);
    std::vector<double> totals;
    for (const SetupTimes& s : setups) totals.push_back(s.total);
    // About ten blocks, each whole cycles of the query pool; on
    // serve-mix one epoch, so that every block does the same work.
    const std::size_t distinct = w.tables.size();
    const std::size_t block =
        w.serve ? EpochQueries(w)
                : distinct * std::max<std::size_t>(
                                 1, queries.size() / distinct / 10);
    EndToEndMetrics(loop, Median(totals), block, &report);
    return report;
  }

  // Traced run: the same query list untraced, traced, then untraced
  // again, each a third of an untraced run. Comparing the traced loop
  // with the mean of the two around it cancels warm-up and drift.
  const std::size_t unit = LoopUnit(w);
  const std::size_t third = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(total) / 3.0 / static_cast<double>(unit))));
  const std::vector<Query> queries =
      QuerySequence(w, third * unit, config.seed);
  const LoopResult before = bench.Loop(queries, nullptr);
  const CacheTotals cache_before = bench.cache_totals();
  const LoopResult traced = bench.Loop(queries, &recorder);
  CacheTotals cache = bench.cache_totals();
  cache.hits -= cache_before.hits;
  cache.misses -= cache_before.misses;
  cache.servers -= cache_before.servers;
  cache.retired_bytes -= cache_before.retired_bytes;
  const LoopResult after = bench.Loop(queries, nullptr);
  for (const LoopResult* loop : {&before, &traced, &after}) {
    Check(w, *loop, config.reference, &report);
  }
  PerLayerMetrics(bench, before, traced, after, recorder, setups,
                  serve_metrics, cache, &report);
  return report;
}

Result<ReferenceSet> ComputeReference(const std::string& workload,
                                      const std::string& data_dir) {
  BAYESCROWD_ASSIGN_OR_RETURN(WorkloadSpec w, SpecFor(workload, false));
  BAYESCROWD_RETURN_NOT_OK(GenerateTables(w, data_dir));
  SetupTimes times;
  BAYESCROWD_ASSIGN_OR_RETURN(std::vector<PreparedTable> tables,
                              Setup(w, data_dir, nullptr, &times));
  for (PreparedTable& table : tables) {
    BAYESCROWD_ASSIGN_OR_RETURN(table.skyline,
                                bayescrowd::SkylineBnl(table.truth));
    std::sort(table.skyline.begin(), table.skyline.end());
  }
  ReferenceSet reference;
  for (const Query& q : DistinctQueries(w)) {
    // A fresh manager per query: every answer is computed cold.
    ThreadPool pool(kPoolLanes);
    bayescrowd::obs::MetricsRegistry serve_metrics;
    std::vector<PreparedTable> one;
    one.push_back(tables[q.table]);
    WorkloadSpec single = w;
    single.tables = {w.tables[q.table]};
    Bench bench(single, std::move(one), pool, serve_metrics);
    const LoopResult loop = bench.Loop({Query{q.tenant, 0}}, nullptr);
    const QueryRecord& r = loop.records.front();
    BAYESCROWD_RETURN_NOT_OK(r.status);
    reference[QueryKey(w, q)] = {r.ids, r.f1};
  }
  return reference;
}

}  // namespace qbench
