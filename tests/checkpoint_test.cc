// Checkpoint format and store tests: envelope integrity, payload
// round-trips, generation management, corruption fallback, the
// committed v5 golden fixture, and the version gate (v5 is the only
// version read; older ones are refused and recovery falls back).

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/binio.h"
#include "common/fileio.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/framework.h"
#include "core/session.h"
#include "crowd/platform.h"
#include "crowd/record_replay.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/metrics.h"
#include "probability/evaluator.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The one cached condition of the golden memo blob, and the
/// distribution of its variable.
Condition GoldenMemoCondition() {
  return Condition::Cnf(
      {{Expression::VarConst(V(2, 1), CmpOp::kGreater, 1)}});
}
std::vector<double> GoldenMemoDist() { return {0.5, 0.25, 0.25}; }

/// A format-3 memo blob holding GoldenMemoCondition's exact entry.
std::string GoldenMemoBlob() {
  ProbabilityEvaluator evaluator;
  EXPECT_TRUE(evaluator.SetDistribution(V(2, 1), GoldenMemoDist()).ok());
  EXPECT_TRUE(evaluator.Probability(GoldenMemoCondition()).ok());
  std::string blob;
  evaluator.SerializeMemoState(&blob);
  return blob;
}

/// A deterministic, richly-populated state: every field class exercised
/// (decided + CNF conditions, round logs with recovery data, metrics of
/// all three kinds, binary blobs, a real memo blob, session-layer
/// stamps). Also the generator of the committed golden fixture — see
/// GoldenV5FixtureTest.
SessionState MakeGoldenState() {
  SessionState state;
  state.budget_left = 12.5;
  state.consecutive_barren = 1;
  state.rounds = 3;
  state.tasks_posted = 9;
  state.cost_spent = 11.5;
  state.cost_refunded = 2.0;
  state.tasks_unanswered = 2;
  state.retries = 4;
  state.transient_failures = 3;
  state.rounds_abandoned = 1;
  state.order_conflicts = 1;
  state.backoff_seconds = 1.75;
  state.simulated_seconds = 21.25;
  state.initial_true = 2;
  state.initial_false = 5;
  state.initial_undecided = 3;

  RoundLog log;
  log.round = 3;
  log.tasks = 4;
  log.seconds = 0.0;  // Wall clock is not part of determinism.
  log.attempts = 2;
  log.answered = 3;
  log.unanswered = 1;
  log.cost_refunded = 1.0;
  log.backoff_seconds = 0.5;
  log.simulated_seconds = 7.5;
  log.abandoned = false;
  log.cache_hits = 17;
  log.cache_misses = 5;
  state.round_logs = {log};

  state.conditions.push_back(Condition::True());
  state.conditions.push_back(Condition::False());
  state.conditions.push_back(Condition::Cnf(
      {{Expression::VarConst(V(2, 1), CmpOp::kGreater, 3)},
       {Expression::VarVar(V(2, 0), CmpOp::kLess, V(0, 0)),
        Expression::VarConst(V(2, 1), CmpOp::kLess, 7)}}));

  state.knowledge_blob = std::string("kb\x00\x01\x7f", 5);
  state.evaluator_blob = GoldenMemoBlob();

  obs::MetricsRegistry registry;
  registry.GetCounter("framework.tasks_posted")->Increment(9);
  registry.GetGauge("framework.budget_left")->Set(12.5);
  registry.GetHistogram("round.entropy", {0.5, 1.0, 2.0})->Observe(0.75);
  state.metrics = registry.Snapshot();

  state.platform_state = std::string("\x01\x02\x03", 3);
  state.platform_tasks = 9;
  state.platform_rounds = 3;
  state.answer_log_offset = 7;
  state.network_blob = "bayesnet v1\n";
  state.config_fingerprint = 0x1234abcd5678ef90ULL;

  // One open and one counting breaker, ascending object id.
  SolverBreakerRecord open_breaker;
  open_breaker.object = 2;
  open_breaker.fingerprint = {0xfeedbeefULL, 0x12345678ULL};
  open_breaker.consecutive = 3;
  open_breaker.open = true;
  open_breaker.last = ProbInterval{0.25, 0.75, ProbQuality::kPartialBound};
  SolverBreakerRecord counting_breaker;
  counting_breaker.object = 5;
  counting_breaker.fingerprint = {0x1ULL, 0x2ULL};
  counting_breaker.consecutive = 1;
  counting_breaker.open = false;
  counting_breaker.last = ProbInterval::Exact(0.5);
  state.solver_breakers = {open_breaker, counting_breaker};
  return state;
}

std::string SerializeState(const SessionState& state) {
  std::string payload;
  SerializeSessionState(state, &payload);
  return payload;
}

TEST(CheckpointEnvelopeTest, RoundTrips) {
  const std::string payload = "some payload bytes";
  const std::string wrapped = WrapCheckpoint(payload);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  EXPECT_EQ(unwrapped.value(), payload);
}

TEST(CheckpointEnvelopeTest, DetectsPayloadCorruption) {
  std::string wrapped = WrapCheckpoint("the payload under test");
  // Flip one payload byte; the CRC must catch it.
  wrapped[20] = static_cast<char>(wrapped[20] ^ 0x40);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_FALSE(unwrapped.ok());
  EXPECT_TRUE(unwrapped.status().IsIOError())
      << unwrapped.status().ToString();
}

TEST(CheckpointEnvelopeTest, DetectsCrcCorruption) {
  std::string wrapped = WrapCheckpoint("another payload");
  wrapped.back() = static_cast<char>(wrapped.back() ^ 0x01);
  EXPECT_TRUE(UnwrapCheckpoint(wrapped).status().IsIOError());
}

TEST(CheckpointEnvelopeTest, DetectsTruncationAtEveryLength) {
  const std::string wrapped = WrapCheckpoint("payload that gets cut");
  for (std::size_t len = 0; len < wrapped.size(); ++len) {
    const auto unwrapped = UnwrapCheckpoint(wrapped.substr(0, len));
    ASSERT_FALSE(unwrapped.ok()) << "length " << len;
    EXPECT_TRUE(unwrapped.status().IsIOError()) << "length " << len;
  }
}

TEST(CheckpointEnvelopeTest, RejectsBadMagic) {
  std::string wrapped = WrapCheckpoint("payload");
  wrapped[0] = 'X';
  EXPECT_TRUE(UnwrapCheckpoint(wrapped).status().IsIOError());
}

TEST(CheckpointEnvelopeTest, RejectsFutureVersionWithClearError) {
  std::string wrapped = WrapCheckpoint("payload");
  // Version is the little-endian u32 after the 4-byte magic.
  wrapped[4] = static_cast<char>(kCheckpointVersion + 1);
  const auto unwrapped = UnwrapCheckpoint(wrapped);
  ASSERT_FALSE(unwrapped.ok());
  EXPECT_TRUE(unwrapped.status().IsInvalidArgument())
      << unwrapped.status().ToString();
  EXPECT_NE(unwrapped.status().message().find("newer"), std::string::npos)
      << unwrapped.status().message();
}

TEST(SessionStateTest, RoundTripsByteExact) {
  const SessionState original = MakeGoldenState();
  const std::string payload = SerializeState(original);

  BinReader reader(payload);
  SessionState restored;
  ASSERT_TRUE(DeserializeSessionState(&reader, &restored).ok());

  // Byte-exact re-serialization covers every field, including the
  // metrics snapshot, without a field-by-field comparison.
  EXPECT_EQ(SerializeState(restored), payload);
  EXPECT_EQ(restored.rounds, original.rounds);
  EXPECT_EQ(restored.budget_left, original.budget_left);
  ASSERT_EQ(restored.conditions.size(), 3u);
  EXPECT_TRUE(restored.conditions[0].IsTrue());
  EXPECT_TRUE(restored.conditions[1].IsFalse());
  EXPECT_FALSE(restored.conditions[2].IsDecided());
  EXPECT_EQ(restored.knowledge_blob, original.knowledge_blob);
  EXPECT_EQ(restored.config_fingerprint, original.config_fingerprint);
}

TEST(SessionStateTest, RejectsTrailingBytes) {
  std::string payload = SerializeState(MakeGoldenState());
  payload += "extra";
  BinReader reader(payload);
  SessionState restored;
  EXPECT_FALSE(DeserializeSessionState(&reader, &restored).ok());
}

TEST(SessionStateTest, RejectsTruncatedPayload) {
  const std::string payload = SerializeState(MakeGoldenState());
  // Sample a few truncation points; every one must fail cleanly.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{9}, payload.size() / 3,
        payload.size() / 2, payload.size() - 1}) {
    const std::string cut = payload.substr(0, len);
    BinReader reader(cut);
    SessionState restored;
    EXPECT_FALSE(DeserializeSessionState(&reader, &restored).ok())
        << "length " << len;
  }
}

TEST(CheckpointStoreTest, WritesPrunesAndLoadsNewest) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_store");
  options.keep = 2;
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  for (std::size_t round = 1; round <= 4; ++round) {
    state.rounds = round;
    state.answer_log_offset = round;
    ASSERT_TRUE(store.Write(state).ok()) << "round " << round;
  }
  const auto generations = store.ListGenerations();
  ASSERT_EQ(generations.size(), 2u);  // Pruned to keep.
  EXPECT_EQ(generations.front(), "ckpt-00000003.bin");
  EXPECT_EQ(generations.back(), "ckpt-00000004.bin");

  std::size_t fallbacks = 99;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 4u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointStoreTest, FallsBackPastCorruptNewestGeneration) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_fallback");
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.rounds = round;
    ASSERT_TRUE(store.Write(state).ok());
  }
  // Corrupt the newest generation in the middle of the payload.
  const std::string newest = options.dir + "/ckpt-00000003.bin";
  std::string bytes = ReadFileBytes(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteFileBytes(newest, bytes);

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 2u);
  EXPECT_EQ(fallbacks, 1u);
}

TEST(CheckpointStoreTest, SkipsSnapshotAheadOfAnswerLog) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_ahead");
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 2;
  ASSERT_TRUE(store.Write(state).ok());
  state.rounds = 2;
  state.answer_log_offset = 10;  // More than the log will hold.
  ASSERT_TRUE(store.Write(state).ok());

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(/*max_valid_log_entries=*/5,
                                       &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 1u);
  EXPECT_EQ(fallbacks, 1u);
}

TEST(CheckpointStoreTest, NoUsableGenerationIsNotFound) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_empty");
  const CheckpointStore store(options);
  std::size_t fallbacks = 0;
  EXPECT_TRUE(store.LoadLatest(0, &fallbacks).status().IsNotFound());
}

TEST(CheckpointStoreTest, InjectedWriteFailureIsCleanIOErrorWithPath) {
  FaultPlan plan;
  plan.write_fail_rate = 1.0;  // Every durable write fails (ENOSPC-ish).
  FaultInjectingFileIo io(plan);

  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_enospc");
  options.io = &io;
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.rounds = 1;
  const Status wrote = store.Write(state);
  EXPECT_TRUE(wrote.IsIOError()) << wrote.ToString();
  // The error carries the path so an operator can find the full disk,
  // and the aborted tmp file is cleaned up — no half-written
  // generations for a later scan to trip over.
  EXPECT_NE(wrote.message().find(options.dir), std::string::npos)
      << wrote.ToString();
  EXPECT_TRUE(store.ListGenerations().empty());
  for (const auto& entry :
       std::filesystem::directory_iterator(options.dir)) {
    ADD_FAILURE() << "leftover file " << entry.path();
  }
  EXPECT_GE(io.stats().writes_failed, 1u);
}

TEST(CheckpointStoreTest, InjectedSyncFailureFailsTheWrite) {
  FaultPlan plan;
  plan.sync_fail_rate = 1.0;
  FaultInjectingFileIo io(plan);

  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_esync");
  options.io = &io;
  CheckpointStore store(options);

  SessionState state = MakeGoldenState();
  state.rounds = 1;
  const Status wrote = store.Write(state);
  EXPECT_TRUE(wrote.IsIOError()) << wrote.ToString();
  EXPECT_GE(io.stats().syncs_failed, 1u);

  // The same store succeeds once the disk heals (deterministic plan,
  // new injector): faults never latch the store.
  FaultInjectingFileIo healthy({});
  CheckpointStore::Options healed_options;
  healed_options.dir = options.dir;
  healed_options.io = &healthy;
  CheckpointStore healed(healed_options);
  EXPECT_TRUE(healed.Write(state).ok());
  EXPECT_EQ(healed.ListGenerations().size(), 1u);
}

TEST(CheckpointStoreTest, InjectedReadCorruptionFallsBackToOlder) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_readcorrupt");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.rounds = round;
    ASSERT_TRUE(store.Write(state).ok());
  }

  // Reads through a corrupting IO layer: roughly half the generations
  // come back truncated; the CRC envelope rejects them and LoadLatest
  // falls back — it never returns a damaged snapshot.
  FaultPlan plan;
  plan.read_corrupt_rate = 0.5;
  plan.seed = 11;
  FaultInjectingFileIo io(plan);
  CheckpointStore::Options corrupt_options;
  corrupt_options.dir = options.dir;
  corrupt_options.io = &io;
  const CheckpointStore corrupted(corrupt_options);
  std::size_t fallbacks = 0;
  const auto loaded = corrupted.LoadLatest(100, &fallbacks);
  if (loaded.ok()) {
    EXPECT_GE(loaded->rounds, 1u);
    EXPECT_LE(loaded->rounds, 3u);
  } else {
    EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
  }
}

TEST(CheckpointStoreTest, SessionNamespacesNeitherPruneNorLoadEachOther) {
  const std::string dir = FreshDir("bc_ckpt_sessions");
  CheckpointStore alpha({.dir = dir, .session_id = "alpha", .keep = 2});
  CheckpointStore beta({.dir = dir, .session_id = "beta", .keep = 2});

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  for (std::size_t round = 1; round <= 3; ++round) {
    state.rounds = round;
    state.budget_left = 100.0 + static_cast<double>(round);
    ASSERT_TRUE(alpha.Write(state).ok());
  }
  state.rounds = 1;
  state.budget_left = 7.0;
  ASSERT_TRUE(beta.Write(state).ok());

  // Alpha pruned only its own generations; beta's survived alpha's
  // three writes even though beta is far below its own keep limit.
  const auto alpha_gens = alpha.ListGenerations();
  ASSERT_EQ(alpha_gens.size(), 2u);
  EXPECT_EQ(alpha_gens.front(), "ckpt-alpha-00000002.bin");
  EXPECT_EQ(alpha_gens.back(), "ckpt-alpha-00000003.bin");
  const auto beta_gens = beta.ListGenerations();
  ASSERT_EQ(beta_gens.size(), 1u);
  EXPECT_EQ(beta_gens.front(), "ckpt-beta-00000001.bin");

  // Each store loads its own newest snapshot, never the neighbor's —
  // even though beta's generation number is lower than alpha's.
  std::size_t fallbacks = 0;
  const auto from_alpha = alpha.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(from_alpha.ok()) << from_alpha.status().ToString();
  EXPECT_EQ(from_alpha->rounds, 3u);
  EXPECT_EQ(from_alpha->budget_left, 103.0);
  const auto from_beta = beta.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(from_beta.ok()) << from_beta.status().ToString();
  EXPECT_EQ(from_beta->rounds, 1u);
  EXPECT_EQ(from_beta->budget_left, 7.0);

  // A legacy (un-namespaced) store sharing the directory sees neither
  // session's files, and its own writes are invisible to both.
  CheckpointStore legacy({.dir = dir});
  EXPECT_TRUE(legacy.ListGenerations().empty());
  state.rounds = 9;
  ASSERT_TRUE(legacy.Write(state).ok());
  EXPECT_EQ(legacy.ListGenerations().size(), 1u);
  EXPECT_EQ(alpha.ListGenerations().size(), 2u);
  EXPECT_EQ(beta.ListGenerations().size(), 1u);
}

TEST(CheckpointStoreTest, SessionIdPrefixCannotClaimLongerIdsFiles) {
  // "alpha" is a prefix of "alpha-00000001": the parser must not let
  // the short id claim the long id's files (or vice versa) even though
  // `ckpt-alpha-00000001-00000001.bin` starts with the short prefix.
  const std::string dir = FreshDir("bc_ckpt_prefix");
  CheckpointStore shorter({.dir = dir, .session_id = "alpha"});
  CheckpointStore longer({.dir = dir, .session_id = "alpha-00000001"});

  SessionState state = MakeGoldenState();
  state.answer_log_offset = 0;
  state.rounds = 1;
  ASSERT_TRUE(longer.Write(state).ok());

  EXPECT_TRUE(shorter.ListGenerations().empty());
  std::size_t fallbacks = 0;
  EXPECT_TRUE(shorter.LoadLatest(100, &fallbacks).status().IsNotFound());

  state.rounds = 2;
  ASSERT_TRUE(shorter.Write(state).ok());
  const auto longer_gens = longer.ListGenerations();
  ASSERT_EQ(longer_gens.size(), 1u);
  EXPECT_EQ(longer_gens.front(), "ckpt-alpha-00000001-00000001.bin");
  const auto shorter_gens = shorter.ListGenerations();
  ASSERT_EQ(shorter_gens.size(), 1u);
  EXPECT_EQ(shorter_gens.front(), "ckpt-alpha-00000002.bin");
}

TEST(CheckpointStoreTest, AbortedWriteLeavesPreviousGenerationsIntact) {
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_abort");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 0;
  ASSERT_TRUE(store.Write(state).ok());

  // A kill before the rename: the tmp file never becomes a generation.
  CheckpointStore::Options failing = options;
  failing.pre_rename_hook = [](const std::string&) {
    return Status::IOError("simulated kill before rename");
  };
  CheckpointStore failing_store(failing);
  state.rounds = 2;
  EXPECT_FALSE(failing_store.Write(state).ok());

  EXPECT_EQ(store.ListGenerations(),
            std::vector<std::string>{"ckpt-00000001.bin"});
  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rounds, 1u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointStoreTest, TornTmpWritePromotedByRenameFallsBack) {
  // The hook truncates the tmp file *and lets the rename happen*: the
  // worst realistic torn-write outcome. The loader must fall back.
  CheckpointStore::Options options;
  options.dir = FreshDir("bc_ckpt_torn");
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 0;
  ASSERT_TRUE(store.Write(state).ok());

  CheckpointStore::Options tearing = options;
  tearing.pre_rename_hook = [](const std::string& tmp_path) {
    std::error_code ec;
    std::filesystem::resize_file(
        tmp_path, std::filesystem::file_size(tmp_path) / 2, ec);
    return ec ? Status::IOError(ec.message()) : Status::OK();
  };
  CheckpointStore tearing_store(tearing);
  state.rounds = 2;
  ASSERT_TRUE(tearing_store.Write(state).ok());

  std::size_t fallbacks = 0;
  const auto loaded = store.LoadLatest(100, &fallbacks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rounds, 1u);
  EXPECT_EQ(fallbacks, 1u);
}

// ------------------------------------------------------------------- //
// Golden fixture. golden_v5.ckpt matches today's writer byte-for-byte,
// memo blob included; regenerate with:
//   BC_REGEN_GOLDEN=1 ./checkpoint_test
// ------------------------------------------------------------------- //

TEST(GoldenV5FixtureTest, CommittedFixtureMatchesHeadBytes) {
  const std::string path = std::string(BC_TESTDATA_DIR) + "/golden_v5.ckpt";
  const SessionState expected = MakeGoldenState();
  if (std::getenv("BC_REGEN_GOLDEN") != nullptr) {
    WriteFileBytes(path, WrapCheckpoint(SerializeState(expected)));
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty()) << "missing fixture " << path;
  // The envelope is stamped with the version it was written under.
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), kCheckpointVersion);

  const auto payload = UnwrapCheckpoint(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  BinReader reader(payload.value());
  SessionState restored;
  ASSERT_TRUE(DeserializeSessionState(&reader, &restored).ok());

  // The fixture must match today's serialization of the same state
  // byte-for-byte — any drift means v5 files no longer parse as v5.
  EXPECT_EQ(payload.value(), SerializeState(expected));
  ASSERT_EQ(restored.solver_breakers.size(), 2u);
  EXPECT_EQ(restored.solver_breakers[0].object, 2u);
  EXPECT_TRUE(restored.solver_breakers[0].open);
  EXPECT_EQ(restored.solver_breakers[0].last.quality,
            ProbQuality::kPartialBound);
  EXPECT_EQ(restored.solver_breakers[1].object, 5u);
  EXPECT_FALSE(restored.solver_breakers[1].open);

  // Its memo blob restores: the cached condition serves a hit.
  ProbabilityEvaluator evaluator;
  ASSERT_TRUE(evaluator.SetDistribution(V(2, 1), GoldenMemoDist()).ok());
  BinReader memo(restored.evaluator_blob);
  ASSERT_TRUE(evaluator.RestoreMemoState(&memo).ok());
  EXPECT_TRUE(evaluator.IsCached(GoldenMemoCondition()));
}

// ------------------------------------------------------------------- //
// Versions. v5 is the only one read; v1–v4 envelopes (older memo blob
// layouts) are refused in one line, and recovery falls back past them.
// ------------------------------------------------------------------- //

/// Stamps `version` into an envelope in place (the CRC covers only the
/// payload, so the result is an intact envelope of that version).
void StampVersion(std::string* envelope, std::uint32_t version) {
  (*envelope)[4] = static_cast<char>(version);
}

TEST(CheckpointVersionTest, V5RoundTripResumesBitIdentically) {
  const Table truth = MakeNbaLike(120, 5);
  Rng rng(17);
  const Table incomplete = InjectMissingUniform(truth, 0.15, rng);
  UniformPosteriorProvider posteriors(incomplete.schema());
  SimulatedPlatformOptions sim_options;
  sim_options.worker_accuracy = 0.95;
  sim_options.seed = 5;
  BayesCrowdOptions options;
  options.ctable.alpha = 0.01;
  options.budget = 12;
  options.latency = 4;
  options.strategy.m = 5;
  options.threads = 2;

  SimulatedCrowdPlatform reference_sim(truth, sim_options);
  const auto reference =
      BayesCrowd(options).Run(incomplete, posteriors, reference_sim);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  CheckpointStore::Options store_options;
  store_options.dir = FreshDir("bc_ckpt_v5_resume");
  store_options.keep = 100;
  CheckpointStore store(store_options);
  BayesCrowdOptions checkpointed = options;
  checkpointed.checkpoint_sink = &store;
  checkpointed.checkpoint_every = 1;
  SimulatedCrowdPlatform checkpointed_sim(truth, sim_options);
  ASSERT_TRUE(BayesCrowd(checkpointed)
                  .Run(incomplete, posteriors, checkpointed_sim)
                  .ok());
  const std::vector<std::string> generations = store.ListGenerations();
  ASSERT_GE(generations.size(), 2u);

  // Resume from the oldest (mid-run) generation, read back from disk.
  const std::string bytes =
      ReadFileBytes(store_options.dir + "/" + generations.front());
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 5u);
  const auto payload = UnwrapCheckpoint(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  SessionState state;
  BinReader reader(payload.value());
  ASSERT_TRUE(DeserializeSessionState(&reader, &state).ok());
  ASSERT_LT(state.rounds, reference->rounds);

  BayesCrowdOptions resumed_options = options;
  resumed_options.resume = &state;
  SimulatedCrowdPlatform resumed_sim(truth, sim_options);
  const auto resumed =
      BayesCrowd(resumed_options).Run(incomplete, posteriors, resumed_sim);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->result_objects, reference->result_objects);
  ASSERT_EQ(resumed->probabilities.size(), reference->probabilities.size());
  for (std::size_t i = 0; i < reference->probabilities.size(); ++i) {
    EXPECT_EQ(resumed->probabilities[i], reference->probabilities[i])
        << "object " << i;
  }
  EXPECT_EQ(resumed->rounds, reference->rounds);
  EXPECT_EQ(resumed->tasks_posted, reference->tasks_posted);
  EXPECT_EQ(resumed->cost_spent, reference->cost_spent);
  EXPECT_EQ(resumed->cache_hits, reference->cache_hits);
  EXPECT_EQ(resumed->cache_misses, reference->cache_misses);
}

TEST(CheckpointVersionTest, OlderEnvelopesAreRefusedWithOneLineVersionError) {
  for (std::uint32_t version = 0; version < kCheckpointVersion; ++version) {
    std::string envelope = WrapCheckpoint(SerializeState(MakeGoldenState()));
    StampVersion(&envelope, version);
    const auto unwrapped = UnwrapCheckpoint(envelope);
    ASSERT_FALSE(unwrapped.ok()) << "version " << version;
    EXPECT_TRUE(unwrapped.status().IsInvalidArgument())
        << unwrapped.status().ToString();
    const std::string message = unwrapped.status().message();
    EXPECT_NE(message.find(StrFormat("version %u", version)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("not supported by this build"), std::string::npos)
        << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
}

TEST(CheckpointVersionTest, V4MemoBlobIsRefusedAndLeavesEvaluatorUntouched) {
  // A v4 payload's memo blob (format 2) led with four evaluator RNG
  // words. The format-3 reader refuses it — restore and merge alike —
  // instead of misparsing, and a refused blob changes nothing.
  ProbabilityEvaluator donor;
  ASSERT_TRUE(donor.SetDistribution(V(2, 1), GoldenMemoDist()).ok());
  ASSERT_TRUE(donor.Probability(GoldenMemoCondition()).ok());
  std::string v4_blob;
  BinWriter w(&v4_blob);
  for (const std::uint64_t word : Rng(1234).SaveState()) w.WriteU64(word);
  donor.SerializeMemoState(&v4_blob);

  ProbabilityEvaluator evaluator;
  ASSERT_TRUE(evaluator.SetDistribution(V(2, 1), GoldenMemoDist()).ok());
  ASSERT_TRUE(evaluator.Probability(GoldenMemoCondition()).ok());
  ASSERT_EQ(evaluator.CacheSize(), 1u);
  BinReader restore_reader(v4_blob);
  EXPECT_FALSE(evaluator.RestoreMemoState(&restore_reader).ok());
  BinReader merge_reader(v4_blob);
  EXPECT_FALSE(evaluator.MergeMemoState(&merge_reader).ok());
  EXPECT_EQ(evaluator.CacheSize(), 1u);
  EXPECT_TRUE(evaluator.IsCached(GoldenMemoCondition()));
}

TEST(CheckpointVersionTest, NewestOlderVersionGenerationFallsBack) {
  for (std::uint32_t version = 1; version < kCheckpointVersion; ++version) {
    CheckpointStore::Options options;
    options.dir = FreshDir("bc_ckpt_old_fallback");
    CheckpointStore store(options);
    SessionState state = MakeGoldenState();
    state.answer_log_offset = 0;
    for (std::size_t round = 1; round <= 2; ++round) {
      state.rounds = round;
      ASSERT_TRUE(store.Write(state).ok());
    }
    const std::string newest = options.dir + "/ckpt-00000002.bin";
    std::string bytes = ReadFileBytes(newest);
    StampVersion(&bytes, version);
    WriteFileBytes(newest, bytes);

    std::size_t fallbacks = 0;
    const auto loaded = store.LoadLatest(100, &fallbacks);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->rounds, 1u) << "version " << version;
    EXPECT_EQ(fallbacks, 1u) << "version " << version;
  }
}

// ------------------------------------------------------------------- //
// Session layer: fingerprints and answer-log-aware recovery.
// ------------------------------------------------------------------- //

TEST(SessionTest, FingerprintSensitivity) {
  BayesCrowdOptions options;
  const std::uint64_t base = ConfigFingerprint(options, "data", "platform");
  EXPECT_EQ(base, ConfigFingerprint(options, "data", "platform"));
  EXPECT_NE(base, ConfigFingerprint(options, "data2", "platform"));
  EXPECT_NE(base, ConfigFingerprint(options, "data", "platform2"));

  BayesCrowdOptions changed = options;
  changed.budget += 1;
  EXPECT_NE(base, ConfigFingerprint(changed, "data", "platform"));

  // Thread count is excluded by design: results are bit-identical at
  // any thread count, so a resume may change it.
  BayesCrowdOptions threaded = options;
  threaded.threads = 8;
  EXPECT_EQ(base, ConfigFingerprint(threaded, "data", "platform"));
}

TEST(SessionTest, RecoverReplaysTailAndDropsTornLine) {
  const std::string dir = FreshDir("bc_session_recover");
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/answers.log";

  // Three durable entries plus a torn final line (killed mid-append).
  WriteFileBytes(log_path,
                 "# bayescrowd answer log v2\n"
                 "vc 0 1 > 3 g 1\n"
                 "vc 1 0 < 5 l 1\n"
                 "vv 2 1 > 0 1 g 2\n"
                 "vc 2 0 > 4");  // Torn: no relation/round/newline.

  CheckpointStore::Options options;
  options.dir = dir;
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 1;
  state.config_fingerprint = 42;
  ASSERT_TRUE(store.Write(state).ok());

  const auto recovered = RecoverSession(dir, log_path, 42);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->dropped_torn_tail);
  EXPECT_EQ(recovered->durable_entries, 3u);
  EXPECT_EQ(recovered->state.rounds, 1u);
  ASSERT_EQ(recovered->replay_tail.entries.size(), 2u);
  EXPECT_EQ(recovered->replay_tail.entries[1].round, 2u);

  // The torn line was scrubbed from disk: a plain strict load succeeds
  // and sees exactly the three durable entries.
  const auto reloaded = LoadAnswerLog(log_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->entries.size(), 3u);
}

TEST(SessionTest, RecoverRefusesFingerprintMismatch) {
  const std::string dir = FreshDir("bc_session_fpr");
  CheckpointStore::Options options;
  options.dir = dir;
  CheckpointStore store(options);
  SessionState state = MakeGoldenState();
  state.rounds = 1;
  state.answer_log_offset = 0;
  state.config_fingerprint = 7;
  ASSERT_TRUE(store.Write(state).ok());

  const auto recovered = RecoverSession(dir, dir + "/answers.log", 8);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsFailedPrecondition())
      << recovered.status().ToString();

  // Fingerprint 0 skips the check (caller opted out).
  EXPECT_TRUE(RecoverSession(dir, dir + "/answers.log", 0).ok());
}

}  // namespace
}  // namespace bayescrowd
