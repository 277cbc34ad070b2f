#include "core/workbench.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "util/rng.h"

namespace osap::core {
namespace {

using traces::DatasetId;

class WorkbenchTest : public ::testing::Test {
 protected:
  WorkbenchTest() : bench_(FastWorkbenchConfig()) {}
  Workbench bench_;
};

TEST_F(WorkbenchTest, SchemeNamesAreStable) {
  EXPECT_EQ(SchemeName(Scheme::kPensieve), "pensieve");
  EXPECT_EQ(SchemeName(Scheme::kNoveltyDetection), "nd");
  EXPECT_EQ(SchemeName(Scheme::kAgentEnsemble), "a_ensemble");
  EXPECT_EQ(SchemeName(Scheme::kValueEnsemble), "v_ensemble");
  EXPECT_EQ(SafetySchemes().size(), 3u);
}

TEST_F(WorkbenchTest, DatasetsAreMemoized) {
  const traces::Dataset& a = bench_.DatasetFor(DatasetId::kGamma22);
  const traces::Dataset& b = bench_.DatasetFor(DatasetId::kGamma22);
  EXPECT_EQ(&a, &b);
  EXPECT_FALSE(a.test.empty());
}

TEST_F(WorkbenchTest, BundleContainsAllArtifacts) {
  const TrainedBundle& bundle = bench_.BundleFor(DatasetId::kGamma22);
  EXPECT_EQ(bundle.agents.size(), bench_.config().ensemble_size);
  EXPECT_EQ(bundle.value_nets.size(), bench_.config().ensemble_size);
  ASSERT_NE(bundle.novelty, nullptr);
  EXPECT_TRUE(bundle.novelty->Fitted());
  EXPECT_GE(bundle.alpha_pi, 0.0);
  EXPECT_GE(bundle.alpha_v, 0.0);
}

TEST_F(WorkbenchTest, EvaluateIsMemoizedAndDeterministic) {
  const EvalResult& a =
      bench_.Evaluate(Scheme::kBufferBased, DatasetId::kGamma22,
                      DatasetId::kGamma22);
  const EvalResult& b =
      bench_.Evaluate(Scheme::kBufferBased, DatasetId::kGamma12,
                      DatasetId::kGamma22);  // baselines ignore train
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.per_trace_qoe.size(),
            bench_.DatasetFor(DatasetId::kGamma22).test.size());
}

TEST_F(WorkbenchTest, NormalizedAnchorsAreExact) {
  EXPECT_DOUBLE_EQ(bench_.NormalizedMean(Scheme::kRandom,
                                         DatasetId::kGamma22,
                                         DatasetId::kGamma22),
                   0.0);
  EXPECT_DOUBLE_EQ(bench_.NormalizedMean(Scheme::kBufferBased,
                                         DatasetId::kGamma22,
                                         DatasetId::kGamma22),
                   1.0);
}

TEST_F(WorkbenchTest, MakePolicyCoversAllSchemes) {
  for (Scheme scheme :
       {Scheme::kPensieve, Scheme::kBufferBased, Scheme::kRandom,
        Scheme::kNoveltyDetection, Scheme::kAgentEnsemble,
        Scheme::kValueEnsemble}) {
    const auto policy = bench_.MakePolicy(scheme, DatasetId::kGamma22);
    ASSERT_NE(policy, nullptr) << SchemeName(scheme);
  }
}

TEST_F(WorkbenchTest, SafetySchemePoliciesAreIndependent) {
  // Two ND policies must not share observation windows.
  const auto p1 =
      bench_.MakePolicy(Scheme::kNoveltyDetection, DatasetId::kGamma22);
  const auto p2 =
      bench_.MakePolicy(Scheme::kNoveltyDetection, DatasetId::kGamma22);
  EXPECT_NE(p1.get(), p2.get());
}

TEST_F(WorkbenchTest, CacheKeyChangesWithConfig) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  Workbench a(cfg);
  cfg.a2c.episodes += 1;
  Workbench b(cfg);
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

TEST(WorkbenchCache, SecondWorkbenchLoadsFromDisk) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir =
      std::filesystem::temp_directory_path() / "osap_wb_cache_test";
  std::filesystem::remove_all(cfg.cache_dir);
  {
    Workbench first(cfg);
    first.BundleFor(DatasetId::kGamma12);
  }
  Workbench second(cfg);
  const TrainedBundle& bundle = second.BundleFor(DatasetId::kGamma12);
  // Loading must produce the same evaluation results as training did.
  EXPECT_TRUE(bundle.novelty->Fitted());
  EXPECT_EQ(bundle.agents.size(), cfg.ensemble_size);
  std::filesystem::remove_all(cfg.cache_dir);
}

TEST(WorkbenchCache, CachedAgentsReproduceTrainedBehaviour) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir =
      std::filesystem::temp_directory_path() / "osap_wb_cache_test2";
  std::filesystem::remove_all(cfg.cache_dir);
  double trained_qoe = 0.0;
  {
    Workbench first(cfg);
    trained_qoe = first
                      .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                                DatasetId::kGamma12)
                      .MeanQoe();
  }
  Workbench second(cfg);
  const double loaded_qoe =
      second
          .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                    DatasetId::kGamma12)
          .MeanQoe();
  EXPECT_DOUBLE_EQ(trained_qoe, loaded_qoe);
  std::filesystem::remove_all(cfg.cache_dir);
}


TEST(WorkbenchCache, CorruptCacheFallsBackToRetraining) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir =
      std::filesystem::temp_directory_path() / "osap_wb_cache_test3";
  std::filesystem::remove_all(cfg.cache_dir);
  double trained_qoe = 0.0;
  {
    Workbench first(cfg);
    trained_qoe = first
                      .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                                DatasetId::kGamma12)
                      .MeanQoe();
  }
  // Corrupt every cached artifact.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(cfg.cache_dir)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == ".bin") {
      std::ofstream out(entry.path(), std::ios::trunc);
      out << "garbage";
    }
  }
  Workbench second(cfg);
  const double retrained_qoe =
      second
          .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                    DatasetId::kGamma12)
          .MeanQoe();
  // Training is deterministic, so the retrained agent matches.
  EXPECT_DOUBLE_EQ(trained_qoe, retrained_qoe);
  std::filesystem::remove_all(cfg.cache_dir);
}

// --- The serving start-up path: LoadServedArtifacts ---------------------

/// One fast bundle trained into a per-process cache (ctest runs every
/// test in its own process, in parallel) and shared by the tests below.
class ServedArtifactsTest : public ::testing::Test {
 protected:
  static constexpr DatasetId kTrain = DatasetId::kGamma22;

  static void SetUpTestSuite() {
    Workbench(CacheConfig(Root() / "trained")).BundleFor(kTrain);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(Root()); }

  static std::filesystem::path Root() {
    return std::filesystem::temp_directory_path() /
           ("osap_served_test_" + std::to_string(::getpid()));
  }
  static WorkbenchConfig CacheConfig(const std::filesystem::path& dir) {
    WorkbenchConfig cfg = FastWorkbenchConfig();
    cfg.use_cache = true;
    cfg.cache_dir = dir;
    return cfg;
  }
  /// A private copy of the trained cache, free to damage.
  static WorkbenchConfig CopiedCache(const std::string& name) {
    const auto dir = Root() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::copy(Root() / "trained", dir,
                          std::filesystem::copy_options::recursive);
    return CacheConfig(dir);
  }
  static WorkbenchConfig TrainedCache() {
    return CacheConfig(Root() / "trained");
  }

  /// Every answer the scheme's ServingModel gives over recorded greedy
  /// sessions (in- and out-of-distribution test traces replayed open
  /// loop, one service session per trace): each step's action and
  /// defaulted flag, then the raw uncertainty scores of every state (U_pi
  /// / U_V) or the OC-SVM decision values of fixed feature rows (U_S),
  /// as raw bits.
  static std::vector<std::uint64_t> Answers(const ArtifactCache& cache,
                                            Scheme scheme,
                                            const TrainedBundle& bundle) {
    return Answers(ModelFor(cache, scheme, bundle));
  }
  static std::shared_ptr<const serve::ServingModel> ModelFor(
      const ArtifactCache& cache, Scheme scheme, const TrainedBundle& bundle) {
    return serve::ServingModel::ForScheme(cache, scheme, bundle,
                                          cache.TriggerFor(scheme, bundle));
  }
  static std::vector<std::uint64_t> Answers(
      const std::shared_ptr<const serve::ServingModel>& model) {
    const auto recorded = RecordedSessions();
    serve::DecisionService service(model);
    std::vector<serve::DecisionService::SessionId> ids;
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      ids.push_back(service.OpenSession());
    }
    std::vector<std::uint64_t> out;
    std::vector<serve::DecisionService::Request> requests;
    std::vector<mdp::Action> actions(recorded.size());
    for (std::size_t step = 0;; ++step) {
      requests.clear();
      for (std::size_t i = 0; i < recorded.size(); ++i) {
        if (step < recorded[i].size()) {
          requests.push_back({ids[i], &recorded[i][step]});
        }
      }
      if (requests.empty()) break;
      service.DecideBatch(requests, actions);
      for (std::size_t r = 0; r < requests.size(); ++r) {
        out.push_back(static_cast<std::uint64_t>(actions[r]));
        out.push_back(service.Defaulted(requests[r].session) ? 1 : 0);
      }
    }
    std::vector<double> values;
    if (model->signal() == serve::Signal::kNovelty) {
      const std::size_t dim = 2 * model->NoveltyConfig().k;
      std::vector<double> rows(64 * dim);
      Rng rng(5);
      for (double& x : rows) x = rng.Uniform(0.0, 4.0);
      values.resize(64);
      model->NoveltyDecisionValues(rows.data(), 64, values);
    } else {
      std::vector<double> flat;
      std::size_t n = 0;
      for (const auto& session : recorded) {
        for (const auto& state : session) {
          flat.insert(flat.end(), state.begin(), state.end());
          ++n;
        }
      }
      const nn::Matrix states(n, model->InputSize(), std::move(flat));
      values.resize(n);
      model->UncertaintyScores(states, values);
    }
    for (double v : values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      out.push_back(bits);
    }
    return out;
  }

  /// Greedy deployed-agent sessions on two in-distribution and two
  /// out-of-distribution test traces, recorded from the intact cache.
  static std::vector<std::vector<mdp::State>> RecordedSessions() {
    Workbench bench(TrainedCache());
    const auto policy = bench.MakePolicy(Scheme::kPensieve, kTrain);
    std::vector<std::vector<mdp::State>> sessions;
    for (const DatasetId test : {kTrain, DatasetId::kExponential}) {
      const auto& traces = bench.DatasetFor(test).test;
      for (std::size_t t = 0; t < 2 && t < traces.size(); ++t) {
        auto env = bench.MakeEvalEnvironment();
        env.SetFixedTrace(traces[t]);
        std::vector<mdp::State> states;
        mdp::State s = env.Reset();
        for (bool done = false; !done;) {
          states.push_back(s);
          mdp::StepResult r = env.Step(policy->SelectAction(s));
          s = std::move(r.next_state);
          done = r.done;
        }
        sessions.push_back(std::move(states));
      }
    }
    return sessions;
  }

  /// The scheme's answers from the full bundle of an intact cache.
  static std::vector<std::uint64_t> ReferenceAnswers(Scheme scheme) {
    Workbench bench(TrainedCache());
    return Answers(bench, scheme, bench.BundleFor(kTrain));
  }
};

TEST_F(ServedArtifactsTest, EachSchemeLoadsExactlyItsArtifacts) {
  Workbench bench(TrainedCache());
  const ArtifactCache cache(TrainedCache());
  const std::size_t members = bench.config().ensemble_size;
  const TrainedBundle& full = bench.BundleFor(kTrain);

  const auto us = cache.LoadServedArtifacts(kTrain, Scheme::kNoveltyDetection);
  ASSERT_TRUE(us.has_value());
  EXPECT_EQ(us->agents.size(), 1u);
  ASSERT_NE(us->novelty, nullptr);
  EXPECT_TRUE(us->novelty->Fitted());
  EXPECT_TRUE(us->value_nets.empty());

  const auto upi = cache.LoadServedArtifacts(kTrain, Scheme::kAgentEnsemble);
  ASSERT_TRUE(upi.has_value());
  EXPECT_EQ(upi->agents.size(), members);
  EXPECT_EQ(upi->novelty, nullptr);
  EXPECT_TRUE(upi->value_nets.empty());
  EXPECT_EQ(upi->alpha_pi, full.alpha_pi);

  const auto uv = cache.LoadServedArtifacts(kTrain, Scheme::kValueEnsemble);
  ASSERT_TRUE(uv.has_value());
  EXPECT_EQ(uv->agents.size(), 1u);
  EXPECT_EQ(uv->value_nets.size(), members);
  EXPECT_EQ(uv->novelty, nullptr);
  EXPECT_EQ(uv->alpha_v, full.alpha_v);

  // Without a cache there is nothing to serve from.
  EXPECT_FALSE(ArtifactCache(FastWorkbenchConfig())
                   .LoadServedArtifacts(kTrain, Scheme::kNoveltyDetection)
                   .has_value());
}

TEST_F(ServedArtifactsTest, ServedModelsAnswerLikeBundleFor) {
  for (const Scheme scheme : SafetySchemes()) {
    const ArtifactCache cache(TrainedCache());
    const auto served = cache.LoadServedArtifacts(kTrain, scheme);
    ASSERT_TRUE(served.has_value()) << SchemeName(scheme);
    EXPECT_EQ(Answers(cache, scheme, *served), ReferenceAnswers(scheme))
        << SchemeName(scheme);
  }
}

TEST_F(ServedArtifactsTest, MissingOrCorruptServedFileFallsBackToBundleFor) {
  // One damaged served file per scheme: a U_S OC-SVM cut mid-record, a
  // deleted calibration for U_pi, a garbage U_V value net.
  const auto damage = [](const std::filesystem::path& dir, Scheme scheme) {
    switch (scheme) {
      case Scheme::kNoveltyDetection: {
        const auto path = dir / "ocsvm.bin";
        std::filesystem::resize_file(
            path, std::filesystem::file_size(path) - 12);
        break;
      }
      case Scheme::kAgentEnsemble:
        std::filesystem::remove(dir / "calibration.txt");
        break;
      default: {
        std::ofstream out(dir / "value_1.bin", std::ios::trunc);
        out << "garbage";
      }
    }
  };
  for (const Scheme scheme : SafetySchemes()) {
    const WorkbenchConfig cfg = CopiedCache(SchemeName(scheme));
    const ArtifactCache cache(cfg);
    damage(cache.BundleDir(kTrain), scheme);
    const auto served = cache.LoadServedArtifacts(kTrain, scheme);
    EXPECT_FALSE(served.has_value()) << SchemeName(scheme);
    // The loader rejects the damaged file (osap_serve then exits); the
    // full bundle retrains or refits it deterministically.
    Workbench bench(cfg);
    const TrainedBundle& bundle = served ? *served : bench.BundleFor(kTrain);
    EXPECT_EQ(Answers(bench, scheme, bundle), ReferenceAnswers(scheme))
        << SchemeName(scheme);
  }
}

TEST_F(ServedArtifactsTest, BundleForStillReturnsEveryArtifact) {
  Workbench bench(TrainedCache());
  const ArtifactCache cache(TrainedCache());
  for (const Scheme scheme : SafetySchemes()) {
    ASSERT_TRUE(cache.LoadServedArtifacts(kTrain, scheme).has_value());
  }
  const TrainedBundle& bundle = bench.BundleFor(kTrain);
  EXPECT_EQ(bundle.agents.size(), bench.config().ensemble_size);
  EXPECT_EQ(bundle.value_nets.size(), bench.config().ensemble_size);
  ASSERT_NE(bundle.novelty, nullptr);
  EXPECT_TRUE(bundle.novelty->Fitted());
}

TEST_F(ServedArtifactsTest, ModelOutlivesTheNetsItWasBuiltFrom) {
  // A ServingModel packs its own copy of every weight, so it holds no
  // agent or value net alive and answers bit-identically without them.
  for (const Scheme scheme : SafetySchemes()) {
    std::shared_ptr<const serve::ServingModel> model;
    std::vector<std::weak_ptr<const void>> nets;
    {
      Workbench bench(TrainedCache());
      const TrainedBundle& bundle = bench.BundleFor(kTrain);
      model = ModelFor(bench, scheme, bundle);
      for (const auto& agent : bundle.agents) nets.emplace_back(agent);
      for (const auto& value : bundle.value_nets) nets.emplace_back(value);
    }
    ASSERT_FALSE(nets.empty());
    for (const auto& net : nets) {
      EXPECT_TRUE(net.expired()) << SchemeName(scheme);
    }
    EXPECT_EQ(Answers(model), ReferenceAnswers(scheme)) << SchemeName(scheme);
  }
}

}  // namespace
}  // namespace osap::core
