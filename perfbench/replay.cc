// perfbench_replay: the in-process half of the benchmark.
//
// Replays a workload with the same seed and viewers as the wire run, in
// decision rounds of the wire run's mean edge batch size, through two
// paths side by side:
//   - the opaque path: DecisionService::DecideBatch, run as shipped (same
//     shard count as the server);
//   - the decomposed path, built only from the public calls RunShard
//     makes: pack -> score -> observe (its own SafetyState, ring and
//     feature extractor per session) -> act.
// Every round's actions must agree bit for bit between the two paths, and
// every session the wire run completed must reach exactly the QoE it
// reached over the wire (decisions do not depend on batching).
//
// With --trace 1 each round also records spans (name, start, end, parent;
// a round's spans share its id) in memory. They are written to
// --spans-out at exit and reduced to self times, which give the per-layer
// costs. The recorder's own cost is measured as DecideBatch's time with a
// span around it versus without, on alternating rounds.
//
// --prepare only trains or loads the deployment's artifacts into
// ./osap_cache (the benchmark's untimed preparation step).
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>
#include <string>
#include <vector>

#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "net/protocol.h"
#include "nn/matrix.h"
#include "policies/random_policy.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "traces/dataset.h"
#include "workload.h"

using namespace osap;
using namespace osap::perfbench;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_replay: %s\n", what.c_str());
  std::exit(1);
}

std::int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The deployment osap_serve builds: the Workbench trigger mapping with
/// the bundle's calibrated thresholds, permanent defaulting.
std::shared_ptr<const serve::ServingModel> BuildModel(
    core::Workbench& bench, const std::string& signal,
    const core::TrainedBundle& bundle) {
  core::SafeAgentConfig safety;
  safety.mode = core::DefaultingMode::kPermanent;
  safety.trigger.l = bench.config().trigger_l;
  safety.trigger.k = bench.config().trigger_k;
  const std::size_t discard = bench.config().ensemble_discard;
  if (signal == "us") {
    safety.trigger.mode = core::TriggerMode::kBinary;
    return serve::ServingModel::Novelty(bundle.agents, bundle.novelty,
                                        bench.eval_video(), bench.layout(),
                                        safety);
  }
  safety.trigger.mode = core::TriggerMode::kWindowVariance;
  if (signal == "upi") {
    safety.trigger.alpha = bundle.alpha_pi;
    return serve::ServingModel::AgentEnsemble(
        bundle.agents, discard, bench.eval_video(), bench.layout(), safety);
  }
  if (signal == "uv") {
    safety.trigger.alpha = bundle.alpha_v;
    return serve::ServingModel::ValueEnsemble(
        bundle.agents, bundle.value_nets, discard, bench.eval_video(),
        bench.layout(), safety);
  }
  Die("unknown signal '" + signal + "'");
}

/// In-memory span recorder.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start, end;
    std::int32_t parent;
    std::uint32_t round;
  };

  explicit Spans(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const { return on_; }
  /// Spans are recorded only while active (the measured rounds).
  void SetActive(bool active) { active_ = on_ && active; }
  void SetRound(std::uint32_t round) { round_ = round; }

  /// Opens a span under `parent` (-1 = root); returns its index.
  std::int32_t Open(const char* name, std::int32_t parent) {
    if (!active_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, round_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void Close(std::int32_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = NowNs();
  }

  /// Per-name total and self time (total minus the children's totals).
  struct Times {
    double total_ns = 0.0, self_ns = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Times> Reduce() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Times> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Times& t = out[spans_[i].name];
      const auto d = static_cast<double>(spans_[i].end - spans_[i].start);
      t.total_ns += d;
      t.self_ns += d - static_cast<double>(child[i]);
      ++t.count;
    }
    return out;
  }

  /// Writes every span to `path` and the per-name totals and self times
  /// to `path` + ".summary".
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    std::fprintf(f, "round,name,parent,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u,%s,%d,%" PRId64 ",%" PRId64 "\n", s.round, s.name,
                   s.parent, s.start, s.end);
    }
    std::fclose(f);
    f = std::fopen((path + ".summary").c_str(), "w");
    if (f == nullptr) Die("cannot write " + path + ".summary");
    std::fprintf(f, "name,count,total_ns,self_ns\n");
    for (const auto& [name, t] : Reduce()) {
      std::fprintf(f, "%s,%zu,%.0f,%.0f\n", name.c_str(), t.count, t.total_ns,
                   t.self_ns);
    }
    std::fclose(f);
  }

 private:
  bool on_;
  bool active_ = false;
  std::uint32_t round_ = 0;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::int32_t parent)
      : spans_(spans), id_(spans.Open(name, parent)) {}
  ~Scope() { spans_.Close(id_); }
  std::int32_t id() const { return id_; }

 private:
  Spans& spans_;
  std::int32_t id_;
};

/// The decomposed decision path's per-session state.
struct Mirror {
  core::SafetyState hot;
  core::SafetyCold cold;
  std::vector<double> ring;
  std::unique_ptr<core::NoveltyFeatureExtractor> extractor;  // U_S
};

class Replay {
 public:
  Replay(const Spec& spec, std::shared_ptr<const serve::ServingModel> model,
         Population& pop, const core::NoveltyDetector& novelty, bool trace)
      : spec_(spec),
        model_(std::move(model)),
        pop_(pop),
        service_(model_, [&] {
          serve::DecisionServiceConfig cfg;
          cfg.shard_count = spec.shards;
          return cfg;
        }()),
        spans_(trace),
        novelty_(novelty),
        probe_extractor_(novelty.config()),
        session_(pop.Size()),
        mirror_(pop.Size()),
        in_batch_(pop.Size(), 0) {
    for (std::size_t v = 0; v < pop.Size(); ++v) {
      session_[v] = service_.OpenSession();
      ResetMirror(v);
    }
  }

  /// Pre-aging passes, then the fixed-rate slots, in rounds of `batch`.
  void Run(std::size_t batch) {
    batch_ = std::max<std::size_t>(1, batch);
    const std::vector<std::size_t> order = PhaseOrder(pop_.Plans());
    for (std::size_t pass = 0; pass < spec_.session_len; ++pass) {
      for (std::size_t v : order) {
        if (pop_.Plan(v).warm_steps > pass) Add(v);
      }
      Flush();
    }
    measuring_ = true;
    spans_.SetActive(true);
    for (std::size_t k = 0; k < spec_.Slots(); ++k) {
      for (std::size_t v : order) {
        if (in_batch_[v]) Flush();
        if (pop_.SessionOver(v)) {
          Reopen(v);
        } else {
          Add(v);
        }
      }
    }
    Flush();
    bytes_per_session_ = service_.MemoryStats().BytesPerSession();
  }

  std::vector<CompletedSession>& completed() { return completed_; }
  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t actor_mismatches() const { return actor_mismatches_; }
  std::uint64_t defaulted() const { return defaulted_; }
  const Spans& spans() const { return spans_; }

  /// Per-layer metrics from the measured rounds (trace mode).
  void Report(std::map<std::string, double>& m) const {
    const auto per = [](double num, double den) {
      return den == 0.0 ? 0.0 : num / den;
    };
    const double d = static_cast<double>(decisions_);
    std::map<std::string, Spans::Times> t = spans_.Reduce();
    const auto total = [&](const char* name) { return t[name].total_ns; };
    const double stage_sum =
        total("pack") + total("score") + total("observe") + total("act");
    m["serve.decide_us_per_decision"] = per(decide_cpu_ns_, d) / 1e3;
    m["serve.decide_wall_us_per_decision"] = per(decide_wall_ns_, d) / 1e3;
    m["serve.stage_sum_us_per_decision"] = per(stage_sum, d) / 1e3;
    m["serve.overhead_us_per_decision"] =
        per(decide_cpu_ns_ - stage_sum, d) / 1e3;
    m["serve.open_us"] = per(open_ns_, static_cast<double>(opens_)) / 1e3;
    m["serve.close_us"] = per(close_ns_, static_cast<double>(opens_)) / 1e3;
    m["serve.bytes_per_session"] = bytes_per_session_;
    m["model.score_us_per_decision"] = per(total("score"), d) / 1e3;
    // In-path spans plus the off-path timings MeasureOffPath took where
    // the path skipped the call.
    m["model.actor_us_per_decision"] =
        per(actor_ns_ + total("actor"),
            static_cast<double>(actor_rows_ + learned_rows_)) / 1e3;
    m["model.fallback_ns"] = per(fallback_ns_ + total("fallback"),
                                 static_cast<double>(fallback_calls_));
    m["core.observe_ns"] = per(total("observe"), d);
    m["core.extractor_push_ns"] =
        per(push_ns_ + total("features"), static_cast<double>(pushes_));
    m["protocol.encode_request_ns"] =
        per(proto_ns_[0], static_cast<double>(request_frames_));
    m["protocol.decode_request_ns"] =
        per(proto_ns_[1], static_cast<double>(request_frames_));
    m["protocol.encode_reply_ns"] =
        per(proto_ns_[2], static_cast<double>(reply_frames_));
    m["protocol.decode_reply_ns"] =
        per(proto_ns_[3], static_cast<double>(reply_frames_));
    const double on = per(span_on_ns_, static_cast<double>(span_on_rounds_));
    const double off = per(span_off_ns_, static_cast<double>(span_off_rounds_));
    m["trace.overhead_share"] = off == 0.0 ? 0.0 : on / off - 1.0;
  }

 private:
  void ResetMirror(std::size_t v) {
    Mirror& m = mirror_[v];
    m.hot = core::SafetyState{};
    m.cold = core::SafetyCold{};
    m.ring.assign(core::SafetyRingDoubles(model_->safety()), 0.0);
    if (model_->signal() == serve::Signal::kNovelty) {
      m.extractor = std::make_unique<core::NoveltyFeatureExtractor>(
          model_->NoveltyConfig());
    }
  }

  void Add(std::size_t v) {
    in_batch_[v] = 1;
    batch_v_.push_back(v);
    if (batch_v_.size() >= batch_) Flush();
  }

  /// CLOSE + OPEN in process, and the viewer's next session.
  void Reopen(std::size_t v) {
    if (spans_.on()) TimeFrames(v, /*step=*/false);
    const std::int64_t t0 = NowNs();
    service_.CloseSession(session_[v]);
    const std::int64_t t1 = NowNs();
    session_[v] = service_.OpenSession();
    const std::int64_t t2 = NowNs();
    close_ns_ += static_cast<double>(t1 - t0);
    open_ns_ += static_cast<double>(t2 - t1);
    ++opens_;
    ResetMirror(v);
    pop_.Begin(v);
  }

  /// Encodes and decodes the frames one wire slot of viewer v exchanges.
  void TimeFrames(std::size_t v, bool step) {
    std::vector<std::uint8_t>& buf = frame_buf_;
    net::RequestHeader h;
    h.request_id = v + 1;
    h.session_id = session_[v];
    const mdp::State& state = pop_.State(v);
    std::int64_t t = NowNs();
    buf.clear();
    std::size_t frames = 0;
    if (step) {
      h.type = net::MsgType::kStep;
      net::AppendRequestFrame(buf, h, state);
      frames = 1;
    } else {
      h.type = net::MsgType::kCloseSession;
      net::AppendRequestFrame(buf, h);
      h.type = net::MsgType::kOpenSession;
      net::AppendRequestFrame(buf, h);
      frames = 2;
    }
    std::int64_t u = NowNs();
    proto_ns_[0] += static_cast<double>(u - t);
    t = u;
    for (std::size_t off = 0; off < buf.size();) {
      const std::uint32_t body = net::GetU32(buf.data() + off);
      net::DecodedRequest req;
      if (net::DecodeRequest({buf.data() + off + net::kLengthPrefixBytes, body},
                             req) != net::DecodeResult::kOk) {
        Die("DecodeRequest rejected a frame AppendRequestFrame wrote");
      }
      if (req.state_dim > 0) {
        decoded_state_.resize(req.state_dim);
        req.CopyState(decoded_state_);
      }
      off += net::kLengthPrefixBytes + body;
    }
    u = NowNs();
    proto_ns_[1] += static_cast<double>(u - t);
    request_frames_ += frames;
    t = u;
    buf.clear();
    net::Reply reply;
    reply.request_id = h.request_id;
    reply.session_id = h.session_id;
    reply.type = step ? net::MsgType::kStep : net::MsgType::kOpenSession;
    for (std::size_t i = 0; i < frames; ++i) net::AppendReplyFrame(buf, reply);
    u = NowNs();
    proto_ns_[2] += static_cast<double>(u - t);
    t = u;
    for (std::size_t off = 0; off < buf.size();) {
      const std::uint32_t body = net::GetU32(buf.data() + off);
      if (net::DecodeReply({buf.data() + off + net::kLengthPrefixBytes, body},
                           reply) != net::DecodeResult::kOk) {
        Die("DecodeReply rejected a frame AppendReplyFrame wrote");
      }
      off += net::kLengthPrefixBytes + body;
    }
    proto_ns_[3] += static_cast<double>(NowNs() - t);
    reply_frames_ += frames;
  }

  void Flush() {
    const std::size_t n = batch_v_.size();
    if (n == 0) return;
    spans_.SetRound(round_++);
    requests_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      requests_[j] = {session_[batch_v_[j]], &pop_.State(batch_v_[j])};
    }
    opaque_.resize(n);
    decomposed_.resize(n);
    {
      Scope round(spans_, "round", -1);
      // Span recording around DecideBatch on half the rounds: the
      // recorder's overhead estimate.
      // A hashed coin, not alternation: consecutive rounds differ in
      // which shard lanes they touch.
      const bool record =
          spans_.on() && ((round_ * 0x9e3779b97f4a7c15ull) >> 63) != 0;
      const std::int64_t w0 = NowNs();
      const std::int64_t c0 = CpuNs();
      {
        const std::int32_t s = record ? spans_.Open("decide", round.id()) : -1;
        service_.DecideBatch(requests_, opaque_);
        spans_.Close(s);
      }
      const std::int64_t c1 = CpuNs();
      const std::int64_t w1 = NowNs();
      if (measuring_) {
        decide_cpu_ns_ += static_cast<double>(c1 - c0);
        decide_wall_ns_ += static_cast<double>(w1 - w0);
        decisions_ += n;
        if (spans_.on()) {
          (record ? span_on_ns_ : span_off_ns_) += static_cast<double>(w1 - w0);
          ++(record ? span_on_rounds_ : span_off_rounds_);
        }
      }
      Scope path(spans_, "decomposed", round.id());
      Decompose(path.id());
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t v = batch_v_[j];
      if (opaque_[j] != decomposed_[j]) ++mismatches_;
      if (measuring_ && spans_.on()) TimeFrames(v, /*step=*/true);
      CompletedSession done;
      if (pop_.Apply(v, opaque_[j], &done) && measuring_) {
        completed_.push_back(done);
      }
      in_batch_[v] = 0;
    }
    batch_v_.clear();
  }

  /// pack -> score -> observe -> act from public calls only.
  void Decompose(std::int32_t parent) {
    const std::size_t n = batch_v_.size();
    const std::size_t input = model_->InputSize();
    scores_.assign(n, 0.0);
    scored_actions_.clear();
    if (model_->signal() == serve::Signal::kNovelty) {
      Scope score(spans_, "score", parent);
      const core::NoveltyDetector::Probe& probe = model_->NoveltyProbe();
      features_.ReshapeUninitialized(n, 2 * model_->NoveltyConfig().k);
      staged_of_.clear();
      {
        Scope features(spans_, "features", score.id());
        for (std::size_t j = 0; j < n; ++j) {
          const double observation = probe(pop_.State(batch_v_[j]));
          if (observation <= 0.0) continue;
          if (mirror_[batch_v_[j]].extractor->Push(
                  observation, features_.Row(staged_of_.size()))) {
            staged_of_.push_back(j);
          }
          if (measuring_) ++pushes_;
        }
      }
      if (!staged_of_.empty()) {
        Scope svm(spans_, "svm", score.id());
        values_.resize(staged_of_.size());
        model_->NoveltyDecisionValues(features_.data(), staged_of_.size(),
                                      values_);
        for (std::size_t t = 0; t < staged_of_.size(); ++t) {
          scores_[staged_of_[t]] = values_[t] >= 0.0 ? 0.0 : 1.0;
        }
      }
    } else {
      {
        Scope pack(spans_, "pack", parent);
        states_.ReshapeUninitialized(n, input);
        for (std::size_t j = 0; j < n; ++j) {
          const mdp::State& st = pop_.State(batch_v_[j]);
          std::copy(st.data(), st.data() + input, states_.Row(j).data());
        }
      }
      Scope score(spans_, "score", parent);
      if (model_->ScoresYieldActions()) scored_actions_.resize(n);
      model_->UncertaintyScores(states_, scores_, scored_actions_);
    }

    fallback_.assign(n, 0);
    {
      Scope observe(spans_, "observe", parent);
      const core::SafeAgentConfig& safety = model_->safety();
      for (std::size_t j = 0; j < n; ++j) {
        Mirror& m = mirror_[batch_v_[j]];
        fallback_[j] = core::SafetyObserve(safety, m.hot, m.cold,
                                           m.ring.empty() ? nullptr
                                                          : m.ring.data(),
                                           scores_[j]);
      }
    }

    const std::size_t fallbacks = Act(parent);
    if (measuring_) {
      defaulted_ += fallbacks;
      fallback_calls_ += fallbacks;
      if (spans_.on()) MeasureOffPath(n, fallbacks);
    }
  }

  /// The act stage: Buffer-Based actions for defaulted sessions, the
  /// deployed actor (or the scoring pass's actions) for the rest. Returns
  /// the number of fallback decisions.
  std::size_t Act(std::int32_t parent) {
    const std::size_t n = batch_v_.size();
    const std::size_t input = model_->InputSize();
    Scope act(spans_, "act", parent);
    std::size_t fallbacks = 0;
    {
      Scope fb(spans_, "fallback", act.id());
      for (std::size_t j = 0; j < n; ++j) {
        if (!fallback_[j]) continue;
        decomposed_[j] = model_->FallbackAction(pop_.State(batch_v_[j]));
        ++fallbacks;
      }
    }
    learned_of_.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (fallback_[j]) continue;
      if (!scored_actions_.empty()) {
        decomposed_[j] = scored_actions_[j];
      } else {
        learned_of_.push_back(j);
      }
    }
    if (learned_of_.empty()) return fallbacks;
    if (measuring_) learned_rows_ += learned_of_.size();
    Scope actor(spans_, "actor", act.id());
    learned_states_.ReshapeUninitialized(learned_of_.size(), input);
    for (std::size_t t = 0; t < learned_of_.size(); ++t) {
      const mdp::State& st = pop_.State(batch_v_[learned_of_[t]]);
      std::copy(st.data(), st.data() + input, learned_states_.Row(t).data());
    }
    learned_actions_.resize(learned_of_.size());
    model_->GreedyActions(learned_states_, learned_actions_);
    for (std::size_t t = 0; t < learned_of_.size(); ++t) {
      decomposed_[learned_of_[t]] = learned_actions_[t];
    }
    return fallbacks;
  }

  /// Costs that the path itself does not expose on every workload: the
  /// standalone actor pass (U_pi gets its actions from the scoring pass,
  /// which this also cross-checks), the fallback mapping and the feature
  /// extractor (timed on the round's states when the path ran neither).
  void MeasureOffPath(std::size_t n, std::size_t fallbacks) {
    const std::size_t input = model_->InputSize();
    std::int64_t t = NowNs();
    if (!scored_actions_.empty()) {
      states_.ReshapeUninitialized(n, input);
      for (std::size_t j = 0; j < n; ++j) {
        const mdp::State& st = pop_.State(batch_v_[j]);
        std::copy(st.data(), st.data() + input, states_.Row(j).data());
      }
      learned_actions_.resize(n);
      t = NowNs();
      model_->GreedyActions(states_, learned_actions_);
      actor_ns_ += static_cast<double>(NowNs() - t);
      actor_rows_ += n;
      for (std::size_t j = 0; j < n; ++j) {
        if (learned_actions_[j] != scored_actions_[j]) ++actor_mismatches_;
      }
    }
    if (fallbacks == 0) {
      t = NowNs();
      mdp::Action sink = 0;
      for (std::size_t j = 0; j < n; ++j) {
        sink += model_->FallbackAction(pop_.State(batch_v_[j]));
      }
      fallback_ns_ += static_cast<double>(NowNs() - t);
      fallback_calls_ += n;
      sink_ += sink;
    }
    if (model_->signal() != serve::Signal::kNovelty) {
      feature_row_.resize(probe_extractor_.FeatureSize());
      t = NowNs();
      for (std::size_t j = 0; j < n; ++j) {
        const double observation = novelty_.probe()(pop_.State(batch_v_[j]));
        if (observation > 0.0) probe_extractor_.Push(observation, feature_row_);
      }
      push_ns_ += static_cast<double>(NowNs() - t);
      pushes_ += n;
    }
  }

 private:
  const Spec& spec_;
  std::shared_ptr<const serve::ServingModel> model_;
  Population& pop_;
  serve::DecisionService service_;
  Spans spans_;
  const core::NoveltyDetector& novelty_;
  core::NoveltyFeatureExtractor probe_extractor_;
  std::vector<serve::DecisionService::SessionId> session_;
  std::vector<Mirror> mirror_;
  std::vector<std::uint8_t> in_batch_;
  std::vector<std::size_t> batch_v_;
  std::size_t batch_ = 1;
  bool measuring_ = false;
  std::uint32_t round_ = 0;

  std::vector<serve::DecisionService::Request> requests_;
  std::vector<mdp::Action> opaque_, decomposed_, scored_actions_;
  std::vector<mdp::Action> learned_actions_;
  std::vector<double> scores_, values_, feature_row_, decoded_state_;
  std::vector<std::size_t> staged_of_, learned_of_;
  std::vector<std::uint8_t> fallback_;
  std::vector<std::uint8_t> frame_buf_;
  nn::Matrix states_, features_, learned_states_;

  std::vector<CompletedSession> completed_;
  std::uint64_t mismatches_ = 0, actor_mismatches_ = 0, defaulted_ = 0;
  std::uint64_t decisions_ = 0, opens_ = 0, pushes_ = 0, actor_rows_ = 0;
  std::uint64_t learned_rows_ = 0;
  std::uint64_t fallback_calls_ = 0, request_frames_ = 0, reply_frames_ = 0;
  std::uint64_t span_on_rounds_ = 0, span_off_rounds_ = 0;
  double decide_cpu_ns_ = 0, decide_wall_ns_ = 0, open_ns_ = 0, close_ns_ = 0;
  double actor_ns_ = 0, fallback_ns_ = 0, push_ns_ = 0;
  double span_on_ns_ = 0, span_off_ns_ = 0;
  double proto_ns_[4] = {0, 0, 0, 0};
  double bytes_per_session_ = 0.0;
  long sink_ = 0;
};

/// Paper-normalized QoE of the completed sessions: per dataset, the mean
/// served QoE rescaled so that Random scores 0 and Buffer-Based scores 1
/// on the same traces and session lengths (Figure 1's scale), then shifted
/// by +1 so the reported score stays positive where the learned policy is
/// no better than Random (short out-of-distribution sessions, before any
/// trigger can fire). `ood` averages the five out-of-distribution
/// datasets' scores.
struct QoeSummary {
  double id = 0.0, ood = 0.0;
  double raw_id = 0.0, raw_ood = 0.0;  // mean summed reward per session
};

QoeSummary NormalizedQoe(core::Workbench& bench,
                         const serve::ServingModel& model,
                         const std::vector<CompletedSession>& sessions) {
  const std::vector<traces::DatasetId> ids = traces::AllDatasetIds();
  // Baseline QoE per (dataset, trace, length): {Random, Buffer-Based}.
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
           std::pair<double, double>>
      baselines;
  const auto rollout = [&](const CompletedSession& s, bool random) {
    abr::AbrEnvironment env = bench.MakeEvalEnvironment();
    env.SetFixedTrace(bench.DatasetFor(ids[s.dataset]).test[s.trace]);
    mdp::State state = env.Reset();
    policies::RandomPolicy rnd(env.ActionCount(), 1000 * s.dataset + s.trace);
    double qoe = 0.0;
    for (std::size_t i = 0; i < s.steps; ++i) {
      mdp::StepResult r = env.Step(random ? rnd.SelectAction(state)
                                          : model.FallbackAction(state));
      qoe += r.reward;
      if (r.done) break;
      state = std::move(r.next_state);
    }
    return qoe;
  };
  struct Sums {
    double served = 0.0, random = 0.0, bb = 0.0;
    std::size_t n = 0;
  };
  std::vector<Sums> per(ids.size());
  for (const CompletedSession& s : sessions) {
    const auto key = std::make_tuple(s.dataset, s.trace, s.steps);
    auto it = baselines.find(key);
    if (it == baselines.end()) {
      it = baselines.emplace(key, std::make_pair(rollout(s, true),
                                                 rollout(s, false)))
               .first;
    }
    Sums& d = per[s.dataset];
    d.served += s.qoe;
    d.random += it->second.first;
    d.bb += it->second.second;
    ++d.n;
  }
  QoeSummary out;
  std::size_t ood_sets = 0, ood_n = 0;
  for (std::size_t d = 0; d < per.size(); ++d) {
    if (per[d].n == 0) continue;
    const double norm =
        (per[d].served - per[d].random) / (per[d].bb - per[d].random);
    if (InDistribution(d)) {
      out.id = 1.0 + norm;
      out.raw_id = per[d].served / static_cast<double>(per[d].n);
    } else {
      out.ood += norm;
      out.raw_ood += per[d].served;
      ++ood_sets;
      ood_n += per[d].n;
    }
  }
  if (ood_sets > 0) out.ood = 1.0 + out.ood / static_cast<double>(ood_sets);
  if (ood_n > 0) out.raw_ood /= static_cast<double>(ood_n);
  return out;
}

/// Compares the replay's completed sessions with the wire run's file.
void CheckSessions(const std::string& path,
                   const std::vector<CompletedSession>& replay,
                   std::uint64_t replay_defaulted,
                   std::vector<std::string>& gates) {
  std::ifstream in(path);
  if (!in) {
    gates.push_back("cannot read the wire run's sessions from " + path);
    return;
  }
  std::string first;
  std::size_t i = 0, mismatched = 0;
  std::uint64_t wire_defaulted = 0;
  bool saw_defaulted = false;
  while (in >> first) {
    if (first == "defaulted") {
      in >> wire_defaulted;
      saw_defaulted = true;
      continue;
    }
    std::size_t viewer = std::stoul(first), ordinal = 0, steps = 0;
    std::string hex;
    in >> ordinal >> steps >> hex;
    const std::uint64_t bits = std::stoull(hex, nullptr, 16);
    if (i >= replay.size()) {
      ++mismatched;
      ++i;
      continue;
    }
    const CompletedSession& r = replay[i++];
    std::uint64_t rbits;
    std::memcpy(&rbits, &r.qoe, sizeof rbits);
    if (r.viewer != viewer || r.ordinal != ordinal || r.steps != steps ||
        rbits != bits) {
      ++mismatched;
    }
  }
  if (i != replay.size() || mismatched > 0) {
    gates.push_back("wire QoE differs from the in-process reference: " +
                    std::to_string(mismatched) + " of " + std::to_string(i) +
                    " wire sessions mismatched, replay completed " +
                    std::to_string(replay.size()));
  }
  if (!saw_defaulted || wire_defaulted != replay_defaulted) {
    gates.push_back("defaulted decisions: wire " +
                    std::to_string(wire_defaulted) + ", in-process " +
                    std::to_string(replay_defaulted));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Spec spec;
  std::size_t batch = 1;
  std::size_t trace = 0;
  bool prepare = false;
  std::string sessions_in, spans_out;
  util::ArgParser parser("perfbench_replay",
                         "In-process replay: reference QoE, opaque vs "
                         "decomposed decision path, per-layer spans.");
  spec.AddOptions(parser);
  parser.AddOption("--batch", "N", "requests per decision round", &batch);
  parser.AddOption("--trace", "0|1", "record spans and per-layer costs",
                   &trace);
  parser.AddOption("--sessions-in", "FILE", "the wire run's sessions",
                   &sessions_in);
  parser.AddOption("--spans-out", "FILE", "span dump (trace mode)",
                   &spans_out);
  parser.AddFlag("--prepare", "train or load the artifacts, then exit",
                 &prepare);
  if (!parser.Parse(argc, argv)) parser.ExitWithError();
  if (parser.HelpRequested()) parser.ExitWithHelp();

  core::Workbench bench(BenchWorkbenchConfig());
  const std::int64_t t0 = NowNs();
  const core::TrainedBundle& bundle =
      bench.BundleFor(traces::DatasetId::kGamma22);
  if (prepare) {
    std::printf("{\"prepared_s\":%.6f}\n",
                static_cast<double>(NowNs() - t0) / 1e9);
    return 0;
  }
  if (sessions_in.empty()) Die("--sessions-in is required");
  auto model = BuildModel(bench, spec.signal, bundle);
  Population pop(bench, spec, MakePlans(spec));
  Replay replay(spec, model, pop, *bundle.novelty, trace != 0);
  replay.Run(batch);

  std::vector<std::string> gates;
  if (replay.mismatches() > 0) {
    gates.push_back("decomposed path disagreed with DecideBatch on " +
                    std::to_string(replay.mismatches()) + " decisions");
  }
  if (replay.actor_mismatches() > 0) {
    gates.push_back("standalone actor pass disagreed with the scoring pass "
                    "on " + std::to_string(replay.actor_mismatches()) +
                    " decisions");
  }
  std::vector<CompletedSession>& completed = replay.completed();
  std::sort(completed.begin(), completed.end(),
            [](const CompletedSession& a, const CompletedSession& b) {
              return a.viewer != b.viewer ? a.viewer < b.viewer
                                          : a.ordinal < b.ordinal;
            });
  CheckSessions(sessions_in, completed, replay.defaulted(), gates);
  const QoeSummary qoe = NormalizedQoe(bench, *model, completed);

  std::map<std::string, double> metrics;
  if (trace != 0) {
    replay.Report(metrics);
    if (!spans_out.empty()) replay.spans().Write(spans_out);
  }
  std::string out = "{\"failed_gates\":[";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    out += (i ? ",\"" : "\"");
    for (char ch : gates[i]) out += (ch == '"' ? '\'' : ch);
    out += '"';
  }
  char head[256];
  std::snprintf(head, sizeof head,
                "],\"qoe_id\":%.17g,\"qoe_ood\":%.17g,\"raw_qoe_id\":%.17g,"
                "\"raw_qoe_ood\":%.17g,\"metrics\":{",
                qoe.id, qoe.ood, qoe.raw_id, qoe.raw_ood);
  out += head;
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", first ? "" : ",",
                  name.c_str(), value);
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
