// campaign_bench: runs one named campaign workload once through the real
// core::CampaignRunner with 4 worker threads and prints one JSON document
// (last stdout line) with the raw measurements. campaignbench/run.py builds
// this binary, runs it once per iteration (a fresh process each time, so
// peak RSS is per campaign), aggregates the documents into the benchmark's
// metrics and checks correctness.
//
//   campaign_bench --workload paper-grid [--seed 100] [--trace 0|1] [--replay 0|1]
//                  [--out-dir .bench_out] [--commit ID]
//
// Untraced, the campaign records only the per-cell timestamps setup_s and
// find_s need (probe.h). Traced (--trace 1), it also records every strategy
// call and applied plan for the per-layer metrics. --replay 1 then replays a
// sample of the applied plans through the step replay (replay.h) and writes
// every span as Chrome trace-event JSON into --out-dir.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "core/campaign.h"
#include "core/scenario.h"
#include "probe.h"
#include "replay.h"
#include "trace.h"

#ifndef CAMPAIGNBENCH_BUILD_FLAGS
#define CAMPAIGNBENCH_BUILD_FLAGS "unknown"
#endif

namespace avis::campaignbench {
namespace {

// Fixed, not nproc: every workload's worker split is part of its definition.
constexpr int kThreads = 4;
// Step-replay sample size per workload.
constexpr std::size_t kReplayPlans = 12;

struct Workload {
  std::string name;
  std::vector<core::CampaignCellSpec> cells;
  int cell_workers = 1;
  int experiment_workers = 1;
};

// Workloads set only grid shape, budget, seed and worker split; batch width
// and checkpoint knobs stay at their defaults. Cells are built like the
// table benches' (strategy seed = seed + 7).
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "paper-grid" || name == "avis-waves") {
    const std::vector<std::string> approaches =
        name == "paper-grid" ? std::vector<std::string>{"avis", "stratified-bfi"}
                             : std::vector<std::string>{"avis"};
    for (const std::string& approach : approaches) {
      for (const char* personality : {"ardupilot", "px4"}) {
        for (const char* workload : {"box-manual", "fence-mission"}) {
          w.cells.push_back(bench::make_cell(approach, personality, workload, std::nullopt,
                                             7200 * 1000, seed));
        }
      }
    }
    w.cell_workers = name == "paper-grid" ? 4 : 1;
    w.experiment_workers = name == "paper-grid" ? 1 : 4;
    return w;
  }
  if (name == "scenario-sweep") {
    for (const char* approach : {"avis", "random"}) {
      for (const char* personality : {"ardupilot", "px4"}) {
        for (const char* workload :
             {"auto", "box-manual", "fence-mission", "wind-gust-box", "survey"}) {
          for (const char* environment : {"calm", "breeze", "gusty"}) {
            w.cells.push_back(bench::make_cell(approach, personality, workload, std::nullopt,
                                               200 * 1000, seed, environment));
          }
        }
      }
    }
    w.cell_workers = 4;
    w.experiment_workers = 1;
    return w;
  }
  return std::nullopt;
}

std::string cell_label(const core::ScenarioSpec& s) {
  return s.approach + "/" + s.personality + "/" + s.workload + "/" + s.environment;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct CellOutcome {
  std::string label;
  int experiments = 0;
  std::vector<std::string> found;  // report names, in BugId order
};

// A plan picked for the step replay, with everything needed to rebuild the
// cell's experiment spec after the campaign is gone.
struct ReplayJob {
  std::string label;
  core::ExperimentSpec spec;
  std::shared_ptr<const core::MonitorModel> model;
};

struct Iteration {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> find_s;
  int experiments = 0;
  std::string error;  // the campaign threw; no cell results
  std::vector<CellOutcome> cells;
  std::vector<std::pair<std::string, double>> layers;  // traced only
};

// The per-layer campaign metrics of one traced iteration, and its spans.
void record_layers(const Workload& w, const core::CampaignResult& result,
                   const std::vector<std::unique_ptr<CellProbe>>& probes,
                   std::int64_t run_start, std::int64_t run_end, Iteration& it, Trace& trace) {
  const int root = trace.add({"workload:" + w.name, "campaign", 0, run_start, run_end, -1, {}});
  std::map<std::thread::id, int> tids;
  std::vector<double> cell_s;
  std::vector<double> plans_per_wave;
  std::vector<double> wave_ms;
  std::vector<double> experiment_s;
  double profile_s = 0.0, prefix_s = 0.0, merge_ms = 0.0;
  double next_batch_ms = 0.0, feedback_ms = 0.0;
  double proposed = 0.0, applied = 0.0, calls = 0.0;
  double stepped_ms = 0.0, hits = 0.0, misses = 0.0, tree_hits = 0.0, skipped_ms = 0.0;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const core::CampaignCellResult& cell = result.cells[i];
    const CellProbe& probe = *probes[i];
    const auto tid = tids.emplace(probe.thread, static_cast<int>(tids.size()) + 1).first->second;
    const std::int64_t end = probe.last_call_ns;
    const auto start = end - static_cast<std::int64_t>(cell.wall_seconds * 1e9);
    cell_s.push_back(cell.wall_seconds);
    profile_s += static_cast<double>(probe.built_ns - start) / 1e9;
    prefix_s += static_cast<double>(probe.first_request_ns - probe.built_ns) / 1e9;

    const int cell_span =
        trace.add({cell_label(cell.spec.scenario), "cell", tid, start, end, root, {}});
    trace.add({"profile", "checker", tid, start, probe.built_ns, cell_span, {}});
    trace.add({"prefix", "checker", tid, probe.built_ns, probe.first_request_ns, cell_span, {}});

    // A wave is one request that returned plans, up to the next request:
    // its simulation, the applies (feedback) and any deferred tree merges.
    int wave = -1;
    std::int64_t last_feedback_end = 0;
    const auto close_wave = [&](std::int64_t at) {
      if (wave < 0) return;
      Span& span = trace.at(wave);
      span.end_ns = at;
      wave_ms.push_back(static_cast<double>(at - span.start_ns) / 1e6);
      if (last_feedback_end > 0) merge_ms += static_cast<double>(at - last_feedback_end) / 1e6;
      wave = -1;
    };
    for (const StrategyCall& call : probe.calls) {
      const double ms = static_cast<double>(call.end_ns - call.start_ns) / 1e6;
      calls += 1.0;
      if (call.kind == StrategyCall::Kind::kRequest) {
        close_wave(call.start_ns);
        next_batch_ms += ms;
        proposed += call.plans;
        if (call.plans > 0) {
          wave = trace.add({"wave", "checker", tid, call.start_ns, call.end_ns, cell_span,
                            {{"plans", static_cast<double>(call.plans)}}});
          plans_per_wave.push_back(call.plans);
          last_feedback_end = 0;
        }
        trace.add({"next_batch", "strategy", tid, call.start_ns, call.end_ns,
                   wave >= 0 ? wave : cell_span, {{"plans", static_cast<double>(call.plans)}}});
      } else {
        feedback_ms += ms;
        applied += 1.0;
        last_feedback_end = call.end_ns;
        trace.add({"feedback", "strategy", tid, call.start_ns, call.end_ns,
                   wave >= 0 ? wave : cell_span, {}});
      }
    }
    close_wave(end);

    for (sim::SimTimeMs d : probe.applied_duration_ms) experiment_s.push_back(d / 1000.0);
    stepped_ms += static_cast<double>(probe.stepped_ms);
    hits += cell.report.checkpoint_hits;
    misses += cell.report.checkpoint_misses;
    for (std::size_t level = 1; level < cell.report.checkpoint_hits_by_level.size(); ++level) {
      tree_hits += cell.report.checkpoint_hits_by_level[level];
    }
    skipped_ms += static_cast<double>(cell.report.checkpoint_skipped_ms);
  }
  double cell_total = 0.0;
  for (double s : cell_s) cell_total += s;
  const double set_up = profile_s + prefix_s;
  it.layers = {
      {"campaign.cell_s_p50", median(cell_s)},
      {"campaign.cell_s_max",
       cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(), cell_s.end())},
      {"campaign.pool_idle_frac", 1.0 - ratio(cell_total, w.cell_workers * it.wall_s)},
      {"campaign.experiments", static_cast<double>(it.experiments)},
      {"checker.profile_s", profile_s},
      {"checker.prefix_s", prefix_s},
      {"checker.waves", static_cast<double>(plans_per_wave.size())},
      {"checker.plans_per_wave_p50", median(plans_per_wave)},
      {"checker.wave_ms_p50", median(wave_ms)},
      {"checker.merge_ms", merge_ms},
      {"checker.proposed", proposed},
      {"checker.applied", applied},
      {"checker.applied_ratio", ratio(applied, proposed)},
      {"checker.cpu_util", ratio(it.cpu_s, kThreads * it.wall_s)},
      {"strategy.next_batch_ms", next_batch_ms},
      {"strategy.feedback_ms", feedback_ms},
      {"strategy.calls", calls},
      {"harness.stepped_sim_s", stepped_ms / 1000.0},
      // Worker-seconds outside set-up per stepped simulated ms. With one
      // experiment worker per cell this is the simulation cost of a step;
      // with more it also carries the pool's barrier idle.
      {"harness.ns_per_stepped_ms",
       ratio((cell_total - set_up) * w.experiment_workers * 1e9, stepped_ms)},
      {"harness.experiment_sim_s_p50", median(experiment_s)},
      {"checkpoint.hit_rate", ratio(hits, hits + misses)},
      {"checkpoint.tree_hit_rate", ratio(tree_hits, hits + misses)},
      {"checkpoint.skipped_frac", ratio(skipped_ms, skipped_ms + stepped_ms)},
      {"find.first_s_p50", median(it.find_s)},
      {"find.events", static_cast<double>(it.find_s.size())},
  };
}

// Evenly spaced applied plans across the whole grid, in grid order.
std::vector<ReplayJob> pick_replay_jobs(const core::CampaignResult& result,
                                        const std::vector<std::unique_ptr<CellProbe>>& probes) {
  std::vector<std::pair<std::size_t, std::size_t>> all;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (std::size_t j = 0; j < probes[i]->applied_plans.size(); ++j) all.emplace_back(i, j);
  }
  std::vector<ReplayJob> jobs;
  const std::size_t count = std::min(kReplayPlans, all.size());
  std::map<std::size_t, std::shared_ptr<const core::MonitorModel>> models;
  for (std::size_t k = 0; k < count; ++k) {
    const auto [cell, index] = all[(2 * k + 1) * all.size() / (2 * count)];
    const CellProbe& probe = *probes[cell];
    auto& model = models[cell];
    if (!model) model = std::make_shared<const core::MonitorModel>(*probe.model);
    ReplayJob job;
    job.label = cell_label(result.cells[cell].spec.scenario);
    // Checker::p_make_spec: the prototype, the plan, and the settle slack.
    job.spec = core::scenario_prototype(result.cells[cell].spec.scenario);
    job.spec.plan = probe.applied_plans[index];
    job.spec.stop_on_violation = true;
    job.spec.max_duration_ms = model->profiling_duration_ms() + core::Checker::kSettleMs;
    job.model = model;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Iteration run_iteration(const Workload& w, bool traced, Trace* trace,
                        std::vector<ReplayJob>* replay_jobs) {
  Iteration it;
  it.traced = traced;
  std::vector<core::CampaignCellSpec> grid = w.cells;
  std::vector<std::unique_ptr<CellProbe>> probes;
  for (core::CampaignCellSpec& cell : grid) {
    probes.push_back(std::make_unique<CellProbe>());
    probes.back()->traced = traced;
    install_probe(cell, *probes.back());
  }
  core::CampaignOptions options;
  options.total_workers = kThreads;
  options.cell_workers = w.cell_workers;
  options.experiment_workers = w.experiment_workers;
  const core::CampaignRunner runner(options);

  core::CampaignResult result;
  const double cpu_start = cpu_seconds();
  const std::int64_t start = now_ns();
  try {
    result = runner.run(grid);
  } catch (const std::exception& err) {
    it.error = err.what();
  }
  const std::int64_t end = now_ns();
  it.wall_s = static_cast<double>(end - start) / 1e9;
  it.cpu_s = cpu_seconds() - cpu_start;
  if (!it.error.empty()) return it;

  it.experiments = result.total_experiments();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const core::CampaignCellResult& cell = result.cells[i];
    const CellProbe& probe = *probes[i];
    // The cell's start, from its reported wall time and its last strategy
    // call (the checker returns right after it).
    const auto cell_start = probe.last_call_ns - static_cast<std::int64_t>(cell.wall_seconds * 1e9);
    it.setup_s += static_cast<double>(probe.first_request_ns - cell_start) / 1e9;
    for (const auto& [bug, found_ns] : probe.first_found_ns) {
      it.find_s.push_back(static_cast<double>(found_ns - cell_start) / 1e9);
    }
    CellOutcome outcome;
    outcome.label = cell_label(cell.spec.scenario);
    outcome.experiments = cell.report.experiments;
    for (const auto& [bug, index] : cell.report.bug_first_found) {
      outcome.found.emplace_back(fw::bug_info(bug).report_name);
    }
    it.cells.push_back(std::move(outcome));
  }
  if (traced && trace != nullptr) record_layers(w, result, probes, start, end, it, *trace);
  if (traced && replay_jobs != nullptr && replay_jobs->empty()) {
    *replay_jobs = pick_replay_jobs(result, probes);
  }
  return it;
}

// Replays the sampled plans and returns the step-replay metrics.
std::vector<std::pair<std::string, double>> run_replay(const std::vector<ReplayJob>& jobs,
                                                       Trace& trace) {
  LayerTotals total;
  int parity_failures = 0;
  const std::int64_t start = now_ns();
  const int root = trace.add({"replay", "replay", 100, start, start, -1, {}});
  for (const ReplayJob& job : jobs) {
    const std::int64_t t0 = now_ns();
    const ReplayOutcome out = replay_experiment(job.spec, *job.model);
    const std::int64_t t1 = now_ns();
    const LayerTotals& t = out.totals;
    total.add(t);
    if (!out.parity) {
      ++parity_failures;
      std::cerr << "replay parity failure on " << job.label << " plan "
                << job.spec.plan.signature() << ": " << out.mismatch << "\n";
    }
    const int span = trace.add({"experiment", "replay", 100, t0, t1, root,
                                {{"steps", static_cast<double>(t.steps)},
                                 {"parity", out.parity ? 1.0 : 0.0}}});
    // Per-layer aggregates, laid end to end from the experiment's start:
    // their lengths are the layer totals, not when the calls happened.
    std::int64_t at = t0;
    for (const auto& [name, ns, count] :
         {std::tuple{"sim.step", t.sim_ns, t.steps}, std::tuple{"fw.step", t.fw_ns, t.fw_steps},
          std::tuple{"fw.estimator(shadow)", t.estimator_ns, t.estimator_steps},
          std::tuple{"sensors.read(probe)", t.probe_ns, t.probe_reads},
          std::tuple{"workload.tick", t.tick_ns, t.ticks},
          std::tuple{"monitor.sample", t.sample_ns, t.samples},
          std::tuple{"harness.run(untraced)", t.harness_ns, t.harness_steps}}) {
      trace.add(
          {name, "aggregate", 100, at, at + ns, span, {{"calls", static_cast<double>(count)}}});
      at += ns;
    }
  }
  trace.at(root).end_ns = now_ns();

  const auto per = [](std::int64_t ns, std::int64_t n) {
    return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  const double fw_step = per(total.fw_ns, total.fw_steps);
  const double estimator = per(total.estimator_ns, total.estimator_steps);
  return {
      {"sim.step_ns", per(total.sim_ns, total.steps)},
      {"fw.step_ns", fw_step},
      {"fw.estimator_ns", estimator},
      {"fw.control_ns", fw_step - estimator},
      {"sensors.reads_per_step", per(total.hinj_reads, total.fw_steps)},
      {"sensors.read_ns", per(total.probe_ns, total.probe_reads)},
      {"workload.tick_ns", per(total.tick_ns, total.ticks)},
      {"monitor.sample_ns", per(total.sample_ns, total.samples)},
      {"step.total_ns", per(total.loop_ns, total.steps)},
      {"step.untraced_ns", per(total.harness_ns, total.harness_steps)},
      {"replay.plans", static_cast<double>(jobs.size())},
      {"replay.steps", static_cast<double>(total.steps)},
      {"replay.parity_failures", static_cast<double>(parity_failures)},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void write_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_pairs(std::ostream& os, const std::vector<std::pair<std::string, double>>& pairs) {
  os << "{";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    os << (i ? ", " : "") << json_string(pairs[i].first) << ": ";
    write_number(os, pairs[i].second);
  }
  os << "}";
}

void write_iteration(std::ostream& os, const Iteration& it) {
  os << "{\"traced\": " << (it.traced ? "true" : "false") << ", \"wall_s\": ";
  write_number(os, it.wall_s);
  os << ", \"cpu_s\": ";
  write_number(os, it.cpu_s);
  os << ", \"setup_s\": ";
  write_number(os, it.setup_s);
  os << ", \"experiments\": " << it.experiments
     << ", \"error\": " << (it.error.empty() ? "null" : json_string(it.error)) << ", \"cells\": [";
  for (std::size_t i = 0; i < it.cells.size(); ++i) {
    const CellOutcome& c = it.cells[i];
    os << (i ? ", " : "") << "{\"label\": " << json_string(c.label)
       << ", \"experiments\": " << c.experiments << ", \"found\": [";
    for (std::size_t j = 0; j < c.found.size(); ++j) {
      os << (j ? ", " : "") << json_string(c.found[j]);
    }
    os << "]}";
  }
  os << "], \"layers\": ";
  write_pairs(os, it.layers);
  os << "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 100;
  bool trace = false;
  bool replay = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

int usage(const char* why) {
  std::cerr << "campaign_bench: " << why
            << "\nusage: campaign_bench --workload paper-grid|avis-waves|scenario-sweep"
               " [--seed N] [--trace 0|1] [--replay 0|1] [--out-dir DIR] [--commit ID]\n";
  return 2;
}

bool parse_flag01(const std::string& value, bool& out) {
  if (value != "0" && value != "1") return false;
  out = value == "1";
  return true;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--trace") {
        if (!parse_flag01(value, args.trace)) return usage("--trace takes 0 or 1");
      } else if (flag == "--replay") {
        if (!parse_flag01(value, args.replay)) return usage("--replay takes 0 or 1");
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const std::optional<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) return usage("unknown or missing --workload");
  if (args.replay && !args.trace) return usage("--replay 1 needs --trace 1");

  const std::int64_t origin = now_ns();
  Trace trace;
  std::vector<ReplayJob> replay_jobs;
  const Iteration iteration = run_iteration(*workload, args.trace, &trace,
                                            args.replay ? &replay_jobs : nullptr);
  std::vector<std::pair<std::string, double>> replay;
  if (!replay_jobs.empty()) replay = run_replay(replay_jobs, trace);

  std::ostringstream provenance;
  provenance << "{\"commit\": " << json_string(args.commit)
             << ", \"build_flags\": " << json_string(CAMPAIGNBENCH_BUILD_FLAGS)
             << ", \"nproc\": " << std::thread::hardware_concurrency()
             << ", \"threads\": " << kThreads << ", \"seed\": " << args.seed
             << ", \"workload\": " << json_string(workload->name)
             << ", \"cells\": " << workload->cells.size()
             << ", \"cell_workers\": " << workload->cell_workers
             << ", \"experiment_workers\": " << workload->experiment_workers << "}";

  std::string trace_file;
  if (args.replay) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    trace_file = args.out_dir + "/trace-" + workload->name + "-seed" + std::to_string(args.seed) +
                 ".json";
    if (!trace.write_chrome(trace_file, "\"provenance\": " + provenance.str(), origin)) {
      std::cerr << "campaign_bench: cannot write " << trace_file << "\n";
      trace_file.clear();
    }
    std::cerr << "self time by span (ms):\n";
    for (const SelfTimeRow& row : trace.self_time()) {
      std::fprintf(stderr, "  %-40s %8lld %12.3f %12.3f\n", row.name.c_str(),
                   static_cast<long long>(row.count), row.total_ms, row.self_ms);
    }
  }

  std::ostringstream doc;
  doc << "{\"provenance\": " << provenance.str() << ", \"peak_rss_mb\": ";
  write_number(doc, peak_rss_mb());
  doc << ", \"trace_file\": " << json_string(trace_file) << ", \"replay\": ";
  write_pairs(doc, replay);
  doc << ", \"iteration\": ";
  write_iteration(doc, iteration);
  doc << "}";
  std::cout << doc.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace avis::campaignbench

int main(int argc, char** argv) { return avis::campaignbench::run(argc, argv); }
